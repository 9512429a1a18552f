// The HTTP/SSE live-view gateway: the browser-facing edge of the read
// fan-out tier. Each SSE client gets one goroutine whose poll parks on
// the gateway's relay until the relay's local copy commits a new
// version, then pushes one `update` frame covering everything since the
// client's last frame — publishes that land while a frame is being
// written coalesce into the next one. Rendering reuses the aida
// SVG/XML/text renderers over a full poll of the relay; no new
// protocol, no per-viewer load on the owning shard.
//
// Endpoint contract (all GET):
//
//	/events/{session}        SSE stream of JSON update frames:
//	                         event: update
//	                         data: {"session","version","epoch","resync",
//	                                "paths","removed","done","total","logs"}
//	                         A `resync` frame means the upstream state was
//	                         rebuilt (re-created): discard and re-fetch views.
//	/live/{session}          HTML live view (EventSource + SVG refresh).
//	/view/{session}?path=P   SVG rendering of the object at P.
//	/tree/{session}          text object-browser summary.
//	/xml/{session}           full AIDA XML export.
package relay

import (
	"encoding/json"
	"fmt"
	"html"
	"net/http"
	"time"

	"github.com/ipa-grid/ipa/internal/aida"
	"github.com/ipa-grid/ipa/internal/merge"
)

// Gateway serves live session views from a relay over HTTP/SSE.
type Gateway struct {
	relay *Relay
	// Tick bounds one SSE client's parked poll (default 200ms): a client
	// gets a frame as soon as the version moves, and at least every Tick
	// the stream re-polls and notices a client that went away. It sets
	// no frame rate.
	Tick time.Duration
	mux  *http.ServeMux
}

// NewGateway wraps a relay in the HTTP/SSE surface.
func NewGateway(r *Relay) *Gateway {
	g := &Gateway{relay: r, Tick: 200 * time.Millisecond}
	g.mux = http.NewServeMux()
	g.mux.HandleFunc("GET /events/{session}", g.events)
	g.mux.HandleFunc("GET /live/{session}", g.live)
	g.mux.HandleFunc("GET /view/{session}", g.view)
	g.mux.HandleFunc("GET /tree/{session}", g.tree)
	g.mux.HandleFunc("GET /xml/{session}", g.xml)
	return g
}

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) { g.mux.ServeHTTP(w, r) }

// sseFrame is one update event's JSON payload.
type sseFrame struct {
	Session string `json:"session"`
	Version int64  `json:"version"`
	Epoch   int64  `json:"epoch"`
	// Resync marks a rebuilt upstream state: the version space restarted,
	// so viewers must discard cached state and treat Paths as complete.
	Resync  bool     `json:"resync,omitempty"`
	Paths   []string `json:"paths,omitempty"`
	Removed []string `json:"removed,omitempty"`
	Done    int64    `json:"done"`
	Total   int64    `json:"total"`
	Logs    []string `json:"logs,omitempty"`
}

func (g *Gateway) events(w http.ResponseWriter, r *http.Request) {
	sid := r.PathValue("session")
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	g.relay.AddClient()
	obsSSEClients.Add(1)
	defer func() {
		g.relay.DropClient()
		obsSSEClients.Add(-1)
	}()
	tick := g.Tick
	if tick <= 0 {
		tick = 200 * time.Millisecond
	}
	enc := json.NewEncoder(w)
	cur := merge.Cursor{Session: sid}
	push := func() bool {
		var reply merge.PollReply
		if err := g.relay.Poll(cur.Args(false, tick), &reply); err != nil {
			// A failing relay answers at once: retry after a tick.
			t := time.NewTimer(tick)
			defer t.Stop()
			select {
			case <-r.Context().Done():
			case <-t.C:
			}
			return true
		}
		resync := false
		switch cur.Verdict(&reply) {
		case merge.Unknown:
			return true // session unknown yet (the poll parked); keep waiting
		case merge.Rebuilt:
			// The relay re-baselined under us; restart from zero so the
			// next frame carries the complete rebuilt state.
			resync = true
			cur.Reset()
			reply = merge.PollReply{}
			if err := g.relay.Poll(cur.Args(false, 0), &reply); err != nil || reply.Version == 0 {
				return true
			}
		default:
			if cur.Unchanged(&reply) {
				return true
			}
		}
		f := sseFrame{
			Session: sid, Version: reply.Version, Epoch: reply.Epoch,
			Resync: resync, Removed: reply.Removed, Logs: reply.Logs,
		}
		for _, e := range reply.Entries {
			f.Paths = append(f.Paths, e.Path)
		}
		for _, p := range reply.Progress {
			f.Done += p.EventsDone
			f.Total += p.EventsTotal
		}
		if _, err := fmt.Fprintf(w, "event: update\ndata: "); err != nil {
			return false
		}
		if err := enc.Encode(f); err != nil { // Encode appends one \n
			return false
		}
		if _, err := fmt.Fprintf(w, "\n"); err != nil {
			return false
		}
		fl.Flush()
		obsSSEFrames.Inc()
		if since := cur.Version; since > 0 && reply.Version > since+1 {
			// The versions between since and reply.Version were coalesced
			// into this one frame.
			obsSSECoalesced.Add(reply.Version - since - 1)
		}
		cur.Take(&reply)
		return true
	}
	for r.Context().Err() == nil && push() {
	}
}

// read answers a full poll of the session through the relay, which
// subscribes the session and syncs a copy nothing follows, so a render
// is current without an SSE stream open. The entries are frames of the
// relay's frame cache and are never released.
func (g *Gateway) read(sid string) (merge.PollReply, error) {
	var reply merge.PollReply
	err := g.relay.Poll(merge.PollArgs{SessionID: sid, Full: true}, &reply)
	return reply, err
}

// merged restores every object of the session into one tree.
func (g *Gateway) merged(sid string) (*aida.Tree, int64, error) {
	reply, err := g.read(sid)
	if err != nil {
		return nil, 0, err
	}
	tree := aida.NewTree()
	for _, e := range reply.Entries {
		obj, err := e.Restore()
		if err == nil {
			err = tree.PutAt(e.Path, obj)
		}
		if err != nil {
			return nil, 0, err
		}
	}
	return tree, reply.Version, nil
}

func (g *Gateway) view(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Query().Get("path")
	reply, err := g.read(r.PathValue("session"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	var obj aida.Object
	for _, e := range reply.Entries {
		if e.Path == path {
			if obj, err = e.Restore(); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			break
		}
	}
	if obj == nil {
		http.Error(w, "no such object", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "image/svg+xml")
	w.Header().Set("Cache-Control", "no-cache")
	if h, ok := obj.(*aida.Histogram1D); ok {
		if err := aida.WriteSVGH1D(w, h, 640, 400); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	// Non-H1D objects get their text summary wrapped in an SVG so the
	// live page can treat every path as an image.
	fmt.Fprintf(w, `<svg xmlns="http://www.w3.org/2000/svg" width="640" height="60">`+
		`<text x="8" y="24" font-family="monospace" font-size="13">%s  [%s]  entries=%d</text></svg>`,
		html.EscapeString(path), html.EscapeString(string(obj.Kind())), obj.EntriesCount())
}

func (g *Gateway) tree(w http.ResponseWriter, r *http.Request) {
	tree, ver, err := g.merged(r.PathValue("session"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "version %d\n%s", ver, aida.RenderTree(tree))
}

func (g *Gateway) xml(w http.ResponseWriter, r *http.Request) {
	tree, _, err := g.merged(r.PathValue("session"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/xml")
	if err := aida.WriteXML(w, tree); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (g *Gateway) live(w http.ResponseWriter, r *http.Request) {
	sid := r.PathValue("session")
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprintf(w, livePage, html.EscapeString(sid))
}

// livePage is the zero-dependency live view: subscribe to the SSE
// stream, keep an <img> per object path, and re-fetch only the paths
// each update frame names.
const livePage = `<!DOCTYPE html>
<html><head><title>ipa live — %[1]s</title><style>
body{font-family:sans-serif;margin:1em;background:#fafafa}
img{border:1px solid #ccc;margin:4px;background:#fff}
#status{color:#555;font-size:90%%}
</style></head><body>
<h2>session %[1]s</h2><div id="status">connecting…</div><div id="plots"></div>
<script>
const sid=%[1]q, plots={}, status=document.getElementById('status');
const es=new EventSource('/events/'+encodeURIComponent(sid));
es.addEventListener('update',ev=>{
  const f=JSON.parse(ev.data);
  status.textContent='version '+f.version+' — '+f.done+'/'+f.total+' events';
  if(f.resync){for(const p in plots){plots[p].remove();delete plots[p];}}
  for(const p of f.removed||[]){if(plots[p]){plots[p].remove();delete plots[p];}}
  for(const p of f.paths||[]){
    let img=plots[p];
    if(!img){img=document.createElement('img');plots[p]=img;
      document.getElementById('plots').appendChild(img);}
    img.src='/view/'+encodeURIComponent(sid)+'?path='+encodeURIComponent(p)+'&v='+f.version;
  }
});
es.onerror=()=>{status.textContent='disconnected — retrying…';};
</script></body></html>
`
