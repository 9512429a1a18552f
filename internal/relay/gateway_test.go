package relay_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/ipa-grid/ipa/internal/aida"
	"github.com/ipa-grid/ipa/internal/merge"
	"github.com/ipa-grid/ipa/internal/relay"
)

// readSSEFrame consumes one well-formed "event: update" frame from the
// stream, failing the test on any malformed framing.
func readSSEFrame(t *testing.T, br *bufio.Reader) map[string]any {
	t.Helper()
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimRight(line, "\n") != "event: update" {
		t.Fatalf("malformed SSE frame: want %q, got %q", "event: update", line)
	}
	line, err = br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(line, "data: ") {
		t.Fatalf("malformed SSE frame: data line = %q", line)
	}
	var payload map[string]any
	if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &payload); err != nil {
		t.Fatalf("SSE data is not JSON: %v (%q)", err, line)
	}
	if blank, err := br.ReadString('\n'); err != nil || blank != "\n" {
		t.Fatalf("malformed SSE frame: want blank separator, got %q (%v)", blank, err)
	}
	return payload
}

// TestGatewaySSE drives the browser-facing surface end to end: an SSE
// client sees correctly framed update events, a burst of publishes
// reaches the stream (the next frame's version is past the first's),
// and the render endpoints serve SVG/text/XML off the relay's local
// copy.
func TestGatewaySSE(t *testing.T) {
	mgr := merge.NewManager()
	const sid = "sse-sess"
	tree := aida.NewTree()
	h, err := tree.H1D("/h", "x", "", 10, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	tr := merge.NewTransport(sid, "w0", mgr)
	h.Fill(1)
	sendSnap(t, tr, tree)

	rel := relay.New("gw", mgr)
	rel.AutoSubscribe = true
	rel.Interval = time.Millisecond
	defer rel.Close()

	gw := relay.NewGateway(rel)
	gw.Tick = 5 * time.Millisecond
	srv := httptest.NewServer(gw)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/events/" + sid)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	br := bufio.NewReader(resp.Body)

	first := readSSEFrame(t, br)
	if first["session"] != sid {
		t.Fatalf("first frame session = %v", first["session"])
	}
	v1, _ := first["version"].(float64)
	if v1 <= 0 {
		t.Fatalf("first frame version = %v", first["version"])
	}
	paths, _ := first["paths"].([]any)
	if len(paths) == 0 {
		t.Fatal("first frame named no paths")
	}

	// Burst: the next frame carries a version past the first.
	for i := 0; i < 5; i++ {
		h.Fill(float64(i % 10))
		sendSnap(t, tr, tree)
	}
	second := readSSEFrame(t, br)
	v2, _ := second["version"].(float64)
	if v2 <= v1 {
		t.Fatalf("second frame version %v did not advance past %v", v2, v1)
	}

	// Render plane, all off the relay's local copy.
	get := func(path string) (string, string) {
		t.Helper()
		r2, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer r2.Body.Close()
		if r2.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, r2.StatusCode)
		}
		var sb strings.Builder
		if _, err := fmt.Fprint(&sb, readAll(t, r2)); err != nil {
			t.Fatal(err)
		}
		return sb.String(), r2.Header.Get("Content-Type")
	}
	if body, ct := get("/view/" + sid + "?path=/h/x"); ct != "image/svg+xml" || !strings.Contains(body, "<svg") {
		t.Fatalf("/view served %q (%d bytes)", ct, len(body))
	}
	if body, _ := get("/tree/" + sid); !strings.Contains(body, "/h/x") {
		t.Fatalf("/tree missing the histogram path: %q", body)
	}
	if body, ct := get("/xml/" + sid); ct != "application/xml" || !strings.Contains(body, "histogram1d") {
		t.Fatalf("/xml served %q: %.80q", ct, body)
	}
	if body, ct := get("/live/" + sid); !strings.Contains(ct, "text/html") || !strings.Contains(body, "EventSource") {
		t.Fatalf("/live served %q", ct)
	}

	if st := rel.Stats(); st.Clients != 1 {
		t.Fatalf("relay clients = %d, want 1 (the SSE stream)", st.Clients)
	}
}

// TestGatewayPushesOnCommit: with a relay loop and an SSE park bound of
// a second, each publish reaches the browser in well under a tick — the
// frame is written when the version moves, not on a timer.
func TestGatewayPushesOnCommit(t *testing.T) {
	mgr := merge.NewManager()
	const sid = "push-sess"
	tree := aida.NewTree()
	h, err := tree.H1D("/h", "x", "", 10, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	tr := merge.NewTransport(sid, "w0", mgr)
	h.Fill(1)
	sendSnap(t, tr, tree)

	rel := relay.New("push", mgr)
	rel.AutoSubscribe = true
	rel.Interval = relay.ParkBound
	defer rel.Close()
	gw := relay.NewGateway(rel)
	gw.Tick = time.Second
	srv := httptest.NewServer(gw)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/events/" + sid)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	last, _ := readSSEFrame(t, br)["version"].(float64)

	const bound = 250 * time.Millisecond
	for i := 0; i < 5; i++ {
		h.Fill(float64(i))
		t0 := time.Now()
		sendSnap(t, tr, tree)
		f := readSSEFrame(t, br)
		if d := time.Since(t0); d > bound {
			t.Fatalf("publish %d reached the stream after %v; the park bound is %v", i, d, gw.Tick)
		}
		v, _ := f["version"].(float64)
		if v <= last {
			t.Fatalf("frame %d version %v did not advance past %v", i, v, last)
		}
		last = v
	}
}

func readAll(t *testing.T, r *http.Response) string {
	t.Helper()
	var sb strings.Builder
	br := bufio.NewReader(r.Body)
	for {
		b, err := br.ReadString('\n')
		sb.WriteString(b)
		if err != nil {
			return sb.String()
		}
	}
}
