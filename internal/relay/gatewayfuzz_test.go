package relay_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"github.com/ipa-grid/ipa/internal/aida"
	"github.com/ipa-grid/ipa/internal/merge"
	"github.com/ipa-grid/ipa/internal/relay"
)

// fuzzSession is the one session the fuzzed gateway's manager holds.
const fuzzSession = "fuzz-sess"

// seededManager is a bare manager holding one session with an object of
// every kind.
func seededManager(f *testing.F) *merge.Manager {
	f.Helper()
	tree := aida.NewTree()
	h1, _ := tree.H1D("/h", "x", "", 10, 0, 10)
	h2, _ := tree.H2D("/h", "xy", "", 4, 0, 4, 4, 0, 4)
	p, _ := tree.P1D("/p", "prof", "", 5, 0, 5)
	c, _ := tree.C1D("/c", "cloud", "")
	d, _ := tree.DPS("/d", "points", "", 2)
	for i := 0; i < 20; i++ {
		v := float64(i % 5)
		h1.Fill(v)
		h2.Fill(v, 4-v)
		p.Fill(v, 2*v)
		c.Fill(v)
	}
	d.Append(1, 2)
	full, err := tree.FullDelta()
	if err != nil {
		f.Fatal(err)
	}
	mgr := merge.NewManager()
	var rep merge.PublishReply
	if err := mgr.Publish(merge.PublishArgs{SessionID: fuzzSession, WorkerID: "w0", Seq: 1, Delta: full}, &rep); err != nil || !rep.Accepted {
		f.Fatalf("seeding publish: %v %+v", err, rep)
	}
	return mgr
}

// FuzzGatewayQuery drives the gateway's render endpoints with arbitrary
// session IDs and object paths, and opens an /events stream whose
// client has already gone. The gateway must not panic, and must answer
// every request with a 2xx or a 4xx: no input a browser can send is a
// server fault.
func FuzzGatewayQuery(f *testing.F) {
	mgr := seededManager(f)
	for _, seed := range [][2]string{
		{fuzzSession, "/h/x"}, {fuzzSession, "/h/xy"}, {fuzzSession, "/p/prof"},
		{fuzzSession, "/c/cloud"}, {fuzzSession, "/d/points"}, {fuzzSession, ""},
		{fuzzSession, "/h/none"}, {"unknown", "/h/x"}, {"", ""}, {"a/b", "../h/x"},
		{"%zz", "?path=&x"}, {fuzzSession + "\x00", "/h/x\xff"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, sid, path string) {
		// A relay per input: each session ID a request names opens a
		// subscription, and they must not pile up across inputs.
		rel := relay.New("fuzz", mgr)
		defer rel.Close()
		gw := relay.NewGateway(rel)
		esc := url.PathEscape(sid)
		serve := func(ctx context.Context, target string) {
			t.Helper()
			req := httptest.NewRequest(http.MethodGet, target, nil).WithContext(ctx)
			rec := httptest.NewRecorder()
			gw.ServeHTTP(rec, req)
			if code := rec.Code; code < 200 || code >= 300 && code < 400 || code >= 500 {
				t.Fatalf("GET %s answered %d: %.200q", target, code, rec.Body.String())
			}
		}
		serve(context.Background(), "/view/"+esc+"?path="+url.QueryEscape(path))
		serve(context.Background(), "/tree/"+esc)
		serve(context.Background(), "/xml/"+esc)
		gone, cancel := context.WithCancel(context.Background())
		cancel()
		serve(gone, "/events/"+esc)
	})
}
