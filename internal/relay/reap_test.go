package relay_test

import (
	"bufio"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/ipa-grid/ipa/internal/aida"
	"github.com/ipa-grid/ipa/internal/merge"
	"github.com/ipa-grid/ipa/internal/relay"
)

// TestRelayReapsReadsOfUnknownSessions: renders of sessions the owner
// does not know leave no subscription and no loop behind once the loops
// go idle, while a subscription that holds a copy keeps it.
func TestRelayReapsReadsOfUnknownSessions(t *testing.T) {
	mgr := merge.NewManager()
	const sid = "known"
	tree := aida.NewTree()
	h, err := tree.H1D("/h", "x", "", 10, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	h.Fill(1)
	sendSnap(t, merge.NewTransport(sid, "w0", mgr), tree)

	rel := relay.New("reap", mgr)
	rel.Interval = relay.ParkBound
	defer rel.Close()
	gw := relay.NewGateway(rel)
	get := func(path string) int {
		rec := httptest.NewRecorder()
		gw.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Code
	}
	if code := get("/tree/" + sid); code != http.StatusOK {
		t.Fatalf("/tree/%s = %d", sid, code)
	}
	// The known session's loop follows once and goes idle.
	time.Sleep(relay.ParkBound / 10)
	sessions, goroutines := rel.Stats().Sessions, runtime.NumGoroutine()
	if sessions != 1 {
		t.Fatalf("%d subscriptions after one read, want 1", sessions)
	}
	const bogus = 50
	for i := 0; i < bogus; i++ {
		if code := get(fmt.Sprintf("/tree/bogus-%d", i)); code != http.StatusOK {
			t.Fatalf("/tree/bogus-%d = %d", i, code)
		}
	}
	if n := rel.Stats().Sessions; n <= sessions {
		t.Fatalf("%d subscriptions right after the reads, want more than %d", n, sessions)
	}
	deadline := time.Now().Add(4 * relay.ParkBound)
	for rel.Stats().Sessions != sessions || runtime.NumGoroutine() > goroutines {
		if time.Now().After(deadline) {
			t.Fatalf("%d subscriptions and %d goroutines %v after %d reads of unknown sessions; were %d and %d",
				rel.Stats().Sessions, runtime.NumGoroutine(), 4*relay.ParkBound, bogus, sessions, goroutines)
		}
		time.Sleep(20 * time.Millisecond)
	}
	var reply merge.PollReply
	if err := rel.Local().Poll(merge.PollArgs{SessionID: sid, Full: true}, &reply); err != nil || len(reply.Entries) != 1 {
		t.Fatalf("the known session's copy holds %d entries, %v; want it kept", len(reply.Entries), err)
	}
}

// TestGatewayStreamWaitsForUnbornSession: an SSE stream opened on a
// session that does not exist yet keeps waiting through many relay and
// stream parks, and gets the session's first frame once it is
// published.
func TestGatewayStreamWaitsForUnbornSession(t *testing.T) {
	mgr := merge.NewManager()
	const sid = "unborn"
	rel := relay.New("unborn", mgr)
	rel.Interval = 20 * time.Millisecond
	defer rel.Close()
	gw := relay.NewGateway(rel)
	gw.Tick = 20 * time.Millisecond
	srv := httptest.NewServer(gw)
	defer srv.Close()
	// The stream writes nothing, headers included, before its first
	// frame, so it is read on its own goroutine.
	type frame struct {
		data string
		err  error
	}
	got := make(chan frame, 1)
	go func() {
		resp, err := http.Get(srv.URL + "/events/" + sid)
		if err != nil {
			got <- frame{err: err}
			return
		}
		defer resp.Body.Close()
		br := bufio.NewReader(resp.Body)
		for {
			line, err := br.ReadString('\n')
			if err != nil || strings.HasPrefix(line, "data: ") {
				got <- frame{line, err}
				return
			}
		}
	}()

	time.Sleep(15 * rel.Interval)
	tree := aida.NewTree()
	h, err := tree.H1D("/h", "x", "", 10, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	h.Fill(1)
	sendSnap(t, merge.NewTransport(sid, "w0", mgr), tree)
	select {
	case f := <-got:
		if f.err != nil || !strings.Contains(f.data, `"paths":["/h/x"]`) {
			t.Fatalf("first frame %q, %v; want /h/x", f.data, f.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the stream never saw the session it waited for")
	}
}
