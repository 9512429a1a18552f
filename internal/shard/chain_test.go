package shard

import (
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"github.com/ipa-grid/ipa/internal/merge"
	"github.com/ipa-grid/ipa/internal/obs"
)

// drainMirrors waits until every mirror enqueued before the call has
// been applied. It queues a job for no placed session, which the one
// mirror worker takes only once every job ahead of it is done, and
// waits for the queue to empty. Tests call it with publishers quiet.
func (r *Router) drainMirrors() {
	r.mirrorMu.Lock()
	q := r.mirrorQ
	r.mirrorMu.Unlock()
	if q == nil {
		return
	}
	q <- mirrorJob{}
	for len(q) > 0 {
		time.Sleep(100 * time.Microsecond)
	}
}

// exportOf reads a session's export from one shard, removed paths
// sorted (they come from a map).
func exportOf(t *testing.T, b Backend, sid string) merge.ExportReply {
	t.Helper()
	var ex merge.ExportReply
	if err := b.Export(merge.ExportArgs{SessionID: sid}, &ex); err != nil || !ex.Found {
		t.Fatalf("export %s: found=%v err=%v", sid, ex.Found, err)
	}
	sort.Slice(ex.Removed, func(i, j int) bool { return ex.Removed[i].Path < ex.Removed[j].Path })
	return ex
}

// TestChainDepthTwoMirrorsEveryHop: with K=2 every session gets a
// primary plus a two-hop chain of distinct shards, every publish after
// the seeding baseline reaches each hop as an accepted mirror, and once
// the stream has drained each hop's copy exports exactly what the
// primary does and reports no lag, while the fabric serves the flat
// reference's state.
func TestChainDepthTwoMirrorsEveryHop(t *testing.T) {
	router, mgrs := newRouterWithShards(t, 4)
	router.Replicate = true
	router.ReplicaDepth = 2
	flat := merge.NewManager()

	const primary = "shard00"
	var workers []*loadWorker
	for _, sid := range sessionsHomedOn(t, router, primary, 3, "k2") {
		workers = append(workers, newLoadWorker(t, router, flat, sid))
	}
	// Round 0 seeds each chain from the primary's baseline; the rounds
	// after it reach the hops only through the mirror stream.
	const rounds, hops = 6, 2
	var seeded int64
	for r := 0; r < rounds; r++ {
		for _, w := range workers {
			w.publish(t, float64(r%10))
		}
		if r == 0 {
			router.drainMirrors()
			seeded = router.Mirrored()
		}
	}
	router.drainMirrors()
	if got, want := router.Mirrored()-seeded, int64(len(workers)*(rounds-1)*hops); got != want {
		t.Fatalf("%d mirrors accepted after the chains were seeded, want %d", got, want)
	}

	for _, w := range workers {
		chain := router.ReplicasOf(w.sid)
		if len(chain) != 2 || chain[0] == chain[1] || slices.Contains(chain, primary) {
			t.Fatalf("chain for %s = %v, want two distinct hops besides %s", w.sid, chain, primary)
		}
		want := exportOf(t, mgrs[primary], w.sid)
		for _, hop := range chain {
			if got := exportOf(t, mgrs[hop], w.sid); !reflect.DeepEqual(got, want) {
				t.Fatalf("session %s: hop %s exports\n%+v\nthe primary exports\n%+v", w.sid, hop, got, want)
			}
		}
		for _, l := range router.ReplicaLagChain(w.sid) {
			if l.Lag != 0 || l.Stale {
				t.Fatalf("session %s: drained hop %+v still lags", w.sid, l)
			}
		}
		if got, want := fullState(t, router, w.sid), fullState(t, flat, w.sid); !reflect.DeepEqual(got, want) {
			t.Fatalf("session %s diverged from the flat reference", w.sid)
		}
	}
}

// gatedMirrorBackend stalls every Mirror until the gate opens — a
// replica too slow for the mirror stream, forcing the bounded queue
// into backpressure.
type gatedMirrorBackend struct {
	Backend
	gate chan struct{}
}

func (b *gatedMirrorBackend) Mirror(args merge.MirrorArgs, reply *merge.MirrorReply) error {
	<-b.gate
	return b.Backend.Mirror(args, reply)
}

// TestMirrorBackpressureCountsAndRecovers: a stalled replica must not
// drop or reorder mirrors — the full queue blocks publishes instead,
// and the episode is observable: the backpressure counter moves and a
// fabric event lands in the ring. Once the replica drains, every
// accepted byte is on it.
func TestMirrorBackpressureCountsAndRecovers(t *testing.T) {
	router := NewRouter(0)
	router.Replicate = true
	gate := make(chan struct{})
	gated := &gatedMirrorBackend{Backend: merge.NewManager(), gate: gate}
	if err := router.AddShard("shard00", merge.NewManager()); err != nil {
		t.Fatal(err)
	}
	if err := router.AddShard("shard01", gated); err != nil {
		t.Fatal(err)
	}
	flat := merge.NewManager()
	sid := sessionsHomedOn(t, router, "shard00", 1, "bp")[0]
	w := newLoadWorker(t, router, flat, sid)

	before := obsMirrorBackpressure.Value()
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Queue depth + the job stalled in the worker + slack: enough to
		// wedge the publisher against the full queue.
		for i := 0; i < mirrorQueueDepth+16; i++ {
			w.publish(t, float64(i%10))
		}
	}()

	deadline := time.Now().Add(10 * time.Second)
	for obsMirrorBackpressure.Value() == before {
		if time.Now().After(deadline) {
			t.Fatal("mirror queue never reported backpressure")
		}
		time.Sleep(2 * time.Millisecond)
	}
	select {
	case <-done:
		t.Fatal("publisher finished while the mirror queue was wedged")
	default:
	}

	close(gate)
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("publisher still blocked after the replica drained")
	}
	router.drainMirrors()

	var found bool
	for _, e := range obs.Events.Since(0, 8192) {
		if e.Kind == obs.EventBackpressure && e.Session == sid {
			found = true
		}
	}
	if !found {
		t.Fatalf("no %q fabric event for session %s", obs.EventBackpressure, sid)
	}
	// Blocked, never lossy: the replica holds every accepted delta.
	var rep merge.PollReply
	if err := gated.Backend.Poll(merge.PollArgs{SessionID: sid, Full: true}, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Entries) == 0 {
		t.Fatal("replica holds no state after the queue drained")
	}
	got, want := fullState(t, router, sid), fullState(t, flat, sid)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("fabric state diverged from flat reference across backpressure")
	}
}
