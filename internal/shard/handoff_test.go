package shard

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"github.com/ipa-grid/ipa/internal/aida"
	"github.com/ipa-grid/ipa/internal/merge"
)

// sessionsHomedOn generates session IDs until n of them ring-home on
// the named shard.
func sessionsHomedOn(t *testing.T, r *Router, shard string, n int, prefix string) []string {
	t.Helper()
	var out []string
	for i := 0; len(out) < n; i++ {
		if i > 100000 {
			t.Fatalf("could not find %d sessions homed on %s", n, shard)
		}
		sid := fmt.Sprintf("%s-%d", prefix, i)
		if r.Placement(sid) == shard {
			out = append(out, sid)
		}
	}
	return out
}

// loadWorker couples a delta-publishing transport with a flat-reference
// twin so fills can be verified bit-for-bit after moves.
type loadWorker struct {
	sid    string
	tree   *aida.Tree
	hist   *aida.Histogram1D
	tr     *merge.Transport
	ref    *aida.Tree
	refH   *aida.Histogram1D
	refTr  *merge.Transport
	fills  int
	router *Router
}

func newLoadWorker(t *testing.T, router *Router, flat *merge.Manager, sid string) *loadWorker {
	t.Helper()
	w := &loadWorker{sid: sid, tree: aida.NewTree(), ref: aida.NewTree(), router: router}
	var err error
	if w.hist, err = w.tree.H1D("/h", "x", "", 10, 0, 10); err != nil {
		t.Fatal(err)
	}
	if w.refH, err = w.ref.H1D("/h", "x", "", 10, 0, 10); err != nil {
		t.Fatal(err)
	}
	w.tr = merge.NewTransport(sid, "w0", router)
	w.refTr = merge.NewTransport(sid, "w0", flat)
	return w
}

func sendVia(tr *merge.Transport, tree *aida.Tree) error {
	_, err := tr.Send(func(full bool) (merge.Snapshot, error) {
		var d *aida.DeltaState
		var err error
		if full {
			d, err = tree.FullDelta()
		} else {
			d, err = tree.Delta()
		}
		return merge.Snapshot{Delta: d}, err
	})
	return err
}

// publish fills once and publishes to both the fabric and the flat
// reference. Fabric errors are tolerated (a killed shard mid-test);
// the transport re-baselines on the next send, so nothing is lost.
// goroutine-safe (t.Error, never t.Fatal).
func (w *loadWorker) publish(t *testing.T, x float64) {
	t.Helper()
	w.hist.Fill(x)
	w.refH.Fill(x)
	w.fills++
	_ = sendVia(w.tr, w.tree)
	if err := sendVia(w.refTr, w.ref); err != nil {
		t.Error(err)
	}
}

func (w *loadWorker) poll(t *testing.T) {
	t.Helper()
	var reply merge.PollReply
	if err := w.router.Poll(merge.PollArgs{SessionID: w.sid}, &reply); err != nil {
		t.Error(err)
	}
}

// TestMoveSessionNoLostFillsUnderChurn moves every session round-robin
// across the shards while its publisher keeps publishing and polling
// (run under -race): every fill must survive the mid-flight handoffs
// exactly once.
func TestMoveSessionNoLostFillsUnderChurn(t *testing.T) {
	router, _ := newRouterWithShards(t, 3)
	flat := merge.NewManager()
	const rounds = 60
	shards := router.Table().Shards()

	sids := sessionsHomedOn(t, router, "shard00", 3, "churn-hot")
	sids = append(sids, "churn-a", "churn-b", "churn-c")
	workers := make([]*loadWorker, len(sids))
	for i, sid := range sids {
		workers[i] = newLoadWorker(t, router, flat, sid)
		workers[i].publish(t, 0) // record a placement for MoveSession
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					if i >= rounds {
						return
					}
				default:
				}
				w.publish(t, float64(i%10))
				w.poll(t)
			}
		}()
	}
	// Two laps of the ring per session, each move to the shard after
	// the session's current one; the publishers run until the last move.
	for step := 0; step < 2*len(shards); step++ {
		for _, sid := range sids {
			next := (slices.Index(shards, router.Placement(sid)) + 1) % len(shards)
			if err := router.MoveSession(sid, shards[next]); err != nil {
				t.Error(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	// A publish that raced a handoff's seal drew NeedFull; the next one
	// is a full baseline, as an engine's final snapshot is.
	for _, w := range workers {
		w.publish(t, 9)
	}
	for _, sid := range sids {
		got, want := fullState(t, router, sid), fullState(t, flat, sid)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("session %s diverged under MoveSession churn", sid)
		}
	}
}

// ------------------------------------------------- placement hygiene

// TestPlacementInfoNeverReportsDepartedShard is the regression test for
// the stale-addrs fix: a removed shard's endpoint must vanish with it,
// and a dropped session's placement must fall back to ring position.
func TestPlacementInfoNeverReportsDepartedShard(t *testing.T) {
	router, _ := newRouterWithShards(t, 2)
	router.SetShardAddr("shard00", "10.0.0.1:7000")
	router.SetShardAddr("shard01", "10.0.0.2:7000")

	w := &testWorker{session: "sess-x", id: "w0", tree: aida.NewTree()}
	w.tree.H1D("/h", "x", "", 10, 0, 10)
	w.publish(t, router, true)
	home, _ := router.PlacementInfo("sess-x")
	other := "shard00"
	if home == "shard00" {
		other = "shard01"
	}

	if err := router.RemoveShard(home); err != nil {
		t.Fatal(err)
	}
	if shard, addr := router.PlacementInfo("sess-x"); shard != other {
		t.Fatalf("placement after removal = %q, want %q", shard, other)
	} else if want := map[string]string{"shard00": "10.0.0.1:7000", "shard01": "10.0.0.2:7000"}[other]; addr != want {
		t.Fatalf("addr after removal = %q, want %q", addr, want)
	}
	// Re-adding the departed shard must not resurrect its old endpoint.
	if err := router.AddShard(home, merge.NewManager()); err != nil {
		t.Fatal(err)
	}
	for _, sid := range append(sessionsHomedOn(t, router, home, 1, "probe"), "sess-x") {
		if shard, addr := router.PlacementInfo(sid); shard == home && addr != "" {
			t.Fatalf("re-added shard %s reports stale addr %q", home, addr)
		}
	}
	// Drop forgets the placement: info falls back to ring position.
	router.Drop("sess-x")
	if got := router.Sessions(); len(got) != 0 {
		t.Fatalf("sessions after drop = %v", got)
	}
	if shard, _ := router.PlacementInfo("sess-x"); shard != router.Placement("sess-x") {
		t.Fatalf("dropped session info %q != ring placement %q", shard, router.Placement("sess-x"))
	}
}

// TestMoveSessionPinnedSurvivesRingEdit: a MoveSession is deliberate —
// a later topology change must not silently undo it, but losing the
// pinned shard must re-home the session.
func TestMoveSessionPinnedSurvivesRingEdit(t *testing.T) {
	router, _ := newRouterWithShards(t, 2)
	flat := merge.NewManager()
	w := newLoadWorker(t, router, flat, "sess-pin")
	w.publish(t, 1)
	from := router.Placement("sess-pin")
	to := "shard00"
	if from == "shard00" {
		to = "shard01"
	}
	if err := router.MoveSession("sess-pin", to); err != nil {
		t.Fatal(err)
	}
	if got := router.Placement("sess-pin"); got != to {
		t.Fatalf("placement after move = %q, want %q", got, to)
	}
	// Ring edits leave the pinned placement alone.
	if err := router.AddShard("extra", merge.NewManager()); err != nil {
		t.Fatal(err)
	}
	if got := router.Placement("sess-pin"); got != to {
		t.Fatalf("ring edit moved pinned session to %q", got)
	}
	w.publish(t, 2)
	// Removing the pinned shard re-homes (and unpins) the session.
	if err := router.RemoveShard(to); err != nil {
		t.Fatal(err)
	}
	if got := router.Placement("sess-pin"); got == to || got == "" {
		t.Fatalf("placement after pinned-shard removal = %q", got)
	}
	w.publish(t, 3)
	got, want := fullState(t, router, "sess-pin"), fullState(t, flat, "sess-pin")
	if !reflect.DeepEqual(got, want) {
		t.Fatal("pinned session diverged across ring edits")
	}
}
