package merge

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/ipa-grid/ipa/internal/aida"
)

// simWorker models one engine publishing deltas to the manager under
// test while keeping, for the reference, a copy of its tree as of each
// publish.
type simWorker struct {
	id       string
	tree     *aida.Tree
	seq      int64
	needFull bool
	// replay holds a previously sent delta for out-of-order retries.
	replay *PublishArgs
	// published is the worker's tree as of its last publish.
	published *aida.Tree
}

func (w *simWorker) publish(t *testing.T, delta *Manager) {
	t.Helper()
	w.seq++
	var d *aida.DeltaState
	var err error
	if w.needFull {
		d, err = w.tree.FullDelta()
	} else {
		d, err = w.tree.Delta()
	}
	if err != nil {
		t.Fatal(err)
	}
	args := PublishArgs{SessionID: "s", WorkerID: w.id, Seq: w.seq, Delta: d}
	var rep PublishReply
	if err := delta.Publish(args, &rep); err != nil {
		t.Fatal(err)
	}
	w.needFull = rep.NeedFull
	if rep.Accepted {
		w.replay = &args
	}
	if w.published, err = w.tree.Clone(); err != nil {
		t.Fatal(err)
	}
}

// referenceEntries merges every worker's last-published tree with
// aida.Tree.MergeFrom in sorted worker-ID order — the order the manager
// merges in — and returns each merged object's state bytes by path.
func referenceEntries(t *testing.T, workers []*simWorker) map[string][]byte {
	t.Helper()
	sorted := append([]*simWorker(nil), workers...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].id < sorted[j].id })
	ref := aida.NewTree()
	for _, w := range sorted {
		if w.published == nil {
			continue
		}
		if err := ref.MergeFrom(w.published); err != nil {
			t.Fatal(err)
		}
	}
	out := make(map[string][]byte)
	ref.Walk(func(path string, obj aida.Object) {
		st, err := aida.StateOf(obj)
		if err != nil {
			t.Fatal(err)
		}
		out[path] = stateBytes(t, st)
	})
	return out
}

func stateBytes(t *testing.T, st aida.ObjectState) []byte {
	t.Helper()
	b, err := aida.AppendObjectState(nil, &st)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// sameAsReference fails unless the manager's full poll holds exactly
// the reference's paths, each bit for bit.
func sameAsReference(t *testing.T, m *Manager, workers []*simWorker, when string) {
	t.Helper()
	got, want := pollEntries(t, m), referenceEntries(t, workers)
	if len(got) != len(want) {
		t.Fatalf("%s: merged paths %v, reference has %d", when, keys(got), len(want))
	}
	for path, wb := range want {
		st, ok := got[path]
		if !ok {
			t.Fatalf("%s: merged state lacks %s (has %v)", when, path, keys(got))
		}
		if !bytes.Equal(stateBytes(t, st), wb) {
			t.Fatalf("%s: %s differs from the reference merge", when, path)
		}
	}
}

// pollEntries returns the full merged state keyed by path.
func pollEntries(t *testing.T, m *Manager) map[string]aida.ObjectState {
	t.Helper()
	var reply PollReply
	if err := m.Poll(PollArgs{SessionID: "s", Full: true}, &reply); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]aida.ObjectState, len(reply.Entries))
	for _, e := range reply.Entries {
		st, err := e.State()
		if err != nil {
			t.Fatal(err)
		}
		out[e.Path] = st
	}
	return out
}

// TestDeltaMergeMatchesFullRemerge drives randomized publish / rewind /
// out-of-order sequences through a delta-fed manager, asserting its
// merged state stays bit-for-bit identical to a full re-merge of every
// worker's published tree throughout.
func TestDeltaMergeMatchesFullRemerge(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			deltaMgr := NewManager()
			workers := make([]*simWorker, 3)
			for i := range workers {
				workers[i] = &simWorker{id: fmt.Sprintf("w%d", i), tree: aida.NewTree()}
			}
			paths := []string{"/h/mass", "/h/pt", "/a/b/mult", "/prof/t"}
			fill := func(w *simWorker) {
				path := paths[rng.Intn(len(paths))]
				obj := w.tree.Get(path)
				if obj == nil {
					var err error
					if path == "/prof/t" {
						_, err = w.tree.P1D("/prof", "t", "", 10, 0, 10)
					} else {
						h := aida.NewHistogram1D(leafName(path), "", 12, -1, 11)
						err = w.tree.PutAt(path, h)
					}
					if err != nil {
						t.Fatal(err)
					}
					obj = w.tree.Get(path)
				}
				switch o := obj.(type) {
				case *aida.Histogram1D:
					for n := rng.Intn(20); n >= 0; n-- {
						o.FillW(rng.Float64()*12-1, 1)
					}
				case *aida.Profile1D:
					for n := rng.Intn(20); n >= 0; n-- {
						o.Fill(rng.Float64()*10, rng.NormFloat64())
					}
				}
			}
			for step := 0; step < 200; step++ {
				w := workers[rng.Intn(len(workers))]
				switch op := rng.Intn(10); {
				case op < 6: // fill + publish
					fill(w)
					w.publish(t, deltaMgr)
				case op < 8: // fill without publishing (accumulate)
					fill(w)
				case op == 8: // rewind: fresh tree, full baseline next
					w.tree = aida.NewTree()
					fill(w)
					w.publish(t, deltaMgr)
				default: // out-of-order retry of an already-applied publish
					if w.replay != nil {
						var rep PublishReply
						if err := deltaMgr.Publish(*w.replay, &rep); err != nil {
							t.Fatal(err)
						}
						if rep.Accepted {
							t.Fatalf("step %d: stale seq %d re-accepted", step, w.replay.Seq)
						}
						if rep.NeedFull {
							w.needFull = true
						}
					}
				}
				if step%20 == 19 {
					sameAsReference(t, deltaMgr, workers, fmt.Sprintf("step %d", step))
				}
			}
			sameAsReference(t, deltaMgr, workers, "final state")
		})
	}
}

func keys(m map[string]aida.ObjectState) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestRewindRemovedPathsSurfaceInPoll is the regression test for delta
// baselines dropping paths: after a rewind publishes a baseline without a
// previously present object, polls must report the path in Removed.
func TestRewindRemovedPathsSurfaceInPoll(t *testing.T) {
	m := NewManager()
	tree := aida.NewTree()
	h, _ := tree.H1D("/old", "h", "", 10, 0, 10)
	h.Fill(1)
	keep, _ := tree.H1D("/keep", "k", "", 10, 0, 10)
	keep.Fill(2)
	d, err := tree.Delta()
	if err != nil {
		t.Fatal(err)
	}
	var rep PublishReply
	if err := m.Publish(PublishArgs{SessionID: "s", WorkerID: "w", Seq: 1, Delta: d}, &rep); err != nil {
		t.Fatal(err)
	}
	var before PollReply
	if err := m.Poll(PollArgs{SessionID: "s"}, &before); err != nil {
		t.Fatal(err)
	}
	if len(before.Entries) != 2 {
		t.Fatalf("entries before rewind = %d", len(before.Entries))
	}
	// Rewind: fresh tree without /old/h, published as a new baseline.
	tree2 := aida.NewTree()
	keep2, _ := tree2.H1D("/keep", "k", "", 10, 0, 10)
	keep2.Fill(9)
	d2, err := tree2.FullDelta()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Publish(PublishArgs{SessionID: "s", WorkerID: "w", Seq: 2, Delta: d2}, &rep); err != nil {
		t.Fatal(err)
	}
	var after PollReply
	if err := m.Poll(PollArgs{SessionID: "s", SinceVersion: before.Version}, &after); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range after.Removed {
		if p == "/old/h" {
			found = true
		}
	}
	if !found {
		t.Fatalf("rewind-removed path not reported: %+v", after.Removed)
	}
	if len(after.Entries) != 1 || after.Entries[0].Path != "/keep/k" {
		t.Fatalf("incremental entries after rewind = %+v", after.Entries)
	}
}

// TestIncrementalDeltaRemovals covers Rm propagating through non-full
// deltas.
func TestIncrementalDeltaRemovals(t *testing.T) {
	m := NewManager()
	tree := aida.NewTree()
	tree.H1D("/a", "h1", "", 10, 0, 10)
	tree.H1D("/a", "h2", "", 10, 0, 10)
	d, _ := tree.Delta()
	var rep PublishReply
	if err := m.Publish(PublishArgs{SessionID: "s", WorkerID: "w", Seq: 1, Delta: d}, &rep); err != nil {
		t.Fatal(err)
	}
	var v1 PollReply
	m.Poll(PollArgs{SessionID: "s"}, &v1)
	tree.Rm("/a/h1")
	d2, _ := tree.Delta()
	if err := m.Publish(PublishArgs{SessionID: "s", WorkerID: "w", Seq: 2, Delta: d2}, &rep); err != nil {
		t.Fatal(err)
	}
	var v2 PollReply
	m.Poll(PollArgs{SessionID: "s", SinceVersion: v1.Version}, &v2)
	if len(v2.Removed) != 1 || v2.Removed[0] != "/a/h1" {
		t.Fatalf("removed = %v", v2.Removed)
	}
}

// TestDeltaSequenceGapForcesResync: a manager that missed a delta must
// refuse the next one and request a full baseline.
func TestDeltaSequenceGapForcesResync(t *testing.T) {
	m := NewManager()
	tree := aida.NewTree()
	h, _ := tree.H1D("/a", "h", "", 10, 0, 10)
	h.Fill(1)
	d1, _ := tree.Delta()
	var rep PublishReply
	m.Publish(PublishArgs{SessionID: "s", WorkerID: "w", Seq: 1, Delta: d1}, &rep)
	// Seq 2 is "lost": the manager sees seq 3.
	h.Fill(2)
	dLost, _ := tree.Delta()
	_ = dLost
	h.Fill(3)
	d3, _ := tree.Delta()
	if err := m.Publish(PublishArgs{SessionID: "s", WorkerID: "w", Seq: 3, Delta: d3}, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Accepted || !rep.NeedFull {
		t.Fatalf("gap accepted: %+v", rep)
	}
	// The worker answers with a baseline carrying everything.
	full, _ := tree.FullDelta()
	if err := m.Publish(PublishArgs{SessionID: "s", WorkerID: "w", Seq: 4, Delta: full}, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Accepted {
		t.Fatalf("baseline rejected: %+v", rep)
	}
	var poll PollReply
	m.Poll(PollArgs{SessionID: "s"}, &poll)
	obj, _ := poll.Entries[0].Restore()
	if got := obj.(*aida.Histogram1D).Entries(); got != 3 {
		t.Fatalf("entries after resync = %d, want 3", got)
	}
}

// TestDuplicateDeltaRetryDropsCheaply: a retry of the delta just applied
// (Seq == w.seq) is already incorporated and must be dropped without
// forcing a full re-baseline.
func TestDuplicateDeltaRetryDropsCheaply(t *testing.T) {
	m := NewManager()
	tree := aida.NewTree()
	h, _ := tree.H1D("/a", "h", "", 10, 0, 10)
	h.Fill(1)
	d1, _ := tree.Delta()
	var rep PublishReply
	m.Publish(PublishArgs{SessionID: "s", WorkerID: "w", Seq: 1, Delta: d1}, &rep)
	h.Fill(2)
	d2, _ := tree.Delta()
	args2 := PublishArgs{SessionID: "s", WorkerID: "w", Seq: 2, Delta: d2}
	m.Publish(args2, &rep)
	// RMI retry delivers seq 2 again.
	if err := m.Publish(args2, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Accepted || rep.NeedFull {
		t.Fatalf("duplicate retry reply = %+v, want cheap drop", rep)
	}
	var poll PollReply
	m.Poll(PollArgs{SessionID: "s"}, &poll)
	obj, _ := poll.Entries[0].Restore()
	if got := obj.(*aida.Histogram1D).Entries(); got != 2 {
		t.Fatalf("entries after duplicate = %d, want 2 (no double apply)", got)
	}
}

// TestUnknownSessionReadsAllocateNothing: polls and resets for sessions
// that never published must not create manager state.
func TestUnknownSessionReadsAllocateNothing(t *testing.T) {
	m := NewManager()
	var poll PollReply
	for i := 0; i < 100; i++ {
		if err := m.Poll(PollArgs{SessionID: fmt.Sprintf("ghost-%d", i)}, &poll); err != nil {
			t.Fatal(err)
		}
	}
	if poll.Version != 0 || poll.Changed {
		t.Fatalf("ghost poll = %+v", poll)
	}
	var rr ResetReply
	if err := m.Reset(ResetArgs{SessionID: "ghost"}, &rr); err != nil {
		t.Fatal(err)
	}
	tree, ver, err := m.MergedTree("ghost")
	if err != nil || ver != 0 || tree.Size() != 0 {
		t.Fatalf("ghost merged tree = %v %d %v", tree, ver, err)
	}
	n := 0
	m.sessions.Range(func(_, _ any) bool { n++; return true })
	if n != 0 {
		t.Fatalf("read-only RPCs created %d sessions", n)
	}
}
