package merge

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/ipa-grid/ipa/internal/aida"
)

// capturePublisher records every upstream publish for inspection.
type capturePublisher struct {
	inner Publisher
	args  []PublishArgs
}

func (c *capturePublisher) Publish(args PublishArgs, reply *PublishReply) error {
	c.args = append(c.args, args)
	if c.inner != nil {
		return c.inner.Publish(args, reply)
	}
	reply.Accepted = true
	return nil
}

// flakyPublisher fails the next `failures` publishes, then delegates.
type flakyPublisher struct {
	inner    Publisher
	failures int
}

func (f *flakyPublisher) Publish(args PublishArgs, reply *PublishReply) error {
	if f.failures > 0 {
		f.failures--
		return errors.New("injected transport failure")
	}
	return f.inner.Publish(args, reply)
}

// TestSubMergerForwardsTouchedOnlyDeltas is the direct check on the
// delta-forwarding contract: after the baseline, a flush carries only
// the paths the group touched since the previous flush.
func TestSubMergerForwardsTouchedOnlyDeltas(t *testing.T) {
	root := NewManager()
	cap := &capturePublisher{inner: root}
	sub := NewSubMerger("g", "s", cap, 1)

	tree := aida.NewTree()
	h1, _ := tree.H1D("/a", "h1", "", 10, 0, 10)
	h2, _ := tree.H1D("/a", "h2", "", 10, 0, 10)
	h1.Fill(1)
	h2.Fill(2)
	pub := func(seq int64) {
		t.Helper()
		d, err := tree.Delta()
		if err != nil {
			t.Fatal(err)
		}
		var rep PublishReply
		if err := sub.Publish(PublishArgs{SessionID: "s", WorkerID: "w", Seq: seq, Delta: d}, &rep); err != nil {
			t.Fatal(err)
		}
	}
	pub(1)
	if n := len(cap.args); n != 1 {
		t.Fatalf("flushes after baseline = %d", n)
	}
	if d := cap.args[0].Delta; d == nil || !d.Full || len(d.Entries) != 2 {
		t.Fatalf("baseline flush = %+v", cap.args[0].Delta)
	}

	// Touch only h1: the next flush must forward exactly that path.
	h1.Fill(3)
	pub(2)
	d := cap.args[1].Delta
	if d == nil || d.Full {
		t.Fatalf("second flush not an incremental delta: %+v", d)
	}
	if len(d.Entries) != 1 || d.Entries[0].Path != "/a/h1" || len(d.Removed) != 0 {
		t.Fatalf("touched-only delta = entries %+v removed %v", d.Entries, d.Removed)
	}

	// Remove h2: the flush must carry the removal, not a full tree.
	tree.Rm("/a/h2")
	pub(3)
	d = cap.args[2].Delta
	if d.Full || len(d.Entries) != 0 || !reflect.DeepEqual(d.Removed, []string{"/a/h2"}) {
		t.Fatalf("removal delta = %+v", d)
	}
}

// TestSubMergerForwardsLogsOnce: log lines collected from the group ride
// each flush exactly once instead of being dropped at the tier.
func TestSubMergerForwardsLogsOnce(t *testing.T) {
	root := NewManager()
	sub := NewSubMerger("g", "s", root, 1)
	tree := aida.NewTree()
	h, _ := tree.H1D("/a", "h", "", 10, 0, 10)
	h.Fill(1)
	d, _ := tree.Delta()
	var rep PublishReply
	if err := sub.Publish(PublishArgs{SessionID: "s", WorkerID: "w", Seq: 1, Delta: d, Log: "found peak"}, &rep); err != nil {
		t.Fatal(err)
	}
	var p1 PollReply
	root.Poll(PollArgs{SessionID: "s"}, &p1)
	if len(p1.Logs) != 1 || !strings.Contains(p1.Logs[0], "found peak") {
		t.Fatalf("logs at root = %v", p1.Logs)
	}
	h.Fill(2)
	d, _ = tree.Delta()
	if err := sub.Publish(PublishArgs{SessionID: "s", WorkerID: "w", Seq: 2, Delta: d}, &rep); err != nil {
		t.Fatal(err)
	}
	var p2 PollReply
	root.Poll(PollArgs{SessionID: "s", SinceVersion: p1.Version}, &p2)
	if len(p2.Logs) != 0 {
		t.Fatalf("log delivered twice upstream: %v", p2.Logs)
	}
}

// TestTransportResyncsAfterFailure: a failed send consumes the delta's
// dirty bits, so the next send must be a full baseline.
func TestTransportResyncsAfterFailure(t *testing.T) {
	root := NewManager()
	flaky := &flakyPublisher{inner: root}
	tr := NewTransport("s", "w", flaky)
	send := func(d *aida.DeltaState) (PublishReply, error) {
		return tr.Send(func(full bool) (Snapshot, error) {
			if full != d.Full {
				t.Fatalf("transport asked full=%v, builder made full=%v", full, d.Full)
			}
			return Snapshot{Delta: d}, nil
		})
	}
	tree := aida.NewTree()
	h, _ := tree.H1D("/a", "h", "", 10, 0, 10)
	h.Fill(1)
	d, _ := tree.Delta()
	if _, err := send(d); err != nil {
		t.Fatal(err)
	}
	// This delta is lost in transit.
	h.Fill(2)
	flaky.failures = 1
	d, _ = tree.Delta()
	if _, err := send(d); err == nil {
		t.Fatal("injected failure not reported")
	}
	// The transport must now demand a baseline; honoring it recovers the
	// lost fill.
	h.Fill(3)
	full, _ := tree.FullDelta()
	rep, err := send(full)
	if err != nil || !rep.Accepted {
		t.Fatalf("baseline after failure: %v %+v", err, rep)
	}
	var poll PollReply
	root.Poll(PollArgs{SessionID: "s"}, &poll)
	obj, _ := poll.Entries[0].Restore()
	if got := obj.(*aida.Histogram1D).Entries(); got != 3 {
		t.Fatalf("entries after resync = %d, want 3", got)
	}
}

// hierWorker drives one simulated engine publishing dyadic-rational
// fills (exact under float addition in any order, so flat and
// hierarchical merges must agree bit-for-bit).
type hierWorker struct {
	id   string
	tree *aida.Tree
	seq  int64
}

func (w *hierWorker) publish(t *testing.T, to Publisher, full bool) {
	t.Helper()
	var d *aida.DeltaState
	var err error
	if full {
		d, err = w.tree.FullDelta()
	} else {
		d, err = w.tree.Delta()
	}
	if err != nil {
		t.Fatal(err)
	}
	w.seq++
	var rep PublishReply
	err = to.Publish(PublishArgs{SessionID: "s", WorkerID: w.id, Seq: w.seq, Delta: d}, &rep)
	if err != nil && !strings.Contains(err.Error(), "injected") {
		t.Fatal(err)
	}
	if rep.NeedFull {
		// Feed the baseline immediately, like the engine transport does.
		w.publish(t, to, true)
	}
}

// TestHierarchyDeltaMatchesFlatMerge is the hierarchy-equivalence
// property test: a 2-level delta-forwarding SubMerger tree must
// converge to the same merged state as a flat single-manager merge
// under randomized fills, removals, rewinds, and injected upstream
// failures that force mid-stream NeedFull resyncs.
func TestHierarchyDeltaMatchesFlatMerge(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			flat := NewManager()
			root := NewManager()
			flaky := &flakyPublisher{inner: root}
			groups := []*SubMerger{
				NewSubMerger("g0", "s", flaky, 1),
				NewSubMerger("g1", "s", flaky, 1),
			}
			workers := make([]*hierWorker, 4)
			// Workers publish twice: to the flat reference manager and
			// into their group's SubMerger. Two trees per worker keep the
			// dirty-bit streams independent.
			flatTwins := make([]*hierWorker, 4)
			for i := range workers {
				workers[i] = &hierWorker{id: fmt.Sprintf("w%d", i), tree: aida.NewTree()}
				flatTwins[i] = &hierWorker{id: fmt.Sprintf("w%d", i), tree: aida.NewTree()}
			}
			paths := []string{"/h/mass", "/h/pt", "/a/b/mult"}
			fill := func(i int) {
				path := paths[rng.Intn(len(paths))]
				// Dyadic-rational positions and weights: sums are exact,
				// so merge order cannot perturb low bits.
				x := float64(rng.Intn(48))/4 - 1
				n := rng.Intn(12) + 1
				for _, w := range []*hierWorker{workers[i], flatTwins[i]} {
					obj := w.tree.Get(path)
					if obj == nil {
						h := aida.NewHistogram1D(leafName(path), "", 12, -1, 11)
						if err := w.tree.PutAt(path, h); err != nil {
							t.Fatal(err)
						}
						obj = h
					}
					for k := 0; k < n; k++ {
						obj.(*aida.Histogram1D).FillW(x, 0.5)
					}
				}
			}
			rm := func(i int) {
				path := paths[rng.Intn(len(paths))]
				workers[i].tree.Rm(path)
				flatTwins[i].tree.Rm(path)
			}
			pub := func(i int) {
				workers[i].publish(t, groups[i/2], false)
				flatTwins[i].publish(t, flat, false)
			}
			for step := 0; step < 160; step++ {
				i := rng.Intn(len(workers))
				switch op := rng.Intn(12); {
				case op < 7:
					fill(i)
					pub(i)
				case op < 9: // accumulate without publishing
					fill(i)
				case op == 9: // removal
					rm(i)
					pub(i)
				case op == 10: // rewind: fresh tree, baseline next publish
					workers[i].tree = aida.NewTree()
					flatTwins[i].tree = aida.NewTree()
					fill(i)
					pub(i)
				default: // drop the next upstream flush → NeedFull resync
					flaky.failures = 1
					fill(i)
					pub(i)
				}
				if step%20 == 19 {
					for _, g := range groups {
						if err := g.Flush(); err != nil && !strings.Contains(err.Error(), "injected") {
							t.Fatal(err)
						}
					}
					got, want := pollEntries(t, root), pollEntries(t, flat)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d: hierarchy diverged from flat merge\n got: %v\nwant: %v",
							step, keys(got), keys(want))
					}
				}
			}
			flaky.failures = 0
			for _, g := range groups {
				if err := g.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			got, want := pollEntries(t, root), pollEntries(t, flat)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("final hierarchy state diverged:\n got %v\nwant %v", keys(got), keys(want))
			}
		})
	}
}

// TestPollEncodeCache verifies the encoded-frame cache: identical polls
// share one encode, delta applies invalidate exactly the touched paths,
// and the ablation switch disables reuse.
func TestPollEncodeCache(t *testing.T) {
	m := NewManager()
	tree := aida.NewTree()
	h1, _ := tree.H1D("/a", "h1", "", 10, 0, 10)
	h2, _ := tree.H1D("/a", "h2", "", 10, 0, 10)
	h1.Fill(1)
	h2.Fill(2)
	d, _ := tree.Delta()
	var rep PublishReply
	if err := m.Publish(PublishArgs{SessionID: "s", WorkerID: "w", Seq: 1, Delta: d}, &rep); err != nil {
		t.Fatal(err)
	}
	poll := func() PollReply {
		t.Helper()
		var reply PollReply
		if err := m.Poll(PollArgs{SessionID: "s", Full: true}, &reply); err != nil {
			t.Fatal(err)
		}
		return reply
	}
	first := poll()
	if hits, misses := m.CacheStats("s"); hits != 0 || misses != 2 {
		t.Fatalf("after cold poll: hits=%d misses=%d", hits, misses)
	}
	second := poll()
	if hits, misses := m.CacheStats("s"); hits != 2 || misses != 2 {
		t.Fatalf("after warm poll: hits=%d misses=%d", hits, misses)
	}
	// Served frames must be byte-identical across hit and miss.
	if !reflect.DeepEqual(first.Entries, second.Entries) {
		t.Fatal("cached entries differ from freshly encoded ones")
	}
	// A delta touching h1 invalidates only h1's frame.
	h1.Fill(5)
	d, _ = tree.Delta()
	if err := m.Publish(PublishArgs{SessionID: "s", WorkerID: "w", Seq: 2, Delta: d}, &rep); err != nil {
		t.Fatal(err)
	}
	third := poll()
	if hits, misses := m.CacheStats("s"); hits != 3 || misses != 3 {
		t.Fatalf("after invalidating poll: hits=%d misses=%d", hits, misses)
	}
	for _, e := range third.Entries {
		obj, err := e.Restore()
		if err != nil {
			t.Fatal(err)
		}
		want := int64(1)
		if e.Path == "/a/h1" {
			want = 2
		}
		if got := obj.(*aida.Histogram1D).Entries(); got != want {
			t.Fatalf("%s entries = %d, want %d", e.Path, got, want)
		}
	}
	// Removal drops the cached frame.
	tree.Rm("/a/h2")
	d, _ = tree.Delta()
	if err := m.Publish(PublishArgs{SessionID: "s", WorkerID: "w", Seq: 3, Delta: d}, &rep); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.lookup("s").frames.Load("/a/h2"); ok {
		t.Fatal("removed path still cached")
	}
}
