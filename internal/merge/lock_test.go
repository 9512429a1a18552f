package merge

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ipa-grid/ipa/internal/aida"
)

// lockTestPublish drives `workers` delta-publishing transports for one
// session through `rounds` fills each, concurrently.
func lockTestPublish(t *testing.T, m Publisher, sid string, workers, rounds, objects int) *sync.WaitGroup {
	t.Helper()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			tree := aida.NewTree()
			hists := make([]*aida.Histogram1D, objects)
			for o := range hists {
				h, err := tree.H1D("/a", fmt.Sprintf("h%02d", o), "", 100, 0, 100)
				if err != nil {
					t.Error(err)
					return
				}
				hists[o] = h
			}
			tr := NewTransport(sid, fmt.Sprintf("w%02d", w), m)
			for r := 0; r < rounds; r++ {
				hists[r%objects].Fill(float64((w*31 + r) % 100))
				_, err := tr.Send(func(full bool) (Snapshot, error) {
					if full {
						d, err := tree.FullDelta()
						return Snapshot{Delta: d}, err
					}
					d, err := tree.Delta()
					return Snapshot{Delta: d}, err
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	return &wg
}

// lockTestReference rebuilds the deterministic final merged state: the
// merge is additive over each worker's final tree, independent of
// publish interleaving.
func lockTestReference(t *testing.T, sid string, workers, rounds, objects int) *Manager {
	t.Helper()
	ref := NewManager()
	for w := 0; w < workers; w++ {
		tree := aida.NewTree()
		hists := make([]*aida.Histogram1D, objects)
		for o := range hists {
			h, err := tree.H1D("/a", fmt.Sprintf("h%02d", o), "", 100, 0, 100)
			if err != nil {
				t.Fatal(err)
			}
			hists[o] = h
		}
		for r := 0; r < rounds; r++ {
			hists[r%objects].Fill(float64((w*31 + r) % 100))
		}
		d, err := tree.FullDelta()
		if err != nil {
			t.Fatal(err)
		}
		var rep PublishReply
		if err := ref.Publish(PublishArgs{
			SessionID: sid, WorkerID: fmt.Sprintf("w%02d", w), Seq: 1, Delta: d,
		}, &rep); err != nil {
			t.Fatal(err)
		}
	}
	return ref
}

// pollEntries decodes a full poll into path → histogram entry count.
func entryCounts(t *testing.T, m *Manager, sid string) map[string]int64 {
	t.Helper()
	var reply PollReply
	if err := m.Poll(PollArgs{SessionID: sid, Full: true}, &reply); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]int64, len(reply.Entries))
	for _, e := range reply.Entries {
		obj, err := e.Restore()
		if err != nil {
			t.Fatal(err)
		}
		out[e.Path] = obj.(*aida.Histogram1D).Entries()
	}
	return out
}

// TestConcurrentPublishPollEquivalence hammers one manager with
// concurrent multi-session publishers and pollers (run under -race) and
// asserts the reader invariants of the fine-grained locking model:
// poll versions are monotonic per client, a quiescent re-poll at the
// returned version reports nothing new (the lock-free fast path never
// serves a version ahead of visible state), and the final merged state
// equals a sequentially-built reference.
func TestConcurrentPublishPollEquivalence(t *testing.T) {
	// The subtest name records the locking mode under test: fine-grained
	// (not coarse), the only mode the manager has.
	t.Run("coarse=false", testConcurrentPublishPoll)
}

func testConcurrentPublishPoll(t *testing.T) {
	const sessions, workers, rounds, objects, pollers = 4, 3, 40, 6, 2
	m := NewManager()
	var pubWGs []*sync.WaitGroup
	for s := 0; s < sessions; s++ {
		pubWGs = append(pubWGs, lockTestPublish(t, m, fmt.Sprintf("sess-%d", s), workers, rounds, objects))
	}
	var done atomic.Bool
	var pollWG sync.WaitGroup
	for s := 0; s < sessions; s++ {
		sid := fmt.Sprintf("sess-%d", s)
		for p := 0; p < pollers; p++ {
			pollWG.Add(1)
			go func() {
				defer pollWG.Done()
				var since int64
				for !done.Load() {
					var reply PollReply
					if err := m.Poll(PollArgs{SessionID: sid, SinceVersion: since}, &reply); err != nil {
						t.Error(err)
						return
					}
					if reply.Version < since {
						t.Errorf("poll version regressed %d → %d", since, reply.Version)
						return
					}
					// Quiescent re-poll at the version just served:
					// the fast path must not report that version as
					// carrying anything new.
					var again PollReply
					if err := m.Poll(PollArgs{SessionID: sid, SinceVersion: reply.Version}, &again); err != nil {
						t.Error(err)
						return
					}
					if again.Version == reply.Version && again.Changed {
						t.Errorf("version %d served entries on a quiescent re-poll", reply.Version)
						return
					}
					since = reply.Version
				}
			}()
		}
	}
	for _, wg := range pubWGs {
		wg.Wait()
	}
	done.Store(true)
	pollWG.Wait()
	if t.Failed() {
		return
	}
	for s := 0; s < sessions; s++ {
		sid := fmt.Sprintf("sess-%d", s)
		ref := lockTestReference(t, sid, workers, rounds, objects)
		got, want := entryCounts(t, m, sid), entryCounts(t, ref, sid)
		if len(got) != len(want) {
			t.Fatalf("%s: %d merged paths, want %d", sid, len(got), len(want))
		}
		for path, n := range want {
			if got[path] != n {
				t.Fatalf("%s %s: %d entries, want %d", sid, path, got[path], n)
			}
		}
	}
	// Deterministically exercise the lock-free path now that the session
	// is quiescent: a poll at the current version must be answered by it.
	before := m.FastPolls("sess-0")
	cur := m.Version("sess-0")
	var reply PollReply
	if err := m.Poll(PollArgs{SessionID: "sess-0", SinceVersion: cur}, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Version != cur || reply.Changed {
		t.Fatalf("quiescent poll = %+v, want unchanged at %d", reply, cur)
	}
	if got := m.FastPolls("sess-0"); got != before+1 {
		t.Fatalf("fast polls %d → %d: quiescent poll missed the lock-free path", before, got)
	}
}

// TestReadPathsNeverBlockBehindWriteLock pins the satellite guarantee:
// Stats, Version, CacheStats, SessionList, and quiescent polls are
// served without the per-session write lock, so a long publish cannot
// delay a fault-detection probe.
func TestReadPathsNeverBlockBehindWriteLock(t *testing.T) {
	m := NewManager()
	tree := aida.NewTree()
	h, _ := tree.H1D("/a", "h", "", 10, 0, 10)
	h.Fill(1)
	d, err := tree.FullDelta()
	if err != nil {
		t.Fatal(err)
	}
	var rep PublishReply
	if err := m.Publish(PublishArgs{SessionID: "s", WorkerID: "w", Seq: 1, Delta: d}, &rep); err != nil {
		t.Fatal(err)
	}

	// Simulate a long publish: hold the session write lock while the
	// read surface is probed.
	s := m.lookup("s")
	s.mu.Lock()
	defer s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		var sr StatsReply
		if err := m.Stats(StatsArgs{SessionID: "s"}, &sr); err != nil || !sr.Found {
			t.Errorf("stats under write lock: %+v err=%v", sr, err)
		}
		if sr.Version != rep.Version || sr.Workers != 1 {
			t.Errorf("stats = %+v, want version %d workers 1", sr, rep.Version)
		}
		if v := m.Version("s"); v != rep.Version {
			t.Errorf("Version = %d, want %d", v, rep.Version)
		}
		m.CacheStats("s")
		var sl SessionsReply
		if err := m.SessionList(SessionsArgs{}, &sl); err != nil || len(sl.SessionIDs) != 1 {
			t.Errorf("session list under write lock = %+v err=%v", sl, err)
		}
		// Quiescent poll: the lock-free fast path.
		var pr PollReply
		if err := m.Poll(PollArgs{SessionID: "s", SinceVersion: rep.Version}, &pr); err != nil {
			t.Error(err)
		}
		if pr.Version != rep.Version || pr.Changed {
			t.Errorf("fast-path poll = %+v", pr)
		}
		if len(pr.Progress) != 1 || pr.Progress[0].WorkerID != "w" {
			t.Errorf("fast-path poll progress = %+v", pr.Progress)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("read path blocked behind the session write lock")
	}
	if m.FastPolls("s") != 1 {
		t.Fatalf("fast polls = %d, want 1", m.FastPolls("s"))
	}
}
