package merge

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/ipa-grid/ipa/internal/aida"
)

// follower keeps a copy of one source session as a relay does: it polls
// the source from its Cursor, drops its copy when the cursor judges a
// reply rebuilt, and installs every other reply that brings something
// new.
type follower struct {
	t        *testing.T
	src, dst *Manager
	cur      Cursor
	rebuilt  int
}

func (f *follower) sync() {
	f.t.Helper()
	var pr PollReply
	if err := f.src.Poll(f.cur.Args(false, 0), &pr); err != nil {
		f.t.Fatal(err)
	}
	switch v := f.cur.Verdict(&pr); {
	case v == Rebuilt:
		f.rebuilt++
		f.dst.Drop(f.cur.Session)
		f.cur.Reset()
		f.sync()
	case v == Unknown || f.cur.Unchanged(&pr):
	default:
		f.dst.Install(f.cur.Session, &pr)
		f.cur.Take(&pr)
	}
}

// samePoll reports how a follower's reply differs from its source's: the
// same entries in the same order with byte-identical frames, the same
// removals and progress, and the same log text once each reply's lines
// are joined.
func samePoll(src, dst *PollReply) error {
	if len(src.Entries) != len(dst.Entries) {
		return fmt.Errorf("%d entries, source %d", len(dst.Entries), len(src.Entries))
	}
	for i, e := range src.Entries {
		if d := dst.Entries[i]; d.Path != e.Path || !bytes.Equal(d.Frame, e.Frame) {
			return fmt.Errorf("entry %d is %q (%d bytes), source %q (%d bytes)", i, d.Path, len(d.Frame), e.Path, len(e.Frame))
		}
	}
	if !reflect.DeepEqual(src.Removed, dst.Removed) {
		return fmt.Errorf("removed %q, source %q", dst.Removed, src.Removed)
	}
	if !reflect.DeepEqual(src.Progress, dst.Progress) {
		return fmt.Errorf("progress %+v, source %+v", dst.Progress, src.Progress)
	}
	if s, d := strings.Join(src.Logs, "\n"), strings.Join(dst.Logs, "\n"); s != d {
		return fmt.Errorf("logs %q, source %q", d, s)
	}
	return nil
}

// TestInstallFollowerMatchesSource feeds a follower Manager only through
// a Cursor and Install while a seeded sequence runs against its source:
// two workers publishing fills, objects that come and go and log lines,
// a Reset with removals, and a Drop whose producers then re-create the
// session, which the follower's cursor must judge rebuilt. After every
// step the follower answers a full poll with the source's paths in the
// source's order, its increment over the step equals the source's, its
// versions rise, and it never encodes a frame of its own.
func TestInstallFollowerMatchesSource(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			const sid = "follow"
			rng := rand.New(rand.NewSource(seed))
			src, dst := NewManager(), NewManager()
			f := &follower{t: t, src: src, dst: dst, cur: Cursor{Session: sid}}
			type worker struct {
				tree  *aida.Tree
				h     *aida.Histogram1D
				h2    *aida.Histogram2D
				tr    *Transport
				extra []string
			}
			var ws []*worker
			for i := 0; i < 2; i++ {
				w := &worker{tree: aida.NewTree(), tr: NewTransport(sid, fmt.Sprint("w", i), src)}
				var err error
				if w.h, err = w.tree.H1D("/h", "a", "", 20, 0, 20); err != nil {
					t.Fatal(err)
				}
				if w.h2, err = w.tree.H2D("/h", "b", "", 4, 0, 4, 4, 0, 4); err != nil {
					t.Fatal(err)
				}
				ws = append(ws, w)
			}
			step := 0
			publish := func(w *worker) {
				t.Helper()
				for n := rng.Intn(4); n > 0; n-- {
					w.h.Fill(rng.Float64() * 20)
					w.h2.Fill(rng.Float64()*4, rng.Float64()*4)
				}
				switch r := rng.Intn(6); {
				case r == 0:
					name := fmt.Sprint("x", rng.Intn(3))
					if w.tree.Get("/tmp/"+name) == nil {
						if _, err := w.tree.H1D("/tmp", name, "", 4, 0, 4); err != nil {
							t.Fatal(err)
						}
						w.extra = append(w.extra, "/tmp/"+name)
					}
				case r == 1 && len(w.extra) > 0:
					w.tree.Rm(w.extra[0])
					w.extra = w.extra[1:]
				}
				log := ""
				if rng.Intn(3) == 0 {
					log = fmt.Sprintf("step %d", step)
				}
				if _, err := w.tr.Send(func(full bool) (Snapshot, error) {
					d, err := w.tree.Delta()
					if full {
						d, err = w.tree.FullDelta()
					}
					return Snapshot{Delta: d, Done: int64(step), Total: 100, Log: log}, err
				}); err != nil {
					t.Fatal(err)
				}
			}
			poll := func(m *Manager, args PollArgs) *PollReply {
				t.Helper()
				var pr PollReply
				if err := m.Poll(args, &pr); err != nil {
					t.Fatal(err)
				}
				return &pr
			}
			// seen counts the steps whose increment carried removals and
			// joined log lines, so a sequence that exercises neither fails.
			var seenRemoved, seenJoined int
			for ; step < 60; step++ {
				srcSince, dstSince := src.Version(sid), dst.Version(sid)
				rebuilt := f.rebuilt
				switch {
				case step == 20:
					// Rewind: every path goes to Removed; the producers'
					// next publishes are refused until they re-baseline.
					if err := src.Reset(ResetArgs{SessionID: sid}, &ResetReply{}); err != nil {
						t.Fatal(err)
					}
				case step == 40:
					src.Drop(sid)
					for _, w := range ws {
						publish(w) // answered NeedFull: re-creates the session
						publish(w) // full baseline
					}
				default:
					// One or more publishes land between two syncs, so
					// their log lines reach the follower in one reply.
					for n := 1 + rng.Intn(3); n > 0; n-- {
						publish(ws[rng.Intn(len(ws))])
					}
				}
				f.sync()
				if step == 40 {
					if f.rebuilt != rebuilt+1 {
						t.Fatalf("step %d: the cursor did not judge the re-created session rebuilt", step)
					}
					srcSince, dstSince = 0, 0
				} else if f.rebuilt != rebuilt {
					t.Fatalf("step %d: the cursor judged a continuing session rebuilt", step)
				}
				dstNow := dst.Version(sid)
				if src.Version(sid) != srcSince && step != 40 && dstNow <= dstSince {
					t.Fatalf("step %d: source moved %d → %d, follower stayed at %d", step, srcSince, src.Version(sid), dstNow)
				}
				if src.Version(sid) == srcSince && dstNow != dstSince {
					t.Fatalf("step %d: source unchanged, follower moved %d → %d", step, dstSince, dstNow)
				}
				full := func(m *Manager) *PollReply { return poll(m, PollArgs{SessionID: sid, Full: true}) }
				s, d := full(src), full(dst)
				if len(s.Entries) != len(d.Entries) {
					t.Fatalf("step %d: full poll has %d entries, source %d", step, len(d.Entries), len(s.Entries))
				}
				for i := range s.Entries {
					if s.Entries[i].Path != d.Entries[i].Path || !bytes.Equal(s.Entries[i].Frame, d.Entries[i].Frame) {
						t.Fatalf("step %d: full poll entry %d is %q, source %q", step, i, d.Entries[i].Path, s.Entries[i].Path)
					}
				}
				if !reflect.DeepEqual(s.Removed, d.Removed) || !reflect.DeepEqual(s.Progress, d.Progress) {
					t.Fatalf("step %d: full poll removed %q progress %+v, source %q %+v", step, d.Removed, d.Progress, s.Removed, s.Progress)
				}
				s = poll(src, PollArgs{SessionID: sid, SinceVersion: srcSince})
				d = poll(dst, PollArgs{SessionID: sid, SinceVersion: dstSince})
				if err := samePoll(s, d); err != nil {
					t.Fatalf("step %d: increment: %v", step, err)
				}
				if len(d.Removed) > 0 {
					seenRemoved++
				}
				if len(s.Logs) > 1 {
					seenJoined++
				}
				if _, misses := dst.CacheStats(sid); misses != 0 {
					t.Fatalf("step %d: the follower encoded %d frames of its own", step, misses)
				}
			}
			if seenRemoved < 2 || seenJoined == 0 {
				t.Fatalf("the sequence had %d increments with removals and %d with several log lines", seenRemoved, seenJoined)
			}
		})
	}
}

// stampedPathsMatchMerged reports whether every path of a session's
// merged tree has a version stamp and nothing else does: Poll lists the
// stamped paths, so an owner session must keep the two in step.
func stampedPathsMatchMerged(m *Manager, sid string) error {
	s := m.lookup(sid)
	if s == nil {
		return fmt.Errorf("no session %q", sid)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	stamped := make([]string, 0, len(s.objVersion))
	for p := range s.objVersion {
		stamped = append(stamped, p)
	}
	sort.Strings(stamped)
	if merged := s.merged.ObjectPaths(); !reflect.DeepEqual(stamped, merged) && len(stamped)+len(merged) > 0 {
		return fmt.Errorf("stamped paths %q, merged paths %q", stamped, merged)
	}
	return nil
}

// TestStampedPathsMatchMerged holds an owner session's version stamps
// and merged tree to the same paths through publishes that add and
// remove objects, a Reset, and an Import (whose rebuild restamps every
// path), onto a new manager and onto one that already holds the session.
func TestStampedPathsMatchMerged(t *testing.T) {
	const sid = "paths"
	m := NewManager()
	check := func(m *Manager, step string) {
		t.Helper()
		if err := stampedPathsMatchMerged(m, sid); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
	}
	trees := []*aida.Tree{aida.NewTree(), aida.NewTree()}
	trs := []*Transport{NewTransport(sid, "w0", m), NewTransport(sid, "w1", m)}
	send := func(i int) {
		t.Helper()
		if _, err := trs[i].Send(func(full bool) (Snapshot, error) {
			d, err := trees[i].Delta()
			if full {
				d, err = trees[i].FullDelta()
			}
			return Snapshot{Delta: d}, err
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i, tree := range trees {
		h, err := tree.H1D("/h", "a", "", 10, 0, 10)
		if err != nil {
			t.Fatal(err)
		}
		h.Fill(float64(i))
		if _, err := tree.H1D(fmt.Sprint("/w", i), "own", "", 10, 0, 10); err != nil {
			t.Fatal(err)
		}
		send(i)
	}
	check(m, "publish")
	trees[0].Rm("/w0/own")
	send(0)
	check(m, "publish removing a path only worker 0 held")
	trees[1].Rm("/h/a")
	send(1)
	check(m, "publish removing a path worker 0 still holds")
	if err := m.Reset(ResetArgs{SessionID: sid}, &ResetReply{}); err != nil {
		t.Fatal(err)
	}
	check(m, "reset")
	for i := range trees {
		send(i) // answered NeedFull
		send(i) // full baseline
	}
	check(m, "republish after reset")
	var ex ExportReply
	if err := m.Export(ExportArgs{SessionID: sid}, &ex); err != nil {
		t.Fatal(err)
	}
	in := ImportArgs{SessionID: sid, Version: ex.Version, Epoch: ex.Epoch, Workers: ex.Workers, Removed: ex.Removed, Logs: ex.Logs}
	other := NewManager()
	for _, dst := range []*Manager{other, m} {
		if err := dst.Import(in, &ImportReply{}); err != nil {
			t.Fatal(err)
		}
		check(dst, "import")
	}
}

// TestPublishRejectsNonCanonicalPaths: a delta naming an object or a
// removal by a path the merged tree would file under another name is
// refused whole, so a poll never lists one object under two paths.
func TestPublishRejectsNonCanonicalPaths(t *testing.T) {
	const sid = "canon"
	m := NewManager()
	var pub PublishReply
	if err := m.Publish(PublishArgs{SessionID: sid, WorkerID: "w0", Seq: 1, Delta: snapshot(t, map[string][]float64{"/h/x": {1}})}, &pub); err != nil || !pub.Accepted {
		t.Fatalf("canonical publish = %+v, %v", pub, err)
	}
	for _, path := range []string{"/h//x", "h/x", "/h/./x", "/h/x/", "/"} {
		d := snapshot(t, map[string][]float64{"/h/x": {2}})
		d.Entries[0].Path = path
		if err := m.Publish(PublishArgs{SessionID: sid, WorkerID: "w1", Seq: 1, Delta: d}, &pub); err == nil {
			t.Fatalf("a delta naming %q was accepted", path)
		}
		rm := &aida.DeltaState{Removed: []string{path}}
		if err := m.Publish(PublishArgs{SessionID: sid, WorkerID: "w0", Seq: 2, Delta: rm}, &pub); err == nil {
			t.Fatalf("a delta removing %q was accepted", path)
		}
	}
	var pr PollReply
	if err := m.Poll(PollArgs{SessionID: sid, Full: true}, &pr); err != nil || len(pr.Entries) != 1 || pr.Version != 1 {
		t.Fatalf("after the refused deltas the session is at version %d with %d entries, %v", pr.Version, len(pr.Entries), err)
	}
	if err := stampedPathsMatchMerged(m, sid); err != nil {
		t.Fatal(err)
	}
}
