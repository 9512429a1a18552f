package merge

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"github.com/ipa-grid/ipa/internal/aida"
)

// mirrorFeed grows one worker tree and sends each delta through an
// unlogged primary and on to a replica's Mirror, the way the router's
// mirror stream does, one round per step.
type mirrorFeed struct {
	sid              string
	primary, replica *Manager
	tree             *aida.Tree
	h                *aida.Histogram1D
	seq              int64
}

func newMirrorFeed(t *testing.T, sid string, replica *Manager) *mirrorFeed {
	t.Helper()
	f := &mirrorFeed{sid: sid, primary: NewManager(), replica: replica, tree: aida.NewTree()}
	var err error
	if f.h, err = f.tree.H1D("/m", "x", "", 10, 0, 10); err != nil {
		t.Fatal(err)
	}
	return f
}

func (f *mirrorFeed) step() error {
	f.h.Fill(float64(f.seq % 10))
	var d *aida.DeltaState
	var err error
	if f.seq == 0 {
		d, err = f.tree.FullDelta()
	} else {
		d, err = f.tree.Delta()
	}
	if err != nil {
		return err
	}
	f.seq++
	var rep PublishReply
	if err := f.primary.Publish(PublishArgs{SessionID: f.sid, WorkerID: "w0", Seq: f.seq, Delta: d}, &rep); err != nil {
		return err
	}
	var mr MirrorReply
	if err := f.replica.Mirror(MirrorArgs{
		SessionID: f.sid, WorkerID: "w0", Seq: f.seq, Epoch: rep.Epoch, Version: rep.Version, Delta: d,
	}, &mr); err != nil {
		return err
	}
	if !mr.Accepted {
		return fmt.Errorf("mirror %s seq %d not accepted: %+v", f.sid, f.seq, mr)
	}
	return nil
}

// baseline publishes a one-fill full baseline as worker w0's seq 1 —
// how a session starts again after a reset or a drop. A tombstone
// refuses it, which is part of what a replay must reproduce.
func baseline(m *Manager, sid string, x float64) error {
	tree := aida.NewTree()
	h, err := tree.H1D("/b", "x", "", 10, 0, 10)
	if err != nil {
		return err
	}
	h.Fill(x)
	d, err := tree.FullDelta()
	if err != nil {
		return err
	}
	return m.Publish(PublishArgs{SessionID: sid, WorkerID: "w0", Seq: 1, Delta: d}, &PublishReply{})
}

// sameAfterReplay checks that each session reads the same merged state
// and version on the replayed manager as on the original.
func sameAfterReplay(t *testing.T, got, want *Manager, sids ...string) {
	t.Helper()
	for _, sid := range sids {
		if !reflect.DeepEqual(mergedOf(t, got, sid), mergedOf(t, want, sid)) {
			t.Fatalf("session %s differs after replay", sid)
		}
		if g, w := got.Version(sid), want.Version(sid); g != w {
			t.Fatalf("session %s replayed at version %d, want %d", sid, g, w)
		}
	}
}

// sameMirrorAfterReplay checks a mirror-fed copy on the replayed
// manager: the same version and incarnation as the original's, and an
// export equal to its primary's. A mirror-fed copy serves no merged tree
// until it is exported or imported, and a compaction re-seeds it as an
// import, so its merged state is not what a replay must keep.
func sameMirrorAfterReplay(t *testing.T, got, orig *Manager, f *mirrorFeed) {
	t.Helper()
	if g, w := got.Version(f.sid), orig.Version(f.sid); g != w {
		t.Fatalf("mirrored copy replayed at version %d, want %d", g, w)
	}
	if g, w := got.Epoch(f.sid), orig.Epoch(f.sid); g != w {
		t.Fatalf("mirrored copy replayed under epoch %d, want %d", g, w)
	}
	if g, w := exportOf(t, got, f.sid), exportOf(t, f.primary, f.sid); !reflect.DeepEqual(g, w) {
		t.Fatalf("replayed mirrored copy exports\n%+v\nits primary exports\n%+v", g, w)
	}
}

// TestWALCrashMidCompactionKeepsLateRecords: compaction rotates the
// live log aside, then re-seeds a fresh one with snapshots — and a
// crash can land exactly between the two. This test freezes that
// instant (rotation done, snapshots never written), lets a mirrored
// stream, a reset, a tombstoning drop and more publishes land in the
// fresh log afterwards, and demands a cold replay still reconstruct
// every session: its merged bytes and version, and the mirrored copy's
// version, incarnation and export.
func TestWALCrashMidCompactionKeepsLateRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crash.wal")
	m1, w1, _ := walManager(t, path, WALOptions{SyncEvery: 1})
	publishRounds(t, m1, nil, "s", 5)
	for _, sid := range []string{"rst", "drp"} {
		publishRounds(t, m1, nil, sid, 3)
	}
	mir := newMirrorFeed(t, "mir", m1)
	for i := 0; i < 3; i++ {
		if err := mir.step(); err != nil {
			t.Fatal(err)
		}
	}

	// The crash point: rotate has moved the history to .old and opened
	// a fresh live log, but the snapshot re-seed never ran.
	if err := w1.rotate(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".old"); err != nil {
		t.Fatalf("rotation file missing at the crash point: %v", err)
	}

	// Later traffic lands in the fresh log while the .old file still
	// holds every byte of history.
	for i := 0; i < 3; i++ {
		if err := mir.step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := m1.Reset(ResetArgs{SessionID: "rst"}, &ResetReply{}); err != nil {
		t.Fatal(err)
	}
	if err := baseline(m1, "rst", 4); err != nil {
		t.Fatal(err)
	}
	if err := m1.DropSession(DropArgs{SessionID: "drp", Tombstone: true}, &DropReply{}); err != nil {
		t.Fatal(err)
	}
	publishRounds(t, m1, nil, "late", 3)
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}

	// Cold restart over the torn pair: .old replays first, then the
	// fresh log's records.
	m2, _, n := walManager(t, path, WALOptions{SyncEvery: 1})
	if n == 0 {
		t.Fatal("replay over the crash point applied nothing")
	}
	sameAfterReplay(t, m2, m1, "s", "rst", "drp", "late")
	sameMirrorAfterReplay(t, m2, m1, mir)
}

// TestWALCompactionRacesMirrorResetAndDrop: with a tiny compaction
// threshold, rotations fire continuously while publishes, explicit
// CompactWAL calls, and a churn of mirrors, resets and drops all race
// them under the race detector. Whatever interleaving happens, a crash
// replay must reproduce every session's final state exactly.
func TestWALCompactionRacesMirrorResetAndDrop(t *testing.T) {
	path := filepath.Join(t.TempDir(), "race.wal")
	m1, w1, _ := walManager(t, path, WALOptions{SyncEvery: 1, CompactEvery: 4})
	mir := newMirrorFeed(t, "mir", m1)

	stop := make(chan struct{})
	// churned closes after the first full churn round, so the steady
	// load below cannot finish before the churn has raced anything.
	churned := make(chan struct{})
	var churnOnce sync.Once
	markChurned := func() { churnOnce.Do(func() { close(churned) }) }
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = m1.CompactWAL()
			}
		}
	}()
	go func() {
		defer wg.Done()
		defer markChurned() // an erroring churn must not hang the wait below
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := mir.step(); err != nil {
				t.Error(err)
				return
			}
			if err := baseline(m1, "rst", float64(i%10)); err != nil {
				t.Error(err)
				return
			}
			if err := m1.Reset(ResetArgs{SessionID: "rst"}, &ResetReply{}); err != nil {
				t.Error(err)
				return
			}
			// Odd rounds leave a tombstone behind, which refuses the next
			// round's baseline until the plain drop reaps it.
			if err := baseline(m1, "drp", float64(i%10)); err != nil {
				t.Error(err)
				return
			}
			if err := m1.DropSession(DropArgs{SessionID: "drp", Tombstone: i%2 == 1}, &DropReply{}); err != nil {
				t.Error(err)
				return
			}
			markChurned()
		}
	}()
	// Steady publish load on other sessions keeps walAppend's own
	// compaction trigger firing alongside the explicit CompactWAL storm.
	for i := 0; i < 8; i++ {
		publishRounds(t, m1, nil, fmt.Sprintf("steady-%d", i), 8)
	}
	<-churned
	close(stop)
	wg.Wait()
	// One final quiesced compaction so the replay exercises a log that
	// ends in the snapshot-reseeded form.
	if err := m1.CompactWAL(); err != nil {
		t.Fatal(err)
	}
	if mir.seq == 0 {
		t.Fatal("the churn never mirrored anything")
	}
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}

	m2, _, _ := walManager(t, path, WALOptions{SyncEvery: 1})
	sids := []string{"rst", "drp"}
	for i := 0; i < 8; i++ {
		sid := fmt.Sprintf("steady-%d", i)
		if len(mergedOf(t, m1, sid)) == 0 {
			t.Fatalf("reference state for %s is empty", sid)
		}
		sids = append(sids, sid)
	}
	sameAfterReplay(t, m2, m1, sids...)
	sameMirrorAfterReplay(t, m2, m1, mir)
}
