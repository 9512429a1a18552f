package merge

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// walManager opens a log at path, replays it into a fresh manager, and
// attaches it — the exact restart sequence ipa-manager runs.
func walManager(t *testing.T, path string, opts WALOptions) (*Manager, *WAL, int) {
	t.Helper()
	m := NewManager()
	w, err := OpenWAL(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	n, err := w.Replay(m)
	if err != nil {
		t.Fatal(err)
	}
	m.SetWAL(w)
	return m, w, n
}

// TestWALReplayRebuildsSessions is the crash-restart round trip: a
// manager logs its publishes, "crashes" (only the log survives), and a
// cold manager replaying the log holds byte-identical merged trees.
func TestWALReplayRebuildsSessions(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.wal")
	m1, w1, n := walManager(t, path, WALOptions{SyncEvery: 1})
	if n != 0 {
		t.Fatalf("fresh log replayed %d records", n)
	}
	publishRounds(t, m1, nil, "sess-a", 6)
	publishRounds(t, m1, nil, "sess-b", 3)
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}

	m2, _, n := walManager(t, path, WALOptions{SyncEvery: 1})
	if n == 0 {
		t.Fatal("restart replayed nothing")
	}
	for _, sid := range []string{"sess-a", "sess-b"} {
		got, want := mergedOf(t, m2, sid), mergedOf(t, m1, sid)
		if len(want) == 0 {
			t.Fatalf("reference state for %s is empty", sid)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("replayed state for %s differs from the original", sid)
		}
	}
	// Versions must survive too: a client that polled version v before
	// the crash must not see the rebuilt session regress below it.
	var p1, p2 PollReply
	if err := m1.Poll(PollArgs{SessionID: "sess-a"}, &p1); err != nil {
		t.Fatal(err)
	}
	if err := m2.Poll(PollArgs{SessionID: "sess-a"}, &p2); err != nil {
		t.Fatal(err)
	}
	if p2.Version != p1.Version {
		t.Fatalf("replayed version %d, want %d", p2.Version, p1.Version)
	}
}

// TestWALReplaySkipsRetiredFenceAndPromote: older writers logged
// replica fences (kind 7) and promotions (kind 8). A v2 log holding them
// must replay without error, skipping both, and leave every session's
// export as the other records built it.
func TestWALReplaySkipsRetiredFenceAndPromote(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.wal")
	m1, w1, _ := walManager(t, path, WALOptions{SyncEvery: 1})
	walFixtureOps(t, m1)
	retired := append(retiredRecords(),
		// A fence above a live session's epoch would once have hidden it.
		&walRecord{Kind: walFence, Session: "pub", Epoch: 1 << 62},
		&walRecord{Kind: walPromote, Session: "unknown", Epoch: 7})
	for _, rec := range retired {
		if _, err := w1.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[uint8]int{}
	_, _, err = scanFile(f, func(rec *walRecord) error { kinds[rec.Kind]++; return nil })
	f.Close()
	if err != nil || kinds[walFence] != 2 || kinds[walPromote] != 2 {
		t.Fatalf("log holds kinds %v (err %v), want two fences and two promotions", kinds, err)
	}

	m2, _, _ := walManager(t, path, WALOptions{SyncEvery: 1})
	checkFixtureState(t, m2, walFixtureReference(t), walFixtureSessions)
	if m2.Epoch("unknown") != 0 {
		t.Fatal("a skipped promotion created a session")
	}
}

// TestWALCompactionPreservesState: rotating the log and re-seeding it
// with snapshots must not change what a replay rebuilds, and must
// actually retire the rotation file.
func TestWALCompactionPreservesState(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.wal")
	m1, w1, _ := walManager(t, path, WALOptions{SyncEvery: 1, CompactEvery: 1 << 20})
	publishRounds(t, m1, nil, "sess-a", 8)
	publishRounds(t, m1, nil, "sess-b", 8)
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.CompactWAL(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".old"); !os.IsNotExist(err) {
		t.Fatalf("rotation file survived compaction (stat err %v)", err)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Fatalf("compaction grew the log: %d → %d bytes over 16 single-fill deltas", before.Size(), after.Size())
	}
	// More traffic lands after compaction; replay must cover both eras.
	publishRounds(t, m1, nil, "sess-c", 2)
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}
	m2, _, _ := walManager(t, path, WALOptions{SyncEvery: 1})
	for _, sid := range []string{"sess-a", "sess-b", "sess-c"} {
		if got, want := mergedOf(t, m2, sid), mergedOf(t, m1, sid); !reflect.DeepEqual(got, want) {
			t.Fatalf("replayed state for %s differs after compaction", sid)
		}
	}
}

// TestWALTornTailTruncates: an OS crash mid-append leaves a half
// record. Replay must apply the complete prefix, cut the tail, and
// leave the log appendable — never refuse to start.
func TestWALTornTailTruncates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	m1, w1, _ := walManager(t, path, WALOptions{SyncEvery: 1})
	publishRounds(t, m1, nil, "s", 5)
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-7); err != nil {
		t.Fatal(err)
	}

	m2, w2, n := walManager(t, path, WALOptions{SyncEvery: 1})
	if n == 0 {
		t.Fatal("torn tail discarded the whole log")
	}
	// The rebuilt state is a consistent prefix: identical trees up to
	// the last complete record (one round behind the original).
	var p2 PollReply
	if err := m2.Poll(PollArgs{SessionID: "s"}, &p2); err != nil {
		t.Fatal(err)
	}
	if p2.Version == 0 {
		t.Fatal("replayed prefix holds no state")
	}
	// The log keeps working after the cut: new appends follow the
	// truncation point and a fresh replay sees them.
	publishRounds(t, m2, nil, "s2", 2)
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	m3, _, _ := walManager(t, path, WALOptions{SyncEvery: 1})
	if got, want := mergedOf(t, m3, "s2"), mergedOf(t, m2, "s2"); !reflect.DeepEqual(got, want) {
		t.Fatal("post-truncation appends did not survive a further replay")
	}
	if got, want := mergedOf(t, m3, "s"), mergedOf(t, m2, "s"); !reflect.DeepEqual(got, want) {
		t.Fatal("torn-tail prefix changed across a second replay")
	}
}
