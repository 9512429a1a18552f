package merge

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"github.com/ipa-grid/ipa/internal/aida"
)

// exportOf returns a session's export in a comparable form: removed
// paths sorted (they come from a map), and the epoch cleared when the
// session was created by a publish, whose stamp a replay regenerates.
func exportOf(t *testing.T, m *Manager, sid string) ExportReply {
	t.Helper()
	var ex ExportReply
	if err := m.Export(ExportArgs{SessionID: sid}, &ex); err != nil {
		t.Fatalf("export %s: %v", sid, err)
	}
	sort.Slice(ex.Removed, func(i, j int) bool { return ex.Removed[i].Path < ex.Removed[j].Path })
	switch sid {
	case "pub", "rst", "drp":
		ex.Epoch = 0
	}
	return ex
}

func walFixtureReference(t *testing.T) *Manager {
	t.Helper()
	m := NewManager()
	walFixtureOps(t, m)
	return m
}

// checkFixtureState compares every fixture session of got against the
// reference.
func checkFixtureState(t *testing.T, got, want *Manager, sessions []string) {
	t.Helper()
	for _, sid := range sessions {
		if g, w := exportOf(t, got, sid), exportOf(t, want, sid); !reflect.DeepEqual(g, w) {
			t.Fatalf("session %s after replay:\n got %+v\nwant %+v", sid, g, w)
		}
	}
}

func copyFixture(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "wal_v1.log"))
	if err != nil {
		t.Fatal(err)
	}
	if string(b[:len(walMagicV1)]) != walMagicV1 {
		t.Fatal("fixture is not an ipawal1 log")
	}
	path := filepath.Join(t.TempDir(), "v1.wal")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestWALReplaysV1Fixture: a log written by the ipawal1 (gob) writer
// replays to the state the logged calls built, is rewritten as ipawal2
// on the way, and the rewrite replays to the same state again.
func TestWALReplaysV1Fixture(t *testing.T) {
	path := copyFixture(t)
	want := walFixtureReference(t)

	m1, w1, n := walManager(t, path, WALOptions{SyncEvery: 1})
	if n == 0 {
		t.Fatal("fixture replayed nothing")
	}
	checkFixtureState(t, m1, want, walFixtureSessions)
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(b[:len(walMagic)]) != walMagic {
		t.Fatalf("replayed v1 log still starts %q, want the v2 magic", b[:len(walMagic)])
	}
	if _, err := os.Stat(path + ".old"); !os.IsNotExist(err) {
		t.Fatalf("v1 rotation file survived the rewrite (stat err %v)", err)
	}
	// The rewrite is a compaction: sessions with state keep it exactly.
	m2, _, _ := walManager(t, path, WALOptions{SyncEvery: 1})
	checkFixtureState(t, m2, want, []string{"pub", "mir", "imp"})
}

// TestWALV2ReplaysEveryRecordKind: the fixture's calls logged by the
// current writer replay to the same state.
func TestWALV2ReplaysEveryRecordKind(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v2.wal")
	m1, w1, _ := walManager(t, path, WALOptions{SyncEvery: 1})
	walFixtureOps(t, m1)
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}
	m2, _, _ := walManager(t, path, WALOptions{SyncEvery: 1})
	checkFixtureState(t, m2, walFixtureReference(t), walFixtureSessions)
}

// TestWALRecordsHoldThePlainFrame: a publish record's payload is the
// delta's plain binary frame — what a caller attached, byte for byte,
// and what the manager encodes itself when nothing was attached.
func TestWALRecordsHoldThePlainFrame(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.wal")
	m, w, _ := walManager(t, path, WALOptions{SyncEvery: 1})
	tree := publishRounds(t, m, nil, "s", 3)
	if _, err := tree.H1D("/", "g", "y", 4, 0, 4); err != nil {
		t.Fatal(err)
	}
	d, err := tree.Delta()
	if err != nil {
		t.Fatal(err)
	}
	frame, err := aida.AppendDeltaState(nil, d)
	if err != nil {
		t.Fatal(err)
	}
	args := PublishArgs{SessionID: "s", WorkerID: "w0", Seq: 4, Delta: d}
	args.SetFrame(frame)
	var rep PublishReply
	if err := m.Publish(args, &rep); err != nil || !rep.Accepted {
		t.Fatalf("publish: %v %+v", err, rep)
	}
	if got := rep.Frame(); &got[0] != &frame[0] {
		t.Fatal("reply does not hand back the attached frame")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var seqs []int64
	if _, _, err := scanFile(f, func(rec *walRecord) error {
		p := rec.Publish
		want, err := aida.AppendDeltaState(nil, p.Delta)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(p.Frame(), want) {
			t.Fatalf("seq %d logged %d payload bytes, not its plain %d-byte frame", p.Seq, len(p.Frame()), len(want))
		}
		seqs = append(seqs, p.Seq)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seqs, []int64{1, 2, 3, 4}) {
		t.Fatalf("logged publishes %v, want seqs 1..4", seqs)
	}
}
