package merge

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/ipa-grid/ipa/internal/aida"
)

// publishOne pushes a delta from tree as worker w at the next seq.
func publishOne(t *testing.T, m *Manager, session, worker string, seq int64, tree *aida.Tree) PublishReply {
	t.Helper()
	d, err := tree.Delta()
	if err != nil {
		t.Fatal(err)
	}
	var rep PublishReply
	if err := m.Publish(PublishArgs{SessionID: session, WorkerID: worker, Seq: seq, Delta: d}, &rep); err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestChangeIndexServesIncrementalPolls: after a delta touching one of
// many objects, an incremental poll must come off the change index (no
// merged-tree walk) and carry exactly the touched path.
func TestChangeIndexServesIncrementalPolls(t *testing.T) {
	m := NewManager()
	tree := aida.NewTree()
	hists := make([]*aida.Histogram1D, 20)
	for i := range hists {
		h, _ := tree.H1D("/a", fmt.Sprintf("h%02d", i), "", 10, 0, 10)
		h.Fill(1)
		hists[i] = h
	}
	publishOne(t, m, "s", "w", 1, tree)

	var first PollReply
	if err := m.Poll(PollArgs{SessionID: "s"}, &first); err != nil {
		t.Fatal(err)
	}
	if len(first.Entries) != 20 {
		t.Fatalf("cold poll entries = %d", len(first.Entries))
	}
	if idx, walk := m.PollIndexStats("s"); idx != 0 || walk != 1 {
		t.Fatalf("cold poll stats = %d indexed / %d walked, want 0/1", idx, walk)
	}

	hists[7].Fill(3)
	publishOne(t, m, "s", "w", 2, tree)
	var inc PollReply
	if err := m.Poll(PollArgs{SessionID: "s", SinceVersion: first.Version}, &inc); err != nil {
		t.Fatal(err)
	}
	if len(inc.Entries) != 1 || inc.Entries[0].Path != "/a/h07" {
		t.Fatalf("incremental entries = %+v, want exactly /a/h07", inc.Entries)
	}
	if idx, walk := m.PollIndexStats("s"); idx != 1 || walk != 1 {
		t.Fatalf("after incremental poll: %d indexed / %d walked, want 1/1", idx, walk)
	}
}

// TestChangeIndexCapFallsBackToWalk drives enough single-path publishes
// to overflow the index cap; a poll from before the trimmed floor must
// fall back to a full walk and still be correct.
func TestChangeIndexCapFallsBackToWalk(t *testing.T) {
	m := NewManager()
	tree := aida.NewTree()
	h, _ := tree.H1D("/a", "hot", "", 10, 0, 10)
	cold, _ := tree.H1D("/a", "cold", "", 10, 0, 10)
	cold.Fill(1)
	h.Fill(1)
	publishOne(t, m, "s", "w", 1, tree)
	var first PollReply
	if err := m.Poll(PollArgs{SessionID: "s"}, &first); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < maxChangeIndex+50; i++ {
		h.Fill(float64(i % 10))
		publishOne(t, m, "s", "w", int64(i+2), tree)
	}
	// first.Version now predates the trimmed index floor.
	var old PollReply
	if err := m.Poll(PollArgs{SessionID: "s", SinceVersion: first.Version}, &old); err != nil {
		t.Fatal(err)
	}
	if len(old.Entries) != 1 || old.Entries[0].Path != "/a/hot" {
		t.Fatalf("pre-floor poll entries = %v", pollPaths(old))
	}
	if idx, walk := m.PollIndexStats("s"); idx != 0 || walk != 2 {
		t.Fatalf("stats = %d indexed / %d walked, want 0/2 (cap fallback)", idx, walk)
	}
	// A recent poller still rides the index.
	h.Fill(5)
	publishOne(t, m, "s", "w", int64(maxChangeIndex+52), tree)
	var recent PollReply
	if err := m.Poll(PollArgs{SessionID: "s", SinceVersion: old.Version}, &recent); err != nil {
		t.Fatal(err)
	}
	if idx, _ := m.PollIndexStats("s"); idx != 1 {
		t.Fatalf("recent poll did not use the index (indexed=%d)", idx)
	}
	if len(recent.Entries) != 1 || recent.Entries[0].Path != "/a/hot" {
		t.Fatalf("recent poll entries = %v", pollPaths(recent))
	}
}

// TestChangeIndexHugeBaselineDoesNotPanic: a single publish touching
// more paths than the whole index cap must degrade to the full-walk
// fallback, not crash the eviction (regression: index out of range -1).
func TestChangeIndexHugeBaselineDoesNotPanic(t *testing.T) {
	m := NewManager()
	tree := aida.NewTree()
	for i := 0; i < maxChangeIndex+10; i++ {
		h, _ := tree.H1D("/a", fmt.Sprintf("h%04d", i), "", 2, 0, 2)
		h.Fill(1)
	}
	publishOne(t, m, "s", "w", 1, tree)
	var first PollReply
	if err := m.Poll(PollArgs{SessionID: "s", Full: true}, &first); err != nil {
		t.Fatal(err)
	}
	if len(first.Entries) != maxChangeIndex+10 {
		t.Fatalf("entries = %d", len(first.Entries))
	}
	// Incremental polls fall back to walking (the index was invalidated)
	// but stay correct.
	var inc PollReply
	if err := m.Poll(PollArgs{SessionID: "s", SinceVersion: first.Version}, &inc); err != nil {
		t.Fatal(err)
	}
	if inc.Changed {
		t.Fatalf("caught-up poll reported %d changes", len(inc.Entries))
	}
}

// TestTombstoneDropKeepsSeal: DropSession with Tombstone must leave a
// sealed shell so a publish that raced a completed handoff still draws
// NeedFull instead of re-creating an unsealed session on the old owner.
func TestTombstoneDropKeepsSeal(t *testing.T) {
	m := NewManager()
	tree := aida.NewTree()
	h, _ := tree.H1D("/a", "h", "", 10, 0, 10)
	h.Fill(1)
	publishOne(t, m, "s", "w", 1, tree)
	var dr DropReply
	if err := m.DropSession(DropArgs{SessionID: "s", Tombstone: true}, &dr); err != nil {
		t.Fatal(err)
	}
	full, err := tree.FullDelta()
	if err != nil {
		t.Fatal(err)
	}
	var rep PublishReply
	if err := m.Publish(PublishArgs{SessionID: "s", WorkerID: "w", Seq: 2, Delta: full}, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Accepted || !rep.NeedFull {
		t.Fatalf("publish against tombstone = %+v, want refused NeedFull", rep)
	}
	// A straggler poll that reaches the tombstone must read version 0
	// (reset to a full refresh on the new owner), never the live version
	// of an empty tree — that would fast-forward the client past every
	// imported object.
	var straggler PollReply
	if err := m.Poll(PollArgs{SessionID: "s", SinceVersion: 1}, &straggler); err != nil {
		t.Fatal(err)
	}
	if straggler.Version != 0 || straggler.Changed {
		t.Fatalf("tombstone poll = %+v, want version 0 and no changes", straggler)
	}
	// A plain drop reaps the tombstone entirely.
	if err := m.DropSession(DropArgs{SessionID: "s"}, &dr); err != nil {
		t.Fatal(err)
	}
	var sl SessionsReply
	if err := m.SessionList(SessionsArgs{}, &sl); err != nil {
		t.Fatal(err)
	}
	if len(sl.SessionIDs) != 0 {
		t.Fatalf("sessions after teardown drop = %v", sl.SessionIDs)
	}
}

func pollPaths(r PollReply) []string {
	var out []string
	for _, e := range r.Entries {
		out = append(out, e.Path)
	}
	return out
}

// TestSealedSessionRefusesWrites: Export(Seal) freezes publishes (they
// draw NeedFull) and rewinds (ErrSealed) while polls keep serving;
// Import lifts the seal.
func TestSealedSessionRefusesWrites(t *testing.T) {
	m := NewManager()
	tree := aida.NewTree()
	h, _ := tree.H1D("/a", "h", "", 10, 0, 10)
	h.Fill(1)
	publishOne(t, m, "s", "w", 1, tree)

	var exp ExportReply
	if err := m.Export(ExportArgs{SessionID: "s", Seal: true}, &exp); err != nil {
		t.Fatal(err)
	}
	if !exp.Found || len(exp.Workers) != 1 || !exp.Workers[0].HasTree {
		t.Fatalf("export = %+v", exp)
	}
	h.Fill(2)
	rep := publishOne(t, m, "s", "w", 2, tree)
	if rep.Accepted || !rep.NeedFull {
		t.Fatalf("sealed publish = %+v, want refused NeedFull", rep)
	}
	var rr ResetReply
	if err := m.Reset(ResetArgs{SessionID: "s"}, &rr); err != ErrSealed {
		t.Fatalf("sealed reset error = %v, want ErrSealed", err)
	}
	var poll PollReply
	if err := m.Poll(PollArgs{SessionID: "s", Full: true}, &poll); err != nil || len(poll.Entries) != 1 {
		t.Fatalf("sealed poll = %v / %d entries", err, len(poll.Entries))
	}

	// Re-importing the dump (the rollback path) unseals.
	var imp ImportReply
	err := m.Import(ImportArgs{
		SessionID: "s", Version: exp.Version,
		Workers: exp.Workers, Removed: exp.Removed, Logs: exp.Logs,
	}, &imp)
	if err != nil {
		t.Fatal(err)
	}
	full, err := tree.FullDelta()
	if err != nil {
		t.Fatal(err)
	}
	var rep2 PublishReply
	if err := m.Publish(PublishArgs{SessionID: "s", WorkerID: "w", Seq: 3, Delta: full}, &rep2); err != nil {
		t.Fatal(err)
	}
	if !rep2.Accepted {
		t.Fatalf("post-import publish = %+v", rep2)
	}
}

// TestExportImportRoundTrip moves a session (two workers, a removal,
// logs) to a fresh manager and checks the client-visible state carries
// over exactly: same version, same merged objects, removals still
// reported to incremental pollers, logs preserved.
func TestExportImportRoundTrip(t *testing.T) {
	src := NewManager()
	t1, t2 := aida.NewTree(), aida.NewTree()
	h1, _ := t1.H1D("/a", "h", "", 10, 0, 10)
	g1, _ := t1.H1D("/a", "g", "", 10, 0, 10)
	h2, _ := t2.H1D("/a", "h", "", 10, 0, 10)
	h1.Fill(1)
	g1.Fill(1)
	h2.Fill(2)
	d1, _ := t1.Delta()
	d2, _ := t2.Delta()
	var rep PublishReply
	if err := src.Publish(PublishArgs{SessionID: "s", WorkerID: "w1", Seq: 1, Delta: d1, Log: "line-1"}, &rep); err != nil {
		t.Fatal(err)
	}
	if err := src.Publish(PublishArgs{SessionID: "s", WorkerID: "w2", Seq: 1, Delta: d2}, &rep); err != nil {
		t.Fatal(err)
	}
	var mid PollReply
	if err := src.Poll(PollArgs{SessionID: "s"}, &mid); err != nil {
		t.Fatal(err)
	}
	// Remove /a/g so the export carries a gone path.
	t1.Rm("/a/g")
	d1, _ = t1.Delta()
	if err := src.Publish(PublishArgs{SessionID: "s", WorkerID: "w1", Seq: 2, Delta: d1}, &rep); err != nil {
		t.Fatal(err)
	}

	var exp ExportReply
	if err := src.Export(ExportArgs{SessionID: "s"}, &exp); err != nil {
		t.Fatal(err)
	}
	// The dump must survive a gob round trip: that is what crosses RMI
	// between shards on different nodes.
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&exp); err != nil {
		t.Fatal(err)
	}
	var wired ExportReply
	if err := gob.NewDecoder(&buf).Decode(&wired); err != nil {
		t.Fatal(err)
	}

	dst := NewManager()
	var imp ImportReply
	err := dst.Import(ImportArgs{
		SessionID: "s", Version: wired.Version,
		Workers: wired.Workers, Removed: wired.Removed, Logs: wired.Logs,
	}, &imp)
	if err != nil {
		t.Fatal(err)
	}
	if imp.Version != exp.Version {
		t.Fatalf("imported version %d != exported %d", imp.Version, exp.Version)
	}
	if got, want := dst.Version("s"), src.Version("s"); got != want {
		t.Fatalf("Version after import = %d, want %d", got, want)
	}
	got, want := pollEntries(t, dst), pollEntries(t, src)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("imported state differs:\n got %v\nwant %v", keys(got), keys(want))
	}
	// An incremental poller that saw /a/g before the move still learns
	// of its removal from the new owner.
	var incr PollReply
	if err := dst.Poll(PollArgs{SessionID: "s", SinceVersion: mid.Version}, &incr); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(incr.Removed, []string{"/a/g"}) {
		t.Fatalf("removals after import = %v, want [/a/g]", incr.Removed)
	}
	// Logs ride along exactly once for a from-scratch poller.
	var full PollReply
	if err := dst.Poll(PollArgs{SessionID: "s", Full: true}, &full); err != nil {
		t.Fatal(err)
	}
	if len(full.Logs) != 1 || !strings.Contains(full.Logs[0], "line-1") {
		t.Fatalf("logs after import = %v", full.Logs)
	}
	// Workers continue their sequence on the new owner without resync.
	h2.Fill(3)
	d2, _ = t2.Delta()
	if err := dst.Publish(PublishArgs{SessionID: "s", WorkerID: "w2", Seq: 2, Delta: d2}, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Accepted || rep.NeedFull {
		t.Fatalf("continuing delta after import = %+v", rep)
	}
}
