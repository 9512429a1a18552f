package merge

import (
	"testing"

	"github.com/ipa-grid/ipa/internal/aida"
)

// snapshot returns a full delta of one histogram per path, filled with
// the given values.
func snapshot(t *testing.T, fills map[string][]float64) *aida.DeltaState {
	t.Helper()
	tree := aida.NewTree()
	for path, xs := range fills {
		h := aida.NewHistogram1D(leafName(path), "", 10, 0, 10)
		for _, x := range xs {
			h.Fill(x)
		}
		if err := tree.PutAt(path, h); err != nil {
			t.Fatal(err)
		}
	}
	d, err := tree.FullDelta()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func leafName(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}

func TestPublishAndPollMerges(t *testing.T) {
	m := NewManager()
	var rep PublishReply
	err := m.Publish(PublishArgs{
		SessionID: "s1", WorkerID: "w0", Seq: 1,
		Delta: snapshot(t, map[string][]float64{"/h/mass": {1, 2}}), EventsDone: 2, EventsTotal: 10,
	}, &rep)
	if err != nil || !rep.Accepted {
		t.Fatalf("publish: %v %+v", err, rep)
	}
	err = m.Publish(PublishArgs{
		SessionID: "s1", WorkerID: "w1", Seq: 1,
		Delta: snapshot(t, map[string][]float64{"/h/mass": {3}}), EventsDone: 1, EventsTotal: 10,
	}, &rep)
	if err != nil {
		t.Fatal(err)
	}
	var poll PollReply
	if err := m.Poll(PollArgs{SessionID: "s1"}, &poll); err != nil {
		t.Fatal(err)
	}
	if !poll.Changed || len(poll.Entries) != 1 {
		t.Fatalf("poll = %+v", poll)
	}
	obj, err := poll.Entries[0].Restore()
	if err != nil {
		t.Fatal(err)
	}
	if obj.(*aida.Histogram1D).Entries() != 3 {
		t.Fatalf("merged entries = %d, want 3", obj.(*aida.Histogram1D).Entries())
	}
	if len(poll.Progress) != 2 || poll.Progress[0].WorkerID != "w0" || poll.Progress[1].EventsDone != 1 {
		t.Fatalf("progress = %+v", poll.Progress)
	}
}

func TestIncrementalPoll(t *testing.T) {
	m := NewManager()
	var rep PublishReply
	m.Publish(PublishArgs{SessionID: "s", WorkerID: "w0", Seq: 1,
		Delta: snapshot(t, map[string][]float64{"/a/h1": {1}, "/a/h2": {2}})}, &rep)
	var first PollReply
	m.Poll(PollArgs{SessionID: "s"}, &first)
	if len(first.Entries) != 2 {
		t.Fatalf("full poll entries = %d", len(first.Entries))
	}
	// No new publishes → nothing changed.
	var idle PollReply
	m.Poll(PollArgs{SessionID: "s", SinceVersion: first.Version}, &idle)
	if idle.Changed || len(idle.Entries) != 0 {
		t.Fatalf("idle poll = %+v", idle)
	}
	// Second snapshot touches only h1.
	d := snapshot(t, map[string][]float64{"/a/h1": {1, 5}})
	d.Full = false
	m.Publish(PublishArgs{SessionID: "s", WorkerID: "w0", Seq: 2, Delta: d}, &rep)
	var inc PollReply
	m.Poll(PollArgs{SessionID: "s", SinceVersion: first.Version}, &inc)
	if !inc.Changed || len(inc.Entries) != 1 || inc.Entries[0].Path != "/a/h1" {
		t.Fatalf("incremental poll = %+v", inc.Entries)
	}
}

func TestStaleSnapshotDropped(t *testing.T) {
	m := NewManager()
	var rep PublishReply
	m.Publish(PublishArgs{SessionID: "s", WorkerID: "w", Seq: 5,
		Delta: snapshot(t, map[string][]float64{"/h": {1, 2, 3}})}, &rep)
	m.Publish(PublishArgs{SessionID: "s", WorkerID: "w", Seq: 3,
		Delta: snapshot(t, map[string][]float64{"/h": {9}})}, &rep)
	if rep.Accepted {
		t.Fatal("stale snapshot accepted")
	}
	var poll PollReply
	m.Poll(PollArgs{SessionID: "s"}, &poll)
	obj, _ := poll.Entries[0].Restore()
	if obj.(*aida.Histogram1D).Entries() != 3 {
		t.Fatal("stale snapshot overwrote newer one")
	}
}

func TestResetRemovesObjects(t *testing.T) {
	m := NewManager()
	var rep PublishReply
	m.Publish(PublishArgs{SessionID: "s", WorkerID: "w", Seq: 1,
		Delta: snapshot(t, map[string][]float64{"/h": {1}})}, &rep)
	var before PollReply
	m.Poll(PollArgs{SessionID: "s"}, &before)
	var rr ResetReply
	if err := m.Reset(ResetArgs{SessionID: "s"}, &rr); err != nil {
		t.Fatal(err)
	}
	var after PollReply
	m.Poll(PollArgs{SessionID: "s", SinceVersion: before.Version}, &after)
	if len(after.Entries) != 0 {
		t.Fatalf("entries after reset: %+v", after.Entries)
	}
	found := false
	for _, p := range after.Removed {
		if p == "/h" {
			found = true
		}
	}
	if !found {
		t.Fatalf("removal of /h not reported: %+v", after.Removed)
	}
}

func TestLogsDeliveredOnce(t *testing.T) {
	m := NewManager()
	var rep PublishReply
	m.Publish(PublishArgs{SessionID: "s", WorkerID: "w", Seq: 1,
		Delta: snapshot(t, map[string][]float64{"/h": {1}}), Log: "found peak"}, &rep)
	var p1 PollReply
	m.Poll(PollArgs{SessionID: "s"}, &p1)
	if len(p1.Logs) != 1 || p1.Logs[0] != "found peak" {
		t.Fatalf("logs = %v", p1.Logs)
	}
	var p2 PollReply
	m.Poll(PollArgs{SessionID: "s", SinceVersion: p1.Version}, &p2)
	if len(p2.Logs) != 0 {
		t.Fatalf("logs delivered twice: %v", p2.Logs)
	}
}

func TestSubMergerAggregates(t *testing.T) {
	root := NewManager()
	sub := NewSubMerger("group-a", "s", root, 1)
	var rep PublishReply
	for i, fills := range []map[string][]float64{
		{"/h/m": {1}}, {"/h/m": {2}}, {"/h/m": {3}},
	} {
		err := sub.Publish(PublishArgs{
			SessionID: "s", WorkerID: string(rune('a' + i)), Seq: 1,
			Delta: snapshot(t, fills), EventsDone: 1, EventsTotal: 1,
		}, &rep)
		if err != nil {
			t.Fatal(err)
		}
	}
	var poll PollReply
	if err := root.Poll(PollArgs{SessionID: "s"}, &poll); err != nil {
		t.Fatal(err)
	}
	if len(poll.Progress) != 1 || poll.Progress[0].WorkerID != "group-a" {
		t.Fatalf("root sees %+v, want one pseudo-worker", poll.Progress)
	}
	if poll.Progress[0].EventsDone != 3 {
		t.Fatalf("aggregated progress = %+v", poll.Progress[0])
	}
	obj, _ := poll.Entries[0].Restore()
	if obj.(*aida.Histogram1D).Entries() != 3 {
		t.Fatalf("aggregated entries = %d", obj.(*aida.Histogram1D).Entries())
	}
}

func TestSubMergerBatchedFlush(t *testing.T) {
	root := NewManager()
	sub := NewSubMerger("g", "s", root, 10) // only flush every 10 publishes
	var rep PublishReply
	sub.Publish(PublishArgs{SessionID: "s", WorkerID: "w", Seq: 1,
		Delta: snapshot(t, map[string][]float64{"/h": {1}})}, &rep)
	var poll PollReply
	root.Poll(PollArgs{SessionID: "s"}, &poll)
	if len(poll.Entries) != 0 {
		t.Fatal("flushed before batch filled")
	}
	if err := sub.Flush(); err != nil {
		t.Fatal(err)
	}
	root.Poll(PollArgs{SessionID: "s"}, &poll)
	if len(poll.Entries) != 1 {
		t.Fatal("explicit flush did not forward")
	}
}

func TestPublishValidation(t *testing.T) {
	m := NewManager()
	var rep PublishReply
	if err := m.Publish(PublishArgs{}, &rep); err == nil {
		t.Fatal("empty publish accepted")
	}
}
