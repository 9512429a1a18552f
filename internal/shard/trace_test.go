package shard

import (
	"testing"

	"github.com/ipa-grid/ipa/internal/aida"
	"github.com/ipa-grid/ipa/internal/merge"
	"github.com/ipa-grid/ipa/internal/obs"
)

// TestTracePropagatesDownTheChain is the end-to-end trace test: a span
// injected at engine publish must be observable — same trace ID — on
// the owning shard and on the mirror replica, and the publish must
// record a span linked to the trace.
func TestTracePropagatesDownTheChain(t *testing.T) {
	router, mgrs := newRouterWithShards(t, 3)
	router.Replicate = true

	sid := sessionsHomedOn(t, router, "shard00", 1, "trace")[0]

	tree := aida.NewTree()
	h, err := tree.H1D("/h", "x", "", 10, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	h.Fill(3)
	d, err := tree.FullDelta()
	if err != nil {
		t.Fatal(err)
	}
	tc := obs.NewTrace()
	if !tc.Valid() {
		t.Fatal("NewTrace returned an untraced context with recording enabled")
	}
	var rep merge.PublishReply
	if err := router.Publish(merge.PublishArgs{
		SessionID: sid, WorkerID: "w0", Seq: 1, Delta: d, Trace: tc,
	}, &rep); err != nil {
		t.Fatal(err)
	}
	router.drainMirrors()

	// Observed on the owning shard.
	var owner merge.StatsReply
	if err := router.Stats(merge.StatsArgs{SessionID: sid}, &owner); err != nil {
		t.Fatal(err)
	}
	if !owner.Found || owner.LastTraceID != tc.TraceID {
		t.Fatalf("owner LastTraceID = %x, want %x", owner.LastTraceID, tc.TraceID)
	}

	// Observed on the mirror replica (hop-advanced, same trace ID).
	replica := router.ReplicaOf(sid)
	if replica == "" {
		t.Fatal("no replica assigned despite Replicate=true")
	}
	var standby merge.StatsReply
	if err := mgrs[replica].Stats(merge.StatsArgs{SessionID: sid}, &standby); err != nil {
		t.Fatal(err)
	}
	if !standby.Found || standby.LastTraceID != tc.TraceID {
		t.Fatalf("replica LastTraceID = %x, want %x", standby.LastTraceID, tc.TraceID)
	}

	// The publish recorded a merge.apply span linked to the trace.
	var spanSeen bool
	for _, ev := range obs.Events.Since(0, 0) {
		if ev.Kind == obs.EventSpan && ev.TraceID == tc.TraceID {
			spanSeen = true
			break
		}
	}
	if !spanSeen {
		t.Errorf("no span event recorded for trace %x", tc.TraceID)
	}
}
