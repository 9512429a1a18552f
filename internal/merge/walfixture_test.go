package merge

import (
	"testing"

	"github.com/ipa-grid/ipa/internal/aida"
	"github.com/ipa-grid/ipa/internal/obs"
)

// walFixtureSessions are the sessions walFixtureOps touches, in the
// order the fixture test compares them.
var walFixtureSessions = []string{"pub", "mir", "imp", "rst", "drp"}

// walFixtureOps drives one manager through every record kind the log
// writes: delta and full-baseline publishes (with a removal, a log line
// and a trace), a mirrored stream, an import with removed paths and
// logs, a reset and a tombstoning drop. testdata/wal_v1.log is this
// sequence as the ipawal1 (gob) writer logged it, with two differences:
// w2's baseline there is a legacy whole-tree publish of the same tree,
// which replays as this full delta; and it also holds the records
// retiredRecords lists, logged where a promotion of "mir" and a fence of
// "imp" once ran, which replay skips. The same calls against a manager
// without a log are the reference its replay must reproduce.
func walFixtureOps(t testing.TB, m *Manager) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	publish := func(args PublishArgs) {
		t.Helper()
		var rep PublishReply
		must(m.Publish(args, &rep))
		if !rep.Accepted {
			t.Fatalf("fixture publish %s/%s seq %d refused: %+v", args.SessionID, args.WorkerID, args.Seq, rep)
		}
	}

	// "pub": three workers publish directly.
	t0 := aida.NewTree()
	h, err := t0.H1D("/pub", "h", "x", 10, 0, 10)
	must(err)
	for r := 0; r < 4; r++ {
		h.FillW(float64(r), 0.5+float64(r))
		var d *aida.DeltaState
		if r == 0 {
			d, err = t0.FullDelta()
		} else {
			d, err = t0.Delta()
		}
		must(err)
		publish(PublishArgs{
			SessionID: "pub", WorkerID: "w0", Seq: int64(r + 1), Delta: d,
			EventsDone: int64(10 * r), EventsTotal: 40, Log: "round\n",
			Trace: obs.TraceContext{TraceID: uint64(100 + r), SpanID: 7, Hop: 1},
		})
	}
	t1 := aida.NewTree()
	_, err = t1.H1D("/pub", "h", "x", 10, 0, 10)
	must(err)
	h2, err := t1.H2D("/pub", "h2", "xy", 4, 0, 4, 3, 0, 3)
	must(err)
	h2.Fill(1, 2)
	d, err := t1.FullDelta()
	must(err)
	publish(PublishArgs{SessionID: "pub", WorkerID: "w1", Seq: 1, Delta: d})
	t1.Rm("/pub/h2")
	d, err = t1.Delta()
	must(err)
	publish(PublishArgs{SessionID: "pub", WorkerID: "w1", Seq: 2, Delta: d, EventsDone: 3, EventsTotal: 3})
	t2 := aida.NewTree()
	p, err := t2.P1D("/legacy", "p", "prof", 5, 0, 5)
	must(err)
	p.Fill(2, 4)
	d, err = t2.FullDelta()
	must(err)
	publish(PublishArgs{SessionID: "pub", WorkerID: "w2", Seq: 1, Delta: d, EventsDone: 1, EventsTotal: 2})

	// "mir": a mirrored stream.
	t3 := aida.NewTree()
	c, err := t3.C1D("/mir", "c", "cloud")
	must(err)
	c.Fill(1.5)
	d, err = t3.FullDelta()
	must(err)
	var mr MirrorReply
	must(m.Mirror(MirrorArgs{
		SessionID: "mir", WorkerID: "r0", Seq: 1, Epoch: 1000, Version: 1, Delta: d,
		EventsDone: 5, EventsTotal: 10, Log: "mirrored\n",
		Trace: obs.TraceContext{TraceID: 77, SpanID: 8, Hop: 2},
	}, &mr))
	c.Fill(2.5)
	d, err = t3.Delta()
	must(err)
	must(m.Mirror(MirrorArgs{SessionID: "mir", WorkerID: "r0", Seq: 2, Epoch: 1000, Version: 2, Delta: d, EventsDone: 10, EventsTotal: 10}, &mr))

	// "imp": an imported copy.
	t4 := aida.NewTree()
	hi, err := t4.H1D("/imp", "h", "x", 3, 0, 3)
	must(err)
	hi.Fill(1)
	st, err := t4.State()
	must(err)
	var ir ImportReply
	must(m.Import(ImportArgs{
		SessionID: "imp", Version: 7, Epoch: 2000,
		Workers:     []WorkerSnapshot{{WorkerID: "i0", Seq: 3, Done: 4, Total: 9, HasTree: true, Tree: *st}},
		Removed:     []RemovedPath{{Path: "/imp/gone", Version: 5}},
		Logs:        []LogLine{{Version: 6, Text: "imported\n"}},
		LastTraceID: 99,
	}, &ir))

	// "rst" is reset after a publish; "drp" is dropped to a tombstone.
	for _, sid := range []string{"rst", "drp"} {
		d, err := t0.FullDelta()
		must(err)
		publish(PublishArgs{SessionID: sid, WorkerID: "w0", Seq: 1, Delta: d})
	}
	var rr ResetReply
	must(m.Reset(ResetArgs{SessionID: "rst"}, &rr))
	var dr DropReply
	must(m.DropSession(DropArgs{SessionID: "drp", Tombstone: true}, &dr))
}

// retiredRecords are the reserved-kind records older writers logged:
// the fixture's promotion of "mir" under epoch 5000 and fence of "imp"
// at floor 1500, as testdata/wal_v1.log holds them.
func retiredRecords() []*walRecord {
	return []*walRecord{
		{Kind: walPromote, Session: "mir", Epoch: 5000},
		{Kind: walFence, Session: "imp", Epoch: 1500},
	}
}
