package merge

import (
	"reflect"
	"testing"

	"github.com/ipa-grid/ipa/internal/aida"
)

// mergedOf returns a session's full merged state keyed by path.
func mergedOf(t *testing.T, m *Manager, sid string) map[string]aida.ObjectState {
	t.Helper()
	var reply PollReply
	if err := m.Poll(PollArgs{SessionID: sid, Full: true}, &reply); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]aida.ObjectState, len(reply.Entries))
	for _, e := range reply.Entries {
		st, err := e.State()
		if err != nil {
			t.Fatal(err)
		}
		out[e.Path] = st
	}
	return out
}

// publishRounds drives a primary and mirrors every accepted delta to a
// replica, the way the router's mirror stream does, returning the tree.
func publishRounds(t *testing.T, primary, replica *Manager, sid string, rounds int) *aida.Tree {
	t.Helper()
	tree := aida.NewTree()
	h, err := tree.H1D("/h", "x", "", 10, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rounds; r++ {
		h.Fill(float64(r % 10))
		var d *aida.DeltaState
		if r == 0 {
			d, err = tree.FullDelta()
		} else {
			d, err = tree.Delta()
		}
		if err != nil {
			t.Fatal(err)
		}
		var rep PublishReply
		if err := primary.Publish(PublishArgs{SessionID: sid, WorkerID: "w0", Seq: int64(r + 1), Delta: d}, &rep); err != nil {
			t.Fatal(err)
		}
		if !rep.Accepted {
			t.Fatalf("round %d not accepted: %+v", r, rep)
		}
		if replica != nil {
			var mr MirrorReply
			if err := replica.Mirror(MirrorArgs{
				SessionID: sid, WorkerID: "w0", Seq: int64(r + 1),
				Epoch: rep.Epoch, Version: rep.Version, Delta: d,
			}, &mr); err != nil {
				t.Fatal(err)
			}
			if !mr.Accepted || mr.NeedFull {
				t.Fatalf("mirror round %d = %+v", r, mr)
			}
		}
	}
	return tree
}

// The delta stream alone must bootstrap a replica: mirroring every
// publish (starting with the full baseline) yields a copy under the
// primary's epoch that exports exactly what the primary does.
func TestMirrorStreamBootstrapsReplicaAndPromotes(t *testing.T) {
	primary, replica := NewManager(), NewManager()
	publishRounds(t, primary, replica, "s", 8)

	epoch := primary.Epoch("s")
	if epoch == 0 {
		t.Fatal("live session has epoch 0")
	}
	if got := replica.Epoch("s"); got != epoch {
		t.Fatalf("replica adopted epoch %d, want the primary's %d", got, epoch)
	}
	if got, want := exportOf(t, replica, "s"), exportOf(t, primary, "s"); !reflect.DeepEqual(got, want) {
		t.Fatalf("replica export differs from the primary's:\n got %+v\nwant %+v", got, want)
	}
}

// A mirror with a sequence gap (or no baseline at all) must ask for a
// re-baseline rather than apply out of order.
func TestMirrorGapAsksForRebaseline(t *testing.T) {
	replica := NewManager()
	tree := aida.NewTree()
	h, _ := tree.H1D("/h", "x", "", 10, 0, 10)
	if _, err := tree.FullDelta(); err != nil { // consume the baseline
		t.Fatal(err)
	}
	h.Fill(1)
	d, _ := tree.Delta() // incremental: its baseline never reached us
	if d.Full {
		t.Fatal("delta after a consumed baseline is still full")
	}
	var mr MirrorReply
	if err := replica.Mirror(MirrorArgs{SessionID: "s", WorkerID: "w0", Seq: 3, Epoch: 7, Delta: d}, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Accepted || !mr.NeedFull {
		t.Fatalf("baseline-less mirror = %+v, want NeedFull", mr)
	}
}

// A long mirror tail materializes incrementally (the pending threshold)
// and an Export of a mirror-fed copy folds the tail first — both paths
// must yield the primary's exact state.
func TestMirrorTailMaterializesOnExport(t *testing.T) {
	primary, replica := NewManager(), NewManager()
	publishRounds(t, primary, replica, "s", mirrorPendingMax+8)
	var exp ExportReply
	if err := replica.Export(ExportArgs{SessionID: "s"}, &exp); err != nil {
		t.Fatal(err)
	}
	if !exp.Found || len(exp.Workers) != 1 || !exp.Workers[0].HasTree {
		t.Fatalf("export of mirrored copy = %+v", exp)
	}
	dst := NewManager()
	var ir ImportReply
	if err := dst.Import(ImportArgs{
		SessionID: "s", Version: exp.Version, Epoch: exp.Epoch,
		Workers: exp.Workers, Removed: exp.Removed, Logs: exp.Logs,
	}, &ir); err != nil {
		t.Fatal(err)
	}
	got, want := mergedOf(t, dst, "s"), mergedOf(t, primary, "s")
	if !reflect.DeepEqual(got, want) {
		t.Fatal("re-imported mirror state differs from the primary's")
	}
}
