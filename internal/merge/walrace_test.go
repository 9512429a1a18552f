package merge

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"github.com/ipa-grid/ipa/internal/aida"
)

// TestWALCrashMidCompactionKeepsPromoteAndFence: compaction rotates the
// live log aside, then re-seeds a fresh one with snapshots — and a
// crash can land exactly between the two. This test freezes that
// instant (rotation done, snapshots never written), lets a Promote, a
// Fence, and more publishes race in afterwards, and demands a cold
// replay still reconstruct everything: the merged bytes, the bumped
// epoch, and a fence floor that keeps bouncing the deposed
// incarnation's stragglers.
func TestWALCrashMidCompactionKeepsPromoteAndFence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crash.wal")
	m1, w1, _ := walManager(t, path, WALOptions{SyncEvery: 1})
	tree := publishRounds(t, m1, nil, "s", 5)
	oldEpoch := m1.Epoch("s")

	// The crash point: rotate has moved the history to .old and opened
	// a fresh live log, but the snapshot re-seed never ran.
	if err := w1.rotate(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".old"); err != nil {
		t.Fatalf("rotation file missing at the crash point: %v", err)
	}

	// Failover traffic lands in the fresh log while the .old file still
	// holds every byte of history.
	var pr PromoteReply
	if err := m1.Promote(PromoteArgs{SessionID: "s"}, &pr); err != nil || !pr.Found {
		t.Fatalf("promote: %v found=%v", err, pr.Found)
	}
	var fr FenceReply
	if err := m1.Fence(FenceArgs{SessionID: "s", Epoch: pr.PrevEpoch}, &fr); err != nil {
		t.Fatal(err)
	}
	publishRounds(t, m1, nil, "late", 3)
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}

	// Cold restart over the torn pair: .old replays first, then the
	// fresh log's promote/fence/late records.
	m2, _, n := walManager(t, path, WALOptions{SyncEvery: 1})
	if n == 0 {
		t.Fatal("replay over the crash point applied nothing")
	}
	for _, sid := range []string{"s", "late"} {
		if got, want := mergedOf(t, m2, sid), mergedOf(t, m1, sid); !reflect.DeepEqual(got, want) {
			t.Fatalf("session %s differs after mid-compaction crash replay", sid)
		}
	}
	// Publish-built sessions regenerate their stamp on replay, so exact
	// equality is not the contract — never regressing below the promoted
	// incarnation is.
	if got := m2.Epoch("s"); got < pr.Epoch {
		t.Fatalf("replayed epoch %d regressed below promoted %d", got, pr.Epoch)
	}
	d, err := tree.Delta()
	if err != nil {
		t.Fatal(err)
	}
	var mr MirrorReply
	if err := m2.Mirror(MirrorArgs{SessionID: "s", WorkerID: "w0", Seq: 99, Epoch: oldEpoch, Delta: d}, &mr); !errors.Is(err, ErrFenced) {
		t.Fatalf("deposed-epoch mirror after crash replay: err=%v, want ErrFenced", err)
	}
}

// TestWALCompactionRacesPromoteAndFence: with a tiny compaction
// threshold, rotations fire continuously while publishes, explicit
// CompactWAL calls, and a Promote/Fence churn all race them under the
// race detector. Whatever interleaving happens, a crash replay must
// reproduce the final state and the final incarnation exactly.
func TestWALCompactionRacesPromoteAndFence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "race.wal")
	m1, w1, _ := walManager(t, path, WALOptions{SyncEvery: 1, CompactEvery: 4})
	publishRounds(t, m1, nil, "flip", 4)

	stop := make(chan struct{})
	// churned closes after the first Promote/Fence round, so the steady
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
		for {
			select {
			case <-stop:
				return
			default:
			}
			var pr PromoteReply
			if err := m1.Promote(PromoteArgs{SessionID: "flip"}, &pr); err != nil {
				t.Error(err)
				return
			}
			var fr FenceReply
			if err := m1.Fence(FenceArgs{SessionID: "flip", Epoch: pr.PrevEpoch}, &fr); err != nil {
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
	finalEpoch := m1.Epoch("flip")
	if finalEpoch <= 1 {
		t.Fatalf("promote churn never advanced the epoch (epoch %d)", finalEpoch)
	}
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}

	m2, _, _ := walManager(t, path, WALOptions{SyncEvery: 1})
	if got, want := mergedOf(t, m2, "flip"), mergedOf(t, m1, "flip"); !reflect.DeepEqual(got, want) {
		t.Fatal("churned session differs after crash replay")
	}
	for i := 0; i < 8; i++ {
		sid := fmt.Sprintf("steady-%d", i)
		got, want := mergedOf(t, m2, sid), mergedOf(t, m1, sid)
		if len(want) == 0 {
			t.Fatalf("reference state for %s is empty", sid)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("session %s differs after compaction-race replay", sid)
		}
	}
	// Epoch stamps regenerate when raw history (not a snapshot) replays,
	// so the contract is monotonicity: the rebuilt copy must never
	// regress below the incarnation clients last saw.
	if got := m2.Epoch("flip"); got < finalEpoch {
		t.Fatalf("replayed epoch %d regressed below final %d", got, finalEpoch)
	}
	// The fence floor survived too: a mirror stamped with a long-deposed
	// epoch still bounces on the rebuilt copy.
	tree := aida.NewTree()
	h, err := tree.H1D("/h", "x", "", 10, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	h.Fill(1)
	d, err := tree.FullDelta()
	if err != nil {
		t.Fatal(err)
	}
	var mr MirrorReply
	if err := m2.Mirror(MirrorArgs{SessionID: "flip", WorkerID: "wx", Seq: 1, Epoch: 1, Delta: d}, &mr); !errors.Is(err, ErrFenced) {
		t.Fatalf("deposed-epoch mirror after race replay: err=%v, want ErrFenced", err)
	}
}
