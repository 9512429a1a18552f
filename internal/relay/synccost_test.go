package relay_test

import (
	"math"
	"runtime"
	"testing"

	"github.com/ipa-grid/ipa/internal/aida"
	"github.com/ipa-grid/ipa/internal/merge"
	"github.com/ipa-grid/ipa/internal/relay"
)

// syncBytes returns the fewest bytes one relay sync allocated over a few
// rounds, each carrying one touched n×n 2D histogram whose frame the
// owner had already encoded for an earlier poll.
func syncBytes(t *testing.T, n int) uint64 {
	t.Helper()
	const sid = "cost"
	owner := merge.NewManager()
	tree := aida.NewTree()
	h, err := tree.H2D("/h", "xy", "", n, 0, 1, n, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := merge.NewTransport(sid, "w0", owner)
	for i := 0; i < n*n; i++ {
		h.Fill(float64(i%n)/float64(n), float64(i/n)/float64(n))
	}
	sendSnap(t, tr, tree)
	rel := relay.New("cost", owner)
	defer rel.Close()
	if err := rel.Subscribe(sid); err != nil {
		t.Fatal(err)
	}
	if err := rel.SyncNow(sid); err != nil {
		t.Fatal(err)
	}
	best := uint64(math.MaxUint64)
	for round := 0; round < 5; round++ {
		h.Fill(0.5, 0.5)
		sendSnap(t, tr, tree)
		var pre merge.PollReply
		if err := owner.Poll(merge.PollArgs{SessionID: sid, SinceVersion: owner.Version(sid) - 1}, &pre); err != nil || len(pre.Entries) != 1 {
			t.Fatalf("owner poll: %d entries, %v", len(pre.Entries), err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := rel.SyncNow(sid)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	if v := rel.Local().Version(sid); v != 6 {
		t.Fatalf("relay copy at version %d after six syncs", v)
	}
	return best
}

// TestRelaySyncCostIsNotTheObjects: a sync installs the owner's encoded
// frames as they came, so what it allocates is a few bookkeeping
// records, whatever the size of the objects it carries.
func TestRelaySyncCostIsNotTheObjects(t *testing.T) {
	small, large := syncBytes(t, 10), syncBytes(t, 100)
	t.Logf("one sync allocated %d bytes for a 10×10 histogram and %d for a 100×100 one", small, large)
	if large > 4<<10 {
		t.Fatalf("one sync of a touched 100×100 histogram allocated %d bytes, want ≤ 4 KiB", large)
	}
	if large > small+1<<10 {
		t.Fatalf("one sync allocated %d bytes for a 100×100 histogram and %d for a 10×10 one; want within 1 KiB", large, small)
	}
}
