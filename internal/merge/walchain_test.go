package merge_test

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/ipa-grid/ipa/internal/aida"
	"github.com/ipa-grid/ipa/internal/merge"
	"github.com/ipa-grid/ipa/internal/shard"
)

// replicatedWALRouter builds a two-shard, K=1 replicating router whose
// managers both log to WALs under dir.
func replicatedWALRouter(t *testing.T, dir string) (*shard.Router, map[string]*merge.Manager, map[string]*merge.WAL) {
	t.Helper()
	r := shard.NewRouter(0)
	r.Replicate, r.ReplicaDepth = true, 1
	mgrs := make(map[string]*merge.Manager)
	wals := make(map[string]*merge.WAL)
	for _, name := range []string{"shard00", "shard01"} {
		w, err := merge.OpenWAL(filepath.Join(dir, name+".wal"), merge.WALOptions{SyncEvery: 8})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		m := merge.NewManager()
		m.SetWAL(w)
		mgrs[name], wals[name] = m, w
		if err := r.AddShard(name, m); err != nil {
			t.Fatal(err)
		}
	}
	return r, mgrs, wals
}

// publishWide sends n snapshots of a wide tree (deltas of several KiB,
// well above the compression policy's size floor) through tp, calling
// after (when non-nil) once each has been accepted.
func publishWide(t *testing.T, tp *merge.Transport, n int, after func(sent int)) {
	t.Helper()
	tree := aida.NewTree()
	var hs []*aida.Histogram1D
	for i := 0; i < 8; i++ {
		h, err := tree.H1D("/wide", fmt.Sprintf("h%d", i), "x", 100, 0, 100)
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	for s := 0; s < n; s++ {
		for i, h := range hs {
			for k := 0; k < 100; k++ {
				h.FillW(float64(k), float64(s+i+1))
			}
		}
		rep, err := tp.Send(func(full bool) (merge.Snapshot, error) {
			var d *aida.DeltaState
			var err error
			if full {
				d, err = tree.FullDelta()
			} else {
				d, err = tree.Delta()
			}
			return merge.Snapshot{Delta: d, Done: int64(s), Total: int64(n)}, err
		})
		if err != nil || !rep.Accepted {
			t.Fatalf("send %d: %v %+v", s, err, rep)
		}
		if after != nil {
			after(s + 1)
		}
	}
}

// waitCaughtUp waits until both copies of sid hold the same version —
// the asynchronous mirror stream has delivered every accepted publish.
func waitCaughtUp(t *testing.T, mgrs map[string]*merge.Manager, sid string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var versions []int64
		for _, m := range mgrs {
			versions = append(versions, m.Version(sid))
		}
		if versions[0] > 0 && versions[0] == versions[1] {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("copies of %s stuck at versions %v", sid, versions)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWALReplicaLogsThePrimaryBytes: with K=1, the delta payload the
// replica logs for each mirrored publish is byte-identical to the one
// the primary logged.
func TestWALReplicaLogsThePrimaryBytes(t *testing.T) {
	const n = 12
	dir := t.TempDir()
	r, mgrs, wals := replicatedWALRouter(t, dir)
	// Let the chain seed from the baseline first, so no later mirror is
	// already covered by the seeding import.
	publishWide(t, merge.NewTransport("sess", "w0", r), n, func(sent int) {
		if sent == 1 {
			waitCaughtUp(t, mgrs, "sess")
		}
	})
	waitCaughtUp(t, mgrs, "sess")
	frames := make(map[string][]byte)
	for name, w := range wals {
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := merge.WALDeltaFrames(filepath.Join(dir, name+".wal"))
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range got {
			frames[k] = v
		}
	}
	// The baseline's mirror may find the seeding import already holds it
	// (stale, so never logged); every mirror logged must match.
	mirrored := 0
	for k, mir := range frames {
		key, ok := strings.CutPrefix(k, "mirror ")
		if !ok {
			continue
		}
		mirrored++
		pub, ok := frames["publish "+key]
		if !ok {
			t.Fatalf("mirror %s has no publish record", key)
		}
		if string(mir) != string(pub) {
			t.Fatalf("%s: replica logged %d bytes that differ from the primary's %d", key, len(mir), len(pub))
		}
	}
	if published := len(frames) - mirrored; published != n || mirrored < n-1 {
		t.Fatalf("logs hold %d publish and %d mirror records, want %d and at least %d", published, mirrored, n, n-1)
	}
}
