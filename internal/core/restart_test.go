package core

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/ipa-grid/ipa/internal/events"
	"github.com/ipa-grid/ipa/internal/gsi"
	"github.com/ipa-grid/ipa/internal/merge"
)

// A restart keeps no session records, so a merge session its logs bring
// back is unreachable. Startup drops it and compacts it out of the log:
// no manager holds it, and the log on disk replays to nothing.
func TestRestartDropsOrphanedMergeSessions(t *testing.T) {
	for _, shards := range []int{1, 2} {
		dir := t.TempDir()
		opts := GridOptions{
			Nodes: 2, BaseDir: filepath.Join(dir, "site"), WALDir: filepath.Join(dir, "wal"),
			Shards: shards, Insecure: true,
		}
		g, err := NewLocalGrid(opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.AddUser("alice", gsi.RoleAnalyst); err != nil {
			t.Fatal(err)
		}
		if err := g.PublishDataset("ds", "/lc/zh", "zh-events", 400, events.GenConfig{Seed: 5}, nil); err != nil {
			t.Fatal(err)
		}
		c, err := g.ClientFor("alice")
		if err != nil {
			t.Fatal(err)
		}
		if err := c.CreateSession(); err != nil {
			t.Fatal(err)
		}
		if _, err := c.AttachDataset("ds"); err != nil {
			t.Fatal(err)
		}
		src := `h = tree.h1d("/r", "n", "", 20, 0, 200); function process(ev) { h.fill(ev.n); }`
		if _, err := c.LoadScript("n", src, events.EventDecoderName, nil); err != nil {
			t.Fatal(err)
		}
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		waitFinished(t, c, 30*time.Second)
		if held := mergeSessions(t, g); len(held) != 1 {
			t.Fatalf("%d shards: the managers hold %v before the restart", shards, held)
		}
		// Closing the logs first leaves them as a crash would: the
		// session's teardown is never written.
		for _, w := range g.wals {
			w.Close()
		}
		g.Close()

		g, err = NewLocalGrid(opts)
		if err != nil {
			t.Fatal(err)
		}
		if held := mergeSessions(t, g); len(held) != 0 {
			t.Errorf("%d shards: sessions %v survived the restart", shards, held)
		}
		g.Close()

		empty := filepath.Join(t.TempDir(), "empty.wal")
		w, err := merge.OpenWAL(empty, merge.WALOptions{})
		if err != nil {
			t.Fatal(err)
		}
		w.Close()
		logs, _ := filepath.Glob(filepath.Join(opts.WALDir, "*.wal"))
		if len(logs) != max(shards, 1) {
			t.Fatalf("%d shards: logs %v", shards, logs)
		}
		for _, path := range logs {
			if size, bare := fileSize(t, path), fileSize(t, empty); size != bare {
				t.Errorf("%d shards: %s holds %d bytes after compaction, an empty log %d", shards, filepath.Base(path), size, bare)
			}
			m := merge.NewManager()
			w, err := merge.OpenWAL(path, merge.WALOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Replay(m); err != nil {
				t.Fatal(err)
			}
			w.Close()
			var list merge.SessionsReply
			m.SessionList(merge.SessionsArgs{}, &list)
			if len(list.SessionIDs) != 0 {
				t.Errorf("%d shards: %s replays sessions %v", shards, filepath.Base(path), list.SessionIDs)
			}
		}
	}
}

// mergeSessions lists the sessions every merge manager of g holds.
func mergeSessions(t *testing.T, g *LocalGrid) []string {
	t.Helper()
	mgrs := []*merge.Manager{}
	for _, m := range g.ShardMgrs {
		mgrs = append(mgrs, m)
	}
	if m, ok := g.Merge.(*merge.Manager); ok {
		mgrs = append(mgrs, m)
	}
	var held []string
	for _, m := range mgrs {
		var list merge.SessionsReply
		if err := m.SessionList(merge.SessionsArgs{}, &list); err != nil {
			t.Fatal(err)
		}
		held = append(held, list.SessionIDs...)
	}
	return held
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}
