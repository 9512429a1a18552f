package core

import (
	"strings"
	"testing"
	"time"

	"github.com/ipa-grid/ipa/internal/events"
	"github.com/ipa-grid/ipa/internal/gsi"
)

// TestShardedGridEndToEnd runs the full client workflow against a
// 3-shard merge fabric — publishes and polls cross the router over real
// RMI — then forces a live handoff of the session's shard mid-session
// and re-runs the analysis on its new owner.
func TestShardedGridEndToEnd(t *testing.T) {
	g, err := NewLocalGrid(GridOptions{
		Nodes: 4, BaseDir: t.TempDir(),
		Shards: 3, Insecure: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	if g.Router == nil || len(g.Router.Shards()) != 3 {
		t.Fatalf("sharded grid has router %v shards %v", g.Router, g.Router.Shards())
	}
	if _, err := g.AddUser("alice", gsi.RoleAnalyst); err != nil {
		t.Fatal(err)
	}
	err = g.PublishDataset("ds-zh", "/lc/zh", "zh-events", 2000,
		events.GenConfig{Seed: 42, SignalFraction: 0.3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := g.ClientFor("alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CreateSession(); err != nil {
		t.Fatal(err)
	}
	defer c.CloseSession()
	if _, err := c.AttachDataset("ds-zh"); err != nil {
		t.Fatal(err)
	}
	src := `
	h = tree.h1d("/ana", "mult", "Multiplicity", 50, 0, 200);
	function process(ev) { h.fill(ev.n); }
	`
	if _, err := c.LoadScript("mult", src, events.EventDecoderName, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	waitFinished(t, c, 30*time.Second)
	up, err := c.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if !up.Changed {
		t.Fatal("no updates after run on sharded fabric")
	}
	if h := c.Histogram1D("/ana/mult"); h == nil || h.AllEntries() != 2000 {
		t.Fatalf("merged histogram = %+v", h)
	}
	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Shard == "" {
		t.Fatal("status does not report the owning shard")
	}

	// Live handoff: retire the session's current shard; its state must
	// migrate and polls keep answering from the new owner.
	if err := g.Router.RemoveShard(st.Shard); err != nil {
		t.Fatal(err)
	}
	st2, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st2.Shard == st.Shard || st2.Shard == "" {
		t.Fatalf("shard after handoff = %q (was %q)", st2.Shard, st.Shard)
	}
	if _, err := c.Poll(); err != nil {
		t.Fatal(err)
	}
	if h := c.Histogram1D("/ana/mult"); h == nil || h.AllEntries() != 2000 {
		t.Fatalf("merged histogram after handoff = %+v", h)
	}

	// Rewind and re-run: resets and fresh publishes all land on the new
	// owner through the router.
	if err := c.Rewind(); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	waitFinished(t, c, 30*time.Second)
	if _, err := c.Poll(); err != nil {
		t.Fatal(err)
	}
	if h := c.Histogram1D("/ana/mult"); h == nil || h.AllEntries() != 2000 {
		t.Fatalf("merged histogram after rewind on new shard = %+v", h)
	}
}

// TestDirectShardPolling: a shard-aware client learns the owning
// shard's RMI endpoint from Status and polls the shard object directly;
// after a live handoff retires that shard, the direct path detects the
// move (tombstone version regression or endpoint error), falls back to
// the router, and re-resolves onto the new owner.
func TestDirectShardPolling(t *testing.T) {
	g, err := NewLocalGrid(GridOptions{
		Nodes: 2, BaseDir: t.TempDir(),
		Shards: 3, Insecure: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	if _, err := g.AddUser("bob", gsi.RoleAnalyst); err != nil {
		t.Fatal(err)
	}
	err = g.PublishDataset("ds-direct", "/lc/direct", "direct-events", 800,
		events.GenConfig{Seed: 7, SignalFraction: 0.3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := g.ClientFor("bob")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CreateSession(); err != nil {
		t.Fatal(err)
	}
	defer c.CloseSession()
	c.SetDirectPoll(true)
	if _, err := c.AttachDataset("ds-direct"); err != nil {
		t.Fatal(err)
	}
	src := `
	h = tree.h1d("/ana", "mult", "Multiplicity", 50, 0, 200);
	function process(ev) { h.fill(ev.n); }
	`
	if _, err := c.LoadScript("mult", src, events.EventDecoderName, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	waitFinished(t, c, 30*time.Second)
	if _, err := c.Poll(); err != nil {
		t.Fatal(err)
	}
	if h := c.Histogram1D("/ana/mult"); h == nil || h.AllEntries() != 800 {
		t.Fatalf("merged histogram via direct poll = %+v", h)
	}
	direct := c.DirectShard()
	if direct == "" {
		t.Fatal("client never established a direct shard connection")
	}
	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Shard != direct || st.ShardAddr == "" {
		t.Fatalf("status shard/addr = %q/%q, direct = %q", st.Shard, st.ShardAddr, direct)
	}

	// Retire the owning shard: the tombstone left behind answers the
	// next direct poll with a regressed version, which must trigger
	// fallback and re-resolution onto the new owner.
	if err := g.Router.RemoveShard(direct); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Poll(); err != nil {
		t.Fatal(err)
	}
	if h := c.Histogram1D("/ana/mult"); h == nil || h.AllEntries() != 800 {
		t.Fatalf("merged histogram after handoff = %+v", h)
	}
	// The next poll re-resolves the direct path onto the new owner.
	if _, err := c.Poll(); err != nil {
		t.Fatal(err)
	}
	if got := c.DirectShard(); got == "" || got == direct {
		t.Fatalf("direct shard after handoff = %q (was %q)", got, direct)
	}
}

// TestDirectPollUnshardedDisables: on an unsharded grid the toggle
// finds no shard endpoint to dial and quietly turns itself off.
func TestDirectPollUnshardedDisables(t *testing.T) {
	g, err := NewLocalGrid(GridOptions{Nodes: 1, BaseDir: t.TempDir(), Insecure: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	if _, err := g.AddUser("carol", gsi.RoleAnalyst); err != nil {
		t.Fatal(err)
	}
	c, err := g.ClientFor("carol")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CreateSession(); err != nil {
		t.Fatal(err)
	}
	defer c.CloseSession()
	c.SetDirectPoll(true)
	if _, err := c.Poll(); err != nil {
		t.Fatal(err)
	}
	if got := c.DirectShard(); got != "" {
		t.Fatalf("unsharded grid produced a direct shard %q", got)
	}
	c.mu.Lock()
	stillOn := c.direct
	c.mu.Unlock()
	if stillOn {
		t.Fatal("direct mode still on after resolving an unsharded fabric")
	}
}

// TestUnshardedGridRejectsShardOnlyOptions: replicas and relays exist
// only on a sharded fabric, so asking an unsharded site for them is an
// error that names the option, not a site that starts without them.
func TestUnshardedGridRejectsShardOnlyOptions(t *testing.T) {
	for _, tc := range []struct {
		option string
		opts   GridOptions
	}{
		{"Replicate", GridOptions{Replicate: true}},
		{"ReplicaDepth", GridOptions{ReplicaDepth: 2}},
		{"Relays", GridOptions{Relays: 2}},
		{"Relays", GridOptions{Shards: 1, Relays: 1}},
	} {
		tc.opts.Nodes, tc.opts.BaseDir, tc.opts.Insecure = 1, t.TempDir(), true
		g, err := NewLocalGrid(tc.opts)
		if err == nil {
			g.Close()
			t.Fatalf("unsharded grid accepted %s", tc.option)
		}
		if !strings.Contains(err.Error(), tc.option) {
			t.Fatalf("error %q does not name %s", err, tc.option)
		}
	}
}
