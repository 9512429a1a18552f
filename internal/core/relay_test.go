package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"github.com/ipa-grid/ipa/internal/aida"
	"github.com/ipa-grid/ipa/internal/events"
	"github.com/ipa-grid/ipa/internal/gsi"
	"github.com/ipa-grid/ipa/internal/merge"
)

// TestRelayGridFailoverConvergence runs the full client workflow on a
// replicated, relay-fronted fabric: the client's reads resolve onto
// the relay tier (writes stay on the owning shard), and when the
// primary dies and a replica is promoted, the epoch change propagates
// shard → relay → client so the mirror full-resyncs and converges
// byte-identically to the promoted owner.
func TestRelayGridFailoverConvergence(t *testing.T) {
	g, err := NewLocalGrid(GridOptions{
		Nodes: 2, BaseDir: t.TempDir(), SnapshotEvery: 100,
		Shards: 3, Insecure: true,
		Replicate: true, ReplicaDepth: 1,
		Relays: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	if len(g.Relays) != 1 || g.Relays["relay00"] == nil {
		t.Fatalf("relay tier = %v", g.Relays)
	}
	if _, err := g.AddUser("dave", gsi.RoleAnalyst); err != nil {
		t.Fatal(err)
	}
	err = g.PublishDataset("ds-relay", "/lc/relay", "relay-events", 800,
		events.GenConfig{Seed: 11, SignalFraction: 0.3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := g.ClientFor("dave")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CreateSession(); err != nil {
		t.Fatal(err)
	}
	defer c.CloseSession()
	c.SetDirectPoll(true)
	if _, err := c.AttachDataset("ds-relay"); err != nil {
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
		t.Fatalf("merged histogram via relay = %+v", h)
	}
	if got := c.DirectShard(); got != "relay:relay00" {
		t.Fatalf("client reads resolved onto %q, want the relay tier", got)
	}
	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.RelayName != "relay00" || st.RelayAddr == "" {
		t.Fatalf("status relay = %q/%q", st.RelayName, st.RelayAddr)
	}
	if st.Shard == "" || st.ResultEpoch == 0 {
		t.Fatalf("status shard/epoch = %q/%d", st.Shard, st.ResultEpoch)
	}

	// Kill the primary: the replica is promoted under a fresh epoch.
	// The engines are done, so what the client sees afterwards is
	// exactly what the replica preserved plus the epoch-driven resync.
	if _, promoted := g.Router.MarkDead(st.Shard); len(promoted) == 0 {
		t.Fatalf("killing %s promoted no replicas", st.Shard)
	}
	deadline := time.Now().Add(10 * time.Second)
	var st2 StatusResponse
	for {
		st2, err = c.Status()
		if err != nil {
			t.Fatal(err)
		}
		if st2.ResultEpoch != 0 && st2.ResultEpoch != st.ResultEpoch {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ResultEpoch never flipped after failover: %d", st2.ResultEpoch)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st2.Shard == st.Shard {
		t.Fatalf("session still placed on the dead shard %s", st.Shard)
	}

	// The relay re-baselines on its next subscription polls and the
	// client's epoch rule forces a full resync through it; converge on
	// the promoted owner's exact state.
	for {
		if _, err := c.Poll(); err != nil {
			t.Fatal(err)
		}
		h := c.Histogram1D("/ana/mult")
		if h != nil && h.AllEntries() == 800 && relayMatchesOwner(t, g, c.SessionID()) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("client never converged after failover: %+v", h)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestClientPollWait: on a relay-fronted fabric, PollWait parks at the
// relay and returns as soon as a publish lands — far sooner than its
// wait — and with nothing new it returns unchanged once the wait has
// passed, while Poll never blocks.
func TestClientPollWait(t *testing.T) {
	g, err := NewLocalGrid(GridOptions{
		Nodes: 1, BaseDir: t.TempDir(), Shards: 2, Insecure: true, Relays: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	if _, err := g.AddUser("erin", gsi.RoleAnalyst); err != nil {
		t.Fatal(err)
	}
	c, err := g.ClientFor("erin")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CreateSession(); err != nil {
		t.Fatal(err)
	}
	defer c.CloseSession()
	c.SetDirectPoll(true)

	tree := aida.NewTree()
	h, err := tree.H1D("/w", "x", "", 10, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	tr := merge.NewTransport(c.SessionID(), "w0", g.Merge)
	publish := func(x float64) {
		t.Helper()
		h.Fill(x)
		if _, err := tr.Send(func(full bool) (merge.Snapshot, error) {
			if full {
				d, err := tree.FullDelta()
				return merge.Snapshot{Delta: d}, err
			}
			d, err := tree.Delta()
			return merge.Snapshot{Delta: d}, err
		}); err != nil {
			t.Fatal(err)
		}
	}
	publish(1)
	if up, err := c.PollWait(time.Minute); err != nil || !up.Changed {
		t.Fatalf("first PollWait = %+v, %v", up, err)
	}
	if got := c.DirectShard(); got != "relay:relay00" {
		t.Fatalf("reads resolved onto %q, want the relay", got)
	}

	done := make(chan error, 1)
	go func() {
		up, err := c.PollWait(time.Minute)
		if err == nil && !up.Changed {
			err = fmt.Errorf("woke unchanged: %+v", up)
		}
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let it park; either order must pass
	t0 := time.Now()
	publish(2)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a publish did not end a parked PollWait")
	}
	if d := time.Since(t0); d > time.Second {
		t.Fatalf("PollWait returned %v after the publish", d)
	}
	if h := c.Histogram1D("/w/x"); h == nil || h.AllEntries() != 2 {
		t.Fatalf("mirror after PollWait = %+v", h)
	}

	const wait = 50 * time.Millisecond
	t0 = time.Now()
	if up, err := c.PollWait(wait); err != nil || up.Changed {
		t.Fatalf("idle PollWait = %+v, %v", up, err)
	}
	if d := time.Since(t0); d < wait {
		t.Fatalf("idle PollWait returned after %v, before its %v wait", d, wait)
	}
	t0 = time.Now()
	if up, err := c.Poll(); err != nil || up.Changed {
		t.Fatalf("idle Poll = %+v, %v", up, err)
	}
	if d := time.Since(t0); d > wait {
		t.Fatalf("Poll blocked for %v", d)
	}
}

// relayMatchesOwner compares the relay's full served frames against
// the owning shard's, byte for byte.
func relayMatchesOwner(t *testing.T, g *LocalGrid, sid string) bool {
	t.Helper()
	read := func(p interface {
		Poll(merge.PollArgs, *merge.PollReply) error
	}) map[string][]byte {
		var reply merge.PollReply
		if err := p.Poll(merge.PollArgs{SessionID: sid, Full: true}, &reply); err != nil {
			t.Fatal(err)
		}
		out := make(map[string][]byte, len(reply.Entries))
		for _, e := range reply.Entries {
			st, err := e.State()
			if err != nil {
				t.Fatal(err)
			}
			buf, err := aida.AppendObjectState(nil, &st)
			if err != nil {
				t.Fatal(err)
			}
			out[e.Path] = buf
		}
		return out
	}
	op := g.Router.OriginPoller()
	want := read(&op)
	got := read(g.Relays["relay00"])
	if len(want) == 0 || len(want) != len(got) {
		return false
	}
	for k, v := range want {
		if !bytes.Equal(got[k], v) {
			return false
		}
	}
	return true
}
