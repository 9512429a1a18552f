package core

import (
	"testing"

	"github.com/ipa-grid/ipa/internal/aida"
	"github.com/ipa-grid/ipa/internal/gsi"
	"github.com/ipa-grid/ipa/internal/merge"
	"github.com/ipa-grid/ipa/internal/rmi"
	"github.com/ipa-grid/ipa/internal/shard"
)

// dialData opens a data-plane connection carrying a fresh session's
// token for user cn, returning it with the session's ID.
func dialData(t *testing.T, g *LocalGrid, cn string) (*rmi.Client, string) {
	t.Helper()
	c, err := g.ClientFor(cn)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CreateSession(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.CloseSession() })
	rc, err := rmi.Dial(g.Manager.RMIAddr(), c.Token())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rc.Close() })
	return rc, c.SessionID()
}

// refuseAdmin checks that none of the fabric's admin calls is reachable
// under object with a live session token.
func refuseAdmin(t *testing.T, rc *rmi.Client, object, victim string) {
	t.Helper()
	if err := rc.Call(object+".SessionList", merge.SessionsArgs{}, &merge.SessionsReply{}); err == nil {
		t.Errorf("%s.SessionList served over the data plane", object)
	}
	if err := rc.Call(object+".Export", merge.ExportArgs{SessionID: victim}, &merge.ExportReply{}); err == nil {
		t.Errorf("%s.Export served over the data plane", object)
	}
	if err := rc.Call(object+".DropSession", merge.DropArgs{SessionID: victim}, &merge.DropReply{}); err == nil {
		t.Errorf("%s.DropSession served over the data plane", object)
	}
}

// TestDataPlaneHidesFabricAdmin: a live session token reaches only
// Publish/Poll/Reset on the front door and only Poll on a shard — never
// the calls that list, dump or delete other sessions' results.
func TestDataPlaneHidesFabricAdmin(t *testing.T) {
	g := newGrid(t, 100)
	// Another session's results, published in-process.
	const vsid = "someone-elses-session"
	tree := aida.NewTree()
	h, _ := tree.H1D("/a", "h", "", 10, 0, 10)
	h.Fill(1)
	d, err := tree.FullDelta()
	if err != nil {
		t.Fatal(err)
	}
	var pub merge.PublishReply
	if err := g.Merge.Publish(merge.PublishArgs{SessionID: vsid, WorkerID: "w0", Seq: 1, Delta: d}, &pub); err != nil || !pub.Accepted {
		t.Fatalf("victim publish: %v %+v", err, pub)
	}

	attacker, _ := dialData(t, g, "alice")
	refuseAdmin(t, attacker, merge.RMIObjectName, vsid)
	if v := g.Merge.Version(vsid); v != pub.Version {
		t.Fatalf("victim session version = %d after the attack, want %d", v, pub.Version)
	}

	sg, err := NewLocalGrid(GridOptions{Nodes: 2, BaseDir: t.TempDir(), Shards: 2, Insecure: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sg.Close)
	if _, err := sg.AddUser("carol", gsi.RoleAnalyst); err != nil {
		t.Fatal(err)
	}
	rc, sid := dialData(t, sg, "carol")
	for _, name := range sg.Router.Shards() {
		refuseAdmin(t, rc, shard.ObjectName(name), sid)
		var poll merge.PollReply
		if err := rc.Call(shard.ObjectName(name)+".Poll", merge.PollArgs{SessionID: sid}, &poll); err != nil {
			t.Fatalf("direct shard poll refused: %v", err)
		}
	}
}
