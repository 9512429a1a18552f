package core

import (
	"strings"
	"testing"

	"github.com/ipa-grid/ipa/internal/aida"
	"github.com/ipa-grid/ipa/internal/gsi"
	"github.com/ipa-grid/ipa/internal/merge"
	"github.com/ipa-grid/ipa/internal/relay"
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

// publishOne publishes a one-histogram tree into session sid in process,
// as an engine does, and returns the session's version after it.
func publishOne(t *testing.T, fabric merge.Service, sid string) int64 {
	t.Helper()
	tree := aida.NewTree()
	h, _ := tree.H1D("/a", "h", "", 10, 0, 10)
	h.Fill(1)
	d, err := tree.FullDelta()
	if err != nil {
		t.Fatal(err)
	}
	var pub merge.PublishReply
	if err := fabric.Publish(merge.PublishArgs{SessionID: sid, WorkerID: "w0", Seq: 1, Delta: d}, &pub); err != nil || !pub.Accepted {
		t.Fatalf("publish into %s: %v %+v", sid, err, pub)
	}
	return pub.Version
}

// TestDataPlaneHidesFabricAdmin: a live session token reaches only Poll
// on the front door and on a shard — never the calls that list, dump or
// delete other sessions' results.
func TestDataPlaneHidesFabricAdmin(t *testing.T) {
	g := newGrid(t, 100)
	// Another session's results, published in-process.
	const vsid = "someone-elses-session"
	version := publishOne(t, g.Merge, vsid)

	attacker, _ := dialData(t, g, "alice")
	refuseAdmin(t, attacker, merge.RMIObjectName, vsid)
	if v := g.Merge.Version(vsid); v != version {
		t.Fatalf("victim session version = %d after the attack, want %d", v, version)
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

// TestDataPlaneScopesReadsToTheTokenSession: over a real RMI hop on a
// sharded, relay-fronted grid, alice's token polls her own session at
// the front door, at every shard and at the relay, and is refused bob's
// session at each of them; the relay does not subscribe the refused
// session. The data plane serves no writes: Publish and Reset have no
// method.
func TestDataPlaneScopesReadsToTheTokenSession(t *testing.T) {
	g, err := NewLocalGrid(GridOptions{Nodes: 2, BaseDir: t.TempDir(), Shards: 2, Relays: 1, Insecure: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	if _, err := g.AddUser("alice", gsi.RoleAnalyst); err != nil {
		t.Fatal(err)
	}
	rc, own := dialData(t, g, "alice")
	// Bob's results, published in process as his engines would.
	const bob = "bobs-session"
	publishOne(t, g.Merge, own)
	publishOne(t, g.Merge, bob)

	relayName, _ := g.Router.RelayFor(own)
	objects := []string{merge.RMIObjectName, relay.ObjectName(relayName)}
	for _, name := range g.Router.Shards() {
		objects = append(objects, shard.ObjectName(name))
	}
	owners := map[string]bool{
		merge.RMIObjectName:                       true,
		relay.ObjectName(relayName):               true,
		shard.ObjectName(g.Router.Placement(own)): true,
	}
	for _, object := range objects {
		var mine merge.PollReply
		if err := rc.Call(object+".Poll", merge.PollArgs{SessionID: own}, &mine); err != nil {
			t.Fatalf("%s refused the token's own session: %v", object, err)
		}
		if owners[object] && len(mine.Entries) != 1 {
			t.Errorf("%s served %d objects of the token's own session, want 1", object, len(mine.Entries))
		}
		mine.Release()
		var theirs merge.PollReply
		if err := rc.Call(object+".Poll", merge.PollArgs{SessionID: bob, Full: true}, &theirs); err == nil {
			t.Errorf("%s served another session's results (%d objects) to a token", object, len(theirs.Entries))
			theirs.Release()
		}
	}
	if n := g.Relays[relayName].Stats().Sessions; n != 1 {
		t.Errorf("relay follows %d sessions after a refused poll, want only the token's own", n)
	}
	for _, method := range []string{"Publish", "Reset"} {
		err := rc.Call(merge.RMIObjectName+"."+method, merge.ResetArgs{SessionID: own}, &merge.ResetReply{})
		if err == nil || !strings.Contains(err.Error(), "has no method") {
			t.Errorf("%s.%s over the data plane: %v, want has no method", merge.RMIObjectName, method, err)
		}
	}
}
