package core

import (
	"path"
	"strings"
	"testing"
	"time"

	"github.com/ipa-grid/ipa/internal/engine"
	"github.com/ipa-grid/ipa/internal/events"
	"github.com/ipa-grid/ipa/internal/gsi"
	"github.com/ipa-grid/ipa/internal/merge"
	"github.com/ipa-grid/ipa/internal/rmi"
)

// newGrid stands up a 4-node secure grid with one published dataset.
func newGrid(t *testing.T, nEvents int) *LocalGrid {
	t.Helper()
	g, err := NewLocalGrid(GridOptions{Nodes: 4, BaseDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	if _, err := g.AddUser("alice", gsi.RoleAnalyst); err != nil {
		t.Fatal(err)
	}
	err = g.PublishDataset("ds-zh", "/lc/zh", "zh-events", nEvents,
		events.GenConfig{Seed: 42, SignalFraction: 0.3},
		map[string]string{"detector": "sid", "energy": "500"})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// waitFinished polls status until every engine reports Finished.
func waitFinished(t *testing.T, c *Client, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		st, err := c.Status()
		if err != nil {
			t.Fatal(err)
		}
		all := len(st.Engines) > 0
		for _, e := range st.Engines {
			if e.State == string(engine.StateError) {
				t.Fatalf("engine on %s failed: %s", e.Node, e.Err)
			}
			if e.State != string(engine.StateFinished) {
				all = false
			}
		}
		if all {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	st, _ := c.Status()
	t.Fatalf("engines did not finish: %+v", st.Engines)
}

// TestFullWorkflow exercises the paper's four client steps end to end over
// real GSI TLS + RMI on loopback.
func TestFullWorkflow(t *testing.T) {
	g := newGrid(t, 2000)
	c, err := g.ClientFor("alice")
	if err != nil {
		t.Fatal(err)
	}
	// Step 1-2: secure connect + session (engines start as scheduler jobs).
	if err := c.CreateSession(); err != nil {
		t.Fatal(err)
	}
	defer c.CloseSession()
	if c.SessionID() == "" || c.Token() == "" {
		t.Fatal("no session identity")
	}

	// Browse the catalog like the Figure 3 dialog.
	entries, err := c.ListCatalog("/lc/zh")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].ID != "ds-zh" {
		t.Fatalf("catalog entries = %+v", entries)
	}
	// And by query.
	hits, err := c.QueryCatalog(`detector == "sid" && records >= 2000`)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 {
		t.Fatalf("query hits = %+v", hits)
	}

	// Step 3: attach (locate → plan the split → stream the parts).
	times, err := c.AttachDataset("ds-zh")
	if err != nil {
		t.Fatal(err)
	}
	if times.Parts != 4 {
		t.Fatalf("staged into %d parts", times.Parts)
	}

	// Step 4: upload a script and run.
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

	// Collect merged results via RMI polling.
	up, err := c.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if !up.Changed {
		t.Fatal("no updates after run")
	}
	h := c.Histogram1D("/ana/mult")
	if h == nil {
		t.Fatalf("merged histogram missing; changed paths %v", up.ChangedPaths)
	}
	if h.AllEntries() != 2000 {
		t.Fatalf("merged entries = %d, want 2000 (every event exactly once)", h.AllEntries())
	}
	if up.EventsDone != 2000 {
		t.Fatalf("progress = %d", up.EventsDone)
	}
}

func TestRewindAndHotReload(t *testing.T) {
	g := newGrid(t, 800)
	c, _ := g.ClientFor("alice")
	if err := c.CreateSession(); err != nil {
		t.Fatal(err)
	}
	defer c.CloseSession()
	if _, err := c.AttachDataset("ds-zh"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.LoadScript("v1", `
		h = tree.h1d("/a", "v1", "", 10, 0, 200);
		function process(ev) { h.fill(ev.n); }
	`, events.EventDecoderName, nil); err != nil {
		t.Fatal(err)
	}
	c.Run()
	waitFinished(t, c, 30*time.Second)
	if _, err := c.Poll(); err != nil {
		t.Fatal(err)
	}
	if c.Histogram1D("/a/v1") == nil {
		t.Fatal("v1 histogram missing")
	}

	// Fine-tune the code and rewind — the paper's central loop (§3.6).
	if _, err := c.LoadScript("v1", `
		h = tree.h1d("/a", "v2", "", 10, 0, 500);
		function process(ev) { h.fill(ev.n * 2); }
	`, events.EventDecoderName, nil); err != nil {
		t.Fatal(err)
	}
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
	if c.Histogram1D("/a/v2") == nil {
		t.Fatal("v2 histogram missing after hot reload")
	}
	if c.Histogram1D("/a/v1") != nil {
		t.Fatal("stale v1 histogram survived the rewind")
	}
}

func TestStepPauseResume(t *testing.T) {
	g := newGrid(t, 1000)
	c, _ := g.ClientFor("alice")
	if err := c.CreateSession(); err != nil {
		t.Fatal(err)
	}
	defer c.CloseSession()
	c.AttachDataset("ds-zh")
	c.LoadScript("s", `
		h = tree.h1d("/a", "h", "", 10, 0, 200);
		function process(ev) { h.fill(ev.n); }
	`, events.EventDecoderName, nil)
	// Step 50 events per engine (4 engines → 200 events).
	if err := c.Step(50); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	var done int64
	for time.Now().Before(deadline) {
		up, err := c.Poll()
		if err != nil {
			t.Fatal(err)
		}
		done = up.EventsDone
		if done == 200 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if done != 200 {
		t.Fatalf("stepped %d events, want 200", done)
	}
	// Resume to the end.
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	waitFinished(t, c, 30*time.Second)
	up, _ := c.Poll()
	if up.EventsDone != 1000 {
		t.Fatalf("final events = %d", up.EventsDone)
	}
}

func TestHiggsNativeAnalysisEndToEnd(t *testing.T) {
	g := newGrid(t, 3000)
	c, _ := g.ClientFor("alice")
	if err := c.CreateSession(); err != nil {
		t.Fatal(err)
	}
	defer c.CloseSession()
	c.AttachDataset("ds-zh")
	if _, err := c.LoadNative("higgs", events.HiggsAnalysisName, map[string]string{"minE": "20"}); err != nil {
		t.Fatal(err)
	}
	c.Run()
	waitFinished(t, c, 60*time.Second)
	c.Poll()
	h := c.Histogram1D("/higgs/dijet-mass")
	if h == nil {
		t.Fatal("dijet mass histogram missing")
	}
	// The peak must sit near the generated Higgs mass.
	ax := h.Axis()
	best, bestH := 0.0, -1.0
	for i := 0; i < ax.Bins(); i++ {
		cn := ax.BinCenter(i)
		if cn >= 100 && cn <= 140 && h.BinHeight(i) > bestH {
			best, bestH = cn, h.BinHeight(i)
		}
	}
	if bestH <= 0 || best < 110 || best > 130 {
		t.Fatalf("merged Higgs peak at %.1f GeV (height %.0f)", best, bestH)
	}
}

func TestBadScriptUploadRejected(t *testing.T) {
	g := newGrid(t, 100)
	c, _ := g.ClientFor("alice")
	if err := c.CreateSession(); err != nil {
		t.Fatal(err)
	}
	defer c.CloseSession()
	if _, err := c.LoadScript("bad", "function process( {", events.EventDecoderName, nil); err == nil {
		t.Fatal("syntax error accepted at upload")
	}
	if _, err := c.AttachDataset("ds-zh"); err != nil {
		t.Fatalf("session unusable after rejected upload: %v", err)
	}
}

func TestMonitorRoleDeniedSessionCreation(t *testing.T) {
	g := newGrid(t, 100)
	if _, err := g.AddUser("watcher", gsi.RoleMonitor); err != nil {
		t.Fatal(err)
	}
	c, err := g.ClientFor("watcher")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CreateSession(); err == nil {
		t.Fatal("monitor role created a session")
	} else if !strings.Contains(err.Error(), "Denied") && !strings.Contains(err.Error(), "authorized") {
		t.Fatalf("unexpected error: %v", err)
	}
	// But catalog reads are allowed.
	if _, err := c.ListCatalog("/"); err != nil {
		t.Fatalf("monitor denied catalog read: %v", err)
	}
}

func TestUnknownUserDenied(t *testing.T) {
	g := newGrid(t, 100)
	// eve has a CA-signed cert but no VO membership.
	cred, err := g.CA.IssueUser("lc-vo", "eve", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	proxy, _ := gsi.NewProxy(cred, time.Hour)
	c, err := Connect(g.Manager.Addr(), proxy, g.CA)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CreateSession(); err == nil {
		t.Fatal("non-VO user created a session")
	}
}

func TestRMIRequiresLiveToken(t *testing.T) {
	g := newGrid(t, 100)
	c, _ := g.ClientFor("alice")
	if err := c.CreateSession(); err != nil {
		t.Fatal(err)
	}
	sid, token := c.SessionID(), c.Token()
	// Closing the session invalidates the token; polling with it must fail.
	if err := c.CloseSession(); err != nil {
		t.Fatal(err)
	}
	rc, err := rmi.Dial(g.Manager.RMIAddr(), token)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	var reply merge.PollReply
	if err := rc.Call("AIDAManager.Poll", merge.PollArgs{SessionID: sid, Full: true}, &reply); err == nil {
		t.Fatal("poll with a closed session's token accepted")
	}
	c2, _ := g.ClientFor("alice")
	if err := c2.CreateSession(); err != nil {
		t.Fatal(err)
	}
	defer c2.CloseSession()
	// Fresh session works.
	if _, err := c2.Poll(); err != nil {
		t.Fatalf("fresh token rejected: %v", err)
	}
}

func TestSessionCloseFreesNodes(t *testing.T) {
	g := newGrid(t, 100)
	c, _ := g.ClientFor("alice")
	if err := c.CreateSession(); err != nil {
		t.Fatal(err)
	}
	if g.Cluster.RunningCount() != 4 {
		t.Fatalf("running jobs = %d, want 4 engines", g.Cluster.RunningCount())
	}
	if err := c.CloseSession(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for g.Cluster.RunningCount() != 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if n := g.Cluster.RunningCount(); n != 0 {
		t.Fatalf("%d engine jobs still running after close", n)
	}
	// A second session starts cleanly on the freed nodes.
	c2, _ := g.ClientFor("alice")
	if err := c2.CreateSession(); err != nil {
		t.Fatal(err)
	}
	c2.CloseSession()
}

// TestSessionCloseDeletesStagedParts: a LocalGrid dataset is a file://
// replica that the engines read in place, so a session stages nothing on
// the workers' scratch disks, before or after Close. (Close deleting the
// parts staged from a gsiftp:// replica is checked in internal/session.)
func TestSessionCloseDeletesStagedParts(t *testing.T) {
	g := newGrid(t, 500)
	c, err := g.ClientFor("alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CreateSession(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AttachDataset("ds-zh"); err != nil {
		t.Fatal(err)
	}
	dir := path.Join("/scratch", c.SessionID())
	holding := func() []string {
		g.mu.Lock()
		defer g.mu.Unlock()
		var nodes []string
		for node, el := range g.scratch {
			if el.Exists(dir) {
				nodes = append(nodes, node)
			}
		}
		return nodes
	}
	if nodes := holding(); len(nodes) != 0 {
		t.Fatalf("staging a file:// replica wrote %s on %v", dir, nodes)
	}
	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, e := range st.Engines {
		total += e.Total
	}
	if total != 500 {
		t.Fatalf("engines' ranges hold %d records, want the dataset's 500", total)
	}
	if err := c.CloseSession(); err != nil {
		t.Fatal(err)
	}
	if nodes := holding(); len(nodes) != 0 {
		t.Fatalf("closed session left %s on %v", dir, nodes)
	}
}

// TestSessionOpsRequireOwner: a VO member holding another user's session
// ID cannot drive that session; its owner still can.
func TestSessionOpsRequireOwner(t *testing.T) {
	g := newGrid(t, 400)
	if _, err := g.AddUser("bob", gsi.RoleAnalyst); err != nil {
		t.Fatal(err)
	}
	alice, err := g.ClientFor("alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.CreateSession(); err != nil {
		t.Fatal(err)
	}
	defer alice.CloseSession()
	bob, err := g.ClientFor("bob")
	if err != nil {
		t.Fatal(err)
	}
	bob.sessionID = alice.SessionID()
	if _, err := bob.AttachDataset("ds-zh"); err == nil {
		t.Error("bob attached a dataset to alice's session")
	}
	if _, err := bob.LoadNative("higgs", events.HiggsAnalysisName, nil); err == nil {
		t.Error("bob loaded code into alice's session")
	}
	if err := bob.Run(); err == nil {
		t.Error("bob ran alice's session")
	}
	if _, err := bob.Status(); err == nil {
		t.Error("bob read alice's session status")
	}
	if err := bob.CloseSession(); err == nil {
		t.Error("bob closed alice's session")
	}
	if _, err := alice.AttachDataset("ds-zh"); err != nil {
		t.Fatalf("owner refused: %v", err)
	}
	if _, err := alice.LoadNative("higgs", events.HiggsAnalysisName, nil); err != nil {
		t.Fatalf("owner refused: %v", err)
	}
	if err := alice.Step(10); err != nil {
		t.Fatalf("owner refused: %v", err)
	}
}

// TestSecureControlRefusesPlainTCP: the control object is also reachable
// on the plain data listener, but a secure manager refuses every control
// call there — there is no verified identity, and a DN the client writes
// into the request is overwritten.
func TestSecureControlRefusesPlainTCP(t *testing.T) {
	g := newGrid(t, 100)
	c, err := g.ClientFor("alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CreateSession(); err != nil {
		t.Fatal(err)
	}
	defer c.CloseSession()
	rc, err := rmi.Dial(g.Manager.RMIAddr(), c.Token())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	g.mu.Lock()
	dn := g.users["alice"].DN()
	g.mu.Unlock()
	var created CreateSessionResponse
	if err := rc.Call(ControlObject+".CreateSession", CreateSessionRequest{Caller{DN: dn}}, &created); err == nil {
		t.Fatal("plain-TCP CreateSession accepted by a secure manager")
	}
	var st StatusResponse
	if err := rc.Call(ControlObject+".Status", SessionRequest{Caller{DN: dn}, c.SessionID()}, &st); err == nil {
		t.Fatal("plain-TCP Status accepted by a secure manager")
	}
	if _, err := c.Status(); err != nil {
		t.Fatalf("GSI control connection refused: %v", err)
	}
}
