package session

import (
	"fmt"
	"testing"
	"time"

	"github.com/ipa-grid/ipa/internal/catalog"
	"github.com/ipa-grid/ipa/internal/codeloader"
	"github.com/ipa-grid/ipa/internal/engine"
	"github.com/ipa-grid/ipa/internal/locator"
	"github.com/ipa-grid/ipa/internal/merge"
	"github.com/ipa-grid/ipa/internal/scheduler"
	"github.com/ipa-grid/ipa/internal/storage"
)

// newService builds a session service over a cluster of single-slot
// nodes; cfg supplies Engines, ActivateTimeout and SessionLifetime.
func newService(t *testing.T, nodes int, cfg Config) (*Service, *scheduler.Cluster) {
	t.Helper()
	var nc []scheduler.NodeConfig
	for i := 0; i < nodes; i++ {
		nc = append(nc, scheduler.NodeConfig{Name: fmt.Sprintf("node%02d", i), Slots: 1})
	}
	cluster, err := scheduler.New(nc, []scheduler.QueueConfig{{Name: "interactive", Priority: 10}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	shared, err := storage.New("shared", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mgr := merge.NewManager()
	cfg.Cluster = cluster
	cfg.NewEngine = func(sessionID, workerID string) *engine.Engine {
		return engine.New(engine.Config{SessionID: sessionID, WorkerID: workerID, Publisher: mgr})
	}
	cfg.Locator, cfg.Catalog, cfg.Merge = locator.New(), catalog.New(), mgr
	cfg.Loader, cfg.SharedDisk, cfg.Queue = codeloader.New(), shared, "interactive"
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, id := range svc.Sessions() {
			svc.Close(id)
		}
	})
	return svc, cluster
}

// waitDrained waits until the cluster runs and queues no job.
func waitDrained(t *testing.T, c *scheduler.Cluster) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.RunningCount() != 0 || c.QueueLength("interactive") != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d engine jobs running, %d queued", c.RunningCount(), c.QueueLength("interactive"))
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCreateStartsEnginesOnDistinctNodes(t *testing.T) {
	svc, cluster := newService(t, 4, Config{Engines: 3})
	sess, err := svc.Create("/CN=alice")
	if err != nil {
		t.Fatal(err)
	}
	if n := cluster.RunningCount(); n != 3 {
		t.Fatalf("%d engine jobs running, want 3", n)
	}
	st, err := svc.Status(sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateActive || len(st.Engines) != 3 {
		t.Fatalf("status = %+v, want Active with 3 engines", st)
	}
	seen := map[string]bool{}
	for _, e := range st.Engines {
		if e.Node == "" || seen[e.Node] {
			t.Fatalf("engines on nodes %+v, want three distinct nodes", st.Engines)
		}
		seen[e.Node] = true
	}
}

func TestCreateRollsBackWhenEnginesDoNotStart(t *testing.T) {
	// Three engines on two single-slot nodes: one job never leaves the
	// queue.
	svc, cluster := newService(t, 2, Config{Engines: 3, ActivateTimeout: 100 * time.Millisecond})
	if _, err := svc.Create("/CN=alice"); err == nil {
		t.Fatal("Create succeeded with an engine that never started")
	}
	waitDrained(t, cluster)
	if ids := svc.Sessions(); len(ids) != 0 {
		t.Fatalf("rolled-back Create left sessions %v", ids)
	}
}

func TestCloseCancelsEnginesAndIsIdempotent(t *testing.T) {
	svc, cluster := newService(t, 2, Config{Engines: 2})
	sess, err := svc.Create("/CN=alice")
	if err != nil {
		t.Fatal(err)
	}
	svc.Close(sess.ID)
	waitDrained(t, cluster)
	if err := svc.ValidateToken(sess.Token); err == nil {
		t.Fatal("closed session's token still validates")
	}
	svc.Close(sess.ID)
	// The freed slots take a new session.
	if _, err := svc.Create("/CN=alice"); err != nil {
		t.Fatalf("Create after Close: %v", err)
	}
}

func TestControlRejectsUnknownActionAndClosedSession(t *testing.T) {
	svc, _ := newService(t, 2, Config{Engines: 2})
	sess, err := svc.Create("/CN=alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Control(sess.ID, Action("dance"), 0); err == nil {
		t.Fatal("unknown action accepted")
	}
	svc.Close(sess.ID)
	if err := svc.Control(sess.ID, ActionRun, 0); err == nil {
		t.Fatal("Control on a closed session accepted")
	}
}

func TestSweepClosesIdleSessionsOnly(t *testing.T) {
	const lifetime = 200 * time.Millisecond
	svc, _ := newService(t, 4, Config{Engines: 2, SessionLifetime: lifetime})
	active, err := svc.Create("/CN=alice")
	if err != nil {
		t.Fatal(err)
	}
	idle, err := svc.Create("/CN=bob")
	if err != nil {
		t.Fatal(err)
	}
	// Sweep well past the first lifetime; every sweep's clock reading is
	// taken before the activity that precedes it, so scheduling delays
	// cannot expire the active session.
	for i := 0; i < 4; i++ {
		time.Sleep(lifetime / 2)
		now := time.Now()
		if _, err := svc.Status(active.ID); err != nil {
			t.Fatalf("sweep %d: active session gone: %v", i, err)
		}
		svc.Sweep(now)
	}
	if err := svc.ValidateToken(active.Token); err != nil {
		t.Fatalf("active session swept: %v", err)
	}
	if err := svc.ValidateToken(idle.Token); err == nil {
		t.Fatal("idle session survived two lifetimes of sweeps")
	}
	if n := svc.Sweep(time.Now().Add(2 * lifetime)); n != 1 {
		t.Fatalf("sweep after the active session went idle closed %d sessions, want 1", n)
	}
	if err := svc.ValidateToken(active.Token); err == nil {
		t.Fatal("session idle past its lifetime still validates")
	}
}
