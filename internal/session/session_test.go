package session

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ipa-grid/ipa/internal/analysis"
	"github.com/ipa-grid/ipa/internal/catalog"
	"github.com/ipa-grid/ipa/internal/codeloader"
	"github.com/ipa-grid/ipa/internal/dataset"
	"github.com/ipa-grid/ipa/internal/engine"
	"github.com/ipa-grid/ipa/internal/gridftp"
	"github.com/ipa-grid/ipa/internal/locator"
	"github.com/ipa-grid/ipa/internal/merge"
	"github.com/ipa-grid/ipa/internal/scheduler"
	"github.com/ipa-grid/ipa/internal/storage"
)

// newService builds a session service over a cluster of single-slot
// nodes; cfg supplies Engines, ActivateTimeout and SessionLifetime.
func newService(t *testing.T, nodes int, cfg Config) (*Service, *scheduler.Cluster) {
	t.Helper()
	return newServiceWith(t, nodes, cfg, nil)
}

// newServiceWith is newService whose engines resolve native analyses in
// reg (nil: the default registry).
func newServiceWith(t *testing.T, nodes int, cfg Config, reg *analysis.Registry) (*Service, *scheduler.Cluster) {
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
	mgr := merge.NewManager()
	cfg.Cluster = cluster
	cfg.NewEngine = func(sessionID, workerID string) *engine.Engine {
		return engine.New(engine.Config{SessionID: sessionID, WorkerID: workerID, Publisher: mgr, Registry: reg})
	}
	cfg.Locator, cfg.Catalog, cfg.Merge = locator.New(), catalog.New(), mgr
	cfg.Loader, cfg.Queue = codeloader.New(), "interactive"
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
	if _, err := svc.ValidateToken(sess.Token); err == nil {
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

// TestAttachStreamsPartsStraightToScratch: from a gsiftp:// replica,
// staging leaves on each engine's node exactly one file — its part, byte
// for byte the container a Writer builds from the part's records — and
// points the engine at it; closing the session deletes the parts. From a
// file:// replica it stages nothing, and each engine reads exactly its
// range of the replica.
func TestAttachStreamsPartsStraightToScratch(t *testing.T) {
	src, recs := writeDataset(t)
	addr := serveDir(t, filepath.Dir(src))
	for _, url := range []string{"file://" + src, "gsiftp://" + addr + "/ds.ipa"} {
		stageAndCheck(t, recs, []string{url}, url, nil)
	}
}

// TestAttachFailsOverMidStream: a gsiftp:// replica that serves the index
// and one part's range but refuses every later ERET hands the whole pass
// to the next replica, a file:// one, and the part it did stage is
// deleted: no node holds any file of the session.
func TestAttachFailsOverMidStream(t *testing.T) {
	src, recs := writeDataset(t)
	flaky := refuseERETAfter(t, serveDir(t, filepath.Dir(src)), 2)
	file := "file://" + src
	stageAndCheck(t, recs, []string{"gsiftp://" + flaky + "/ds.ipa", file}, file, nil)
}

// TestMappingTruncatedReplicaFailsOver: a file:// replica truncated once
// it is mapped and its index read, before the plan reads it, faults the
// plan walking its records through the mapping; the pass falls over to
// the next replica as it does on a short read, and the process lives on.
func TestMappingTruncatedReplicaFailsOver(t *testing.T) {
	src, recs := writeDataset(t)
	raw, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	doomed := filepath.Join(t.TempDir(), "ds.ipa")
	if err := os.WriteFile(doomed, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	file := "file://" + src
	stageAndCheck(t, recs, []string{"file://" + doomed, file}, file, func(url string) {
		if url == "file://"+doomed {
			if err := os.Truncate(doomed, 0); err != nil {
				t.Error(err)
			}
		}
	})
}

// writeDataset writes a container of 2000 records, about 0.7 MB per part
// of three, so each part crosses several 256 KiB transfer blocks.
func writeDataset(t *testing.T) (string, [][]byte) {
	t.Helper()
	src := filepath.Join(t.TempDir(), "ds.ipa")
	w, closeFn, err := dataset.Create(src)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([][]byte, 2000)
	for i := range recs {
		recs[i] = bytes.Repeat([]byte{byte(i)}, 1+i*37%2000)
		if err := w.Append(recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := closeFn(); err != nil {
		t.Fatal(err)
	}
	return src, recs
}

// serveDir serves dir over GridFTP and returns the server's address.
func serveDir(t *testing.T, dir string) string {
	t.Helper()
	se, err := storage.New("se", dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := gridftp.NewServer(se, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return addr
}

// refuseERETAfter fronts the GridFTP control endpoint at addr: the first
// n control connections pass through, and on every later one an ERET is
// answered 550 instead of being forwarded. Data connections go to the
// server directly, as its grants name its ports.
func refuseERETAfter(t *testing.T, addr string, n int) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for accepted := 1; ; accepted++ {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", addr)
			if err != nil {
				c.Close()
				return
			}
			go func() {
				io.Copy(c, up)
				c.Close()
			}()
			go func(refuse bool) {
				defer up.Close()
				r := bufio.NewReader(c)
				for {
					line, err := r.ReadString('\n')
					if err != nil {
						return
					}
					// The client waits for each reply, so nothing from the
					// server is in flight when the refusal is written.
					if refuse && strings.HasPrefix(line, "ERET ") {
						io.WriteString(c, "550 ERET refused\r\n")
						continue
					}
					if _, err := io.WriteString(up, line); err != nil {
						return
					}
				}
			}(accepted > n)
		}
	}()
	return ln.Addr().String()
}

// stageAndCheck attaches the dataset recs were written to, located at
// replicas and tried in that order, to a three-engine session and checks
// that it staged from wantURL. From a gsiftp:// replica each engine's
// node holds exactly its part, byte for byte the container a Writer
// builds from the part's records, until the session closes. From a
// file:// replica no node holds any file of the session. Either way each
// engine sees its range's record count. A non-nil opened runs once each
// replica is open, before its split is planned.
func stageAndCheck(t *testing.T, recs [][]byte, replicas []string, wantURL string, opened func(url string)) {
	t.Helper()
	const nodes = 3
	scratch := map[string]*storage.Element{}
	for i := 0; i < nodes; i++ {
		name := fmt.Sprintf("node%02d", i)
		el, err := storage.New(name, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		scratch[name] = el
	}
	checker := &recordChecker{recs: recs, seen: map[string][]int64{}}
	svc, _ := newServiceWith(t, nodes, Config{Engines: nodes, WorkerScratch: func(node string) (*storage.Element, error) {
		return scratch[node], nil
	}}, checker.registry())
	if opened != nil {
		svc.open = func(url string) (*replica, error) {
			src, err := openReplica(url)
			if err == nil {
				opened(url)
			}
			return src, err
		}
	}
	if err := svc.cfg.Catalog.AddDataset("/test", catalog.DatasetRef{ID: "ds", Name: "ds", Records: int64(len(recs))}, nil); err != nil {
		t.Fatal(err)
	}
	for i, url := range replicas {
		// Falling priorities keep the locator's best-first order as listed.
		if err := svc.cfg.Locator.Register("ds", locator.Replica{URL: url, Priority: -i}); err != nil {
			t.Fatal(err)
		}
	}
	sess, err := svc.Create("/CN=alice")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := svc.AttachDataset(sess.ID, "ds")
	if err != nil {
		t.Fatalf("%v: %v", replicas, err)
	}
	if rep.Parts != nodes || rep.ReplicaURL != wantURL {
		t.Fatalf("%v: report %+v, want %d parts from %s", replicas, rep, nodes, wantURL)
	}
	st, err := svc.Status(sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	dir := path.Join("/scratch", sess.ID)
	inPlace := strings.HasPrefix(wantURL, "file://")
	for i, part := range sess.plan.Parts {
		if e := st.Engines[i]; e.Total != part.Records() {
			t.Fatalf("%s: engine %d sees %d records, its range holds %d", wantURL, i, e.Total, part.Records())
		}
		el := scratch[sess.nodes[i]]
		if inPlace {
			if files := filesUnder(t, el, dir); len(files) != 0 {
				t.Fatalf("%s: node %s holds %v, want nothing staged", wantURL, sess.nodes[i], files)
			}
			continue
		}
		if files := filesUnder(t, el, dir); len(files) != 1 {
			t.Fatalf("%s: node %s holds %v, want one part", wantURL, sess.nodes[i], files)
		}
		got, err := el.ReadBytes(partFile(sess.ID, i))
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		pw, err := dataset.NewWriter(&want)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs[part.FromRecord:part.ToRecord] {
			if err := pw.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := pw.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%s: part %d (%d bytes) differs from the appended container (%d bytes)", wantURL, i, len(got), want.Len())
		}
	}
	// Each engine reads exactly its range: every record once, in order,
	// under its absolute index.
	runToEnd(t, svc, sess, engine.StateFinished)
	for i, part := range sess.plan.Parts {
		seen := checker.indices(fmt.Sprintf("engine-%02d", i))
		if int64(len(seen)) != part.Records() {
			t.Fatalf("%s: engine %d read %d records, its range [%d,%d) holds %d",
				wantURL, i, len(seen), part.FromRecord, part.ToRecord, part.Records())
		}
		for k, idx := range seen {
			if idx != part.FromRecord+int64(k) {
				t.Fatalf("%s: engine %d's record %d has index %d, want %d", wantURL, i, k, idx, part.FromRecord+int64(k))
			}
		}
	}
	svc.Close(sess.ID)
	for node, el := range scratch {
		if files := filesUnder(t, el, dir); len(files) != 0 {
			t.Fatalf("%s: closed session's parts still staged on %s: %v", wantURL, node, files)
		}
	}
}

// filesUnder lists the files (not directories) under dir on el, at any
// depth; a missing dir holds none.
func filesUnder(t *testing.T, el *storage.Element, dir string) []string {
	t.Helper()
	var files []string
	root, err := el.LocalPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	err = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if os.IsNotExist(err) {
			return nil
		}
		if err == nil && !d.IsDir() {
			files = append(files, p)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// recordChecker is a native analysis, "check", that compares every record
// with recs[ctx.EventIndex] and logs the indices each worker read. A
// non-nil hook runs before each record is compared.
type recordChecker struct {
	recs [][]byte
	hook func(index int64)
	mu   sync.Mutex
	seen map[string][]int64 // by worker
}

func (c *recordChecker) registry() *analysis.Registry {
	reg := analysis.NewRegistry()
	reg.Register("check", func(map[string]string) (analysis.Analysis, error) {
		return &analysis.Func{ProcessFn: func(rec []byte, ctx *analysis.Context) error {
			if c.hook != nil {
				c.hook(ctx.EventIndex)
			}
			if ctx.EventIndex < 0 || ctx.EventIndex >= int64(len(c.recs)) || !bytes.Equal(rec, c.recs[ctx.EventIndex]) {
				return fmt.Errorf("record %d differs from the dataset's", ctx.EventIndex)
			}
			c.mu.Lock()
			c.seen[ctx.WorkerID] = append(c.seen[ctx.WorkerID], ctx.EventIndex)
			c.mu.Unlock()
			return nil
		}}, nil
	})
	return reg
}

func (c *recordChecker) indices(worker string) []int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int64(nil), c.seen[worker]...)
}

// runToEnd loads the "check" analysis into the session, runs it and waits
// until every engine is in state want.
func runToEnd(t *testing.T, svc *Service, sess *Session, want engine.State) {
	t.Helper()
	if _, err := svc.LoadCode(sess.ID, codeloader.Bundle{Name: "check", Language: codeloader.LangNative, Analysis: "check"}); err != nil {
		t.Fatal(err)
	}
	if err := svc.Control(sess.ID, ActionRun, 0); err != nil {
		t.Fatal(err)
	}
	for i, eng := range sess.engines {
		if st, err := eng.WaitState(10*time.Second, engine.StateFinished, engine.StateError); err != nil || st != want {
			_, lastErr := eng.State()
			t.Fatalf("engine %d: state %v (%v), want %v; last error %v", i, st, err, want, lastErr)
		}
	}
}

// TestMappingTruncatedReplicaUnderInPlaceEngines: a file:// replica that
// is truncated while every engine reads its range of it in place faults
// each engine's next read. Every engine ends in Error wrapping
// ErrCorrupt, and the process lives on.
func TestMappingTruncatedReplicaUnderInPlaceEngines(t *testing.T) {
	src, recs := writeDataset(t)
	const nodes = 3
	checker := &recordChecker{recs: recs, seen: map[string][]int64{}}
	svc, _ := newServiceWith(t, nodes, Config{Engines: nodes}, checker.registry())
	if err := svc.cfg.Catalog.AddDataset("/test", catalog.DatasetRef{ID: "ds", Name: "ds", Records: int64(len(recs))}, nil); err != nil {
		t.Fatal(err)
	}
	if err := svc.cfg.Locator.Register("ds", locator.Replica{URL: "file://" + src}); err != nil {
		t.Fatal(err)
	}
	sess, err := svc.Create("/CN=alice")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.AttachDataset(sess.ID, "ds"); err != nil {
		t.Fatal(err)
	}
	// Each engine stops at the first record of its range until the
	// replica is truncated.
	firsts := map[int64]bool{}
	for _, p := range sess.plan.Parts {
		firsts[p.FromRecord] = true
	}
	arrived, truncated := make(chan struct{}, nodes), make(chan struct{})
	var release sync.Once
	t.Cleanup(func() { release.Do(func() { close(truncated) }) })
	checker.hook = func(i int64) {
		if firsts[i] {
			arrived <- struct{}{}
			<-truncated
		}
	}
	go func() {
		for range nodes {
			<-arrived
		}
		if err := os.Truncate(src, 0); err != nil {
			t.Error(err)
		}
		release.Do(func() { close(truncated) })
	}()
	runToEnd(t, svc, sess, engine.StateError)
	for i, eng := range sess.engines {
		if _, err := eng.State(); !errors.Is(err, dataset.ErrCorrupt) {
			t.Fatalf("engine %d: error %v, want ErrCorrupt", i, err)
		}
	}
	if _, err := svc.Status(sess.ID); err != nil {
		t.Fatalf("status after the fault: %v", err)
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
	if _, err := svc.ValidateToken(active.Token); err != nil {
		t.Fatalf("active session swept: %v", err)
	}
	if _, err := svc.ValidateToken(idle.Token); err == nil {
		t.Fatal("idle session survived two lifetimes of sweeps")
	}
	if n := svc.Sweep(time.Now().Add(2 * lifetime)); n != 1 {
		t.Fatalf("sweep after the active session went idle closed %d sessions, want 1", n)
	}
	if _, err := svc.ValidateToken(active.Token); err == nil {
		t.Fatal("session idle past its lifetime still validates")
	}
}
