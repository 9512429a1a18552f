package engine

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/ipa-grid/ipa/internal/aida"
	"github.com/ipa-grid/ipa/internal/analysis"
	"github.com/ipa-grid/ipa/internal/codeloader"
	"github.com/ipa-grid/ipa/internal/dataset"
	"github.com/ipa-grid/ipa/internal/events"
	"github.com/ipa-grid/ipa/internal/merge"
)

// makePart writes n LC events into a container and returns its path.
func makePart(t *testing.T, n int, seed int64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "part.ipa")
	if _, err := events.GenerateFile(path, events.GenConfig{Seed: seed}, n); err != nil {
		t.Fatal(err)
	}
	return path
}

func scriptBundle(t *testing.T, src string) *codeloader.Bundle {
	t.Helper()
	l := codeloader.New()
	b, err := l.Store(codeloader.Bundle{
		Name: "test", Language: codeloader.LangScript, Source: src, Decoder: events.EventDecoderName,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

const multiplicityScript = `
h = tree.h1d("/t", "mult", "multiplicity", 50, 0, 200);
function process(ev) { h.fill(ev.n); }
function end() { println("done:", h.entries()); }
`

func startEngine(t *testing.T, mgr *merge.Manager, part string, n int) *Engine {
	t.Helper()
	e := New(Config{
		SessionID: "s1", WorkerID: "w0", Publisher: mgr,
		SnapshotEvery: 100, SnapshotInterval: time.Hour, // deterministic snapshots
	})
	go e.Serve()
	t.Cleanup(e.Shutdown)
	if part != "" {
		if err := e.SetPart(part, 0); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func TestRunToFinish(t *testing.T) {
	mgr := merge.NewManager()
	part := makePart(t, 300, 1)
	e := startEngine(t, mgr, part, 300)
	if err := e.LoadCode(scriptBundle(t, multiplicityScript)); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if st, err := e.WaitState(10*time.Second, StateFinished); err != nil || st != StateFinished {
		t.Fatalf("state %v, %v", st, err)
	}
	done, total := e.Progress()
	if done != 300 || total != 300 {
		t.Fatalf("progress %d/%d", done, total)
	}
	var poll merge.PollReply
	if err := mgr.Poll(merge.PollArgs{SessionID: "s1"}, &poll); err != nil {
		t.Fatal(err)
	}
	var hist *aida.Histogram1D
	for _, ent := range poll.Entries {
		if ent.Path == "/t/mult" {
			obj, _ := ent.Restore()
			hist = obj.(*aida.Histogram1D)
		}
	}
	if hist == nil || hist.AllEntries() != 300 {
		t.Fatalf("merged histogram = %+v", hist)
	}
	joined := strings.Join(poll.Logs, "\n")
	if !strings.Contains(joined, "done:") {
		t.Fatalf("script output not relayed: %q", joined)
	}
}

func TestRunRequiresStaging(t *testing.T) {
	mgr := merge.NewManager()
	e := startEngine(t, mgr, "", 0)
	if err := e.Run(); err == nil {
		t.Fatal("run without staging accepted")
	}
}

func TestStepAndPauseResume(t *testing.T) {
	mgr := merge.NewManager()
	part := makePart(t, 500, 2)
	e := startEngine(t, mgr, part, 500)
	if err := e.LoadCode(scriptBundle(t, multiplicityScript)); err != nil {
		t.Fatal(err)
	}
	if err := e.Step(120); err != nil {
		t.Fatal(err)
	}
	if st, err := e.WaitState(10*time.Second, StatePaused); err != nil || st != StatePaused {
		t.Fatalf("state after step: %v %v", st, err)
	}
	done, _ := e.Progress()
	if done != 120 {
		t.Fatalf("step processed %d, want 120", done)
	}
	// Resume to the end.
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.WaitState(10*time.Second, StateFinished); err != nil {
		t.Fatal(err)
	}
	done, _ = e.Progress()
	if done != 500 {
		t.Fatalf("final processed %d", done)
	}
}

func TestRewindResetsAndReruns(t *testing.T) {
	mgr := merge.NewManager()
	part := makePart(t, 200, 3)
	e := startEngine(t, mgr, part, 200)
	e.LoadCode(scriptBundle(t, multiplicityScript))
	e.Run()
	e.WaitState(10*time.Second, StateFinished)
	if err := e.Rewind(); err != nil {
		t.Fatal(err)
	}
	done, _ := e.Progress()
	if done != 0 {
		t.Fatalf("progress after rewind = %d", done)
	}
	e.Run()
	if _, err := e.WaitState(10*time.Second, StateFinished); err != nil {
		t.Fatal(err)
	}
	done, _ = e.Progress()
	if done != 200 {
		t.Fatalf("re-run processed %d", done)
	}
}

func TestHotCodeReloadAtRewind(t *testing.T) {
	mgr := merge.NewManager()
	part := makePart(t, 100, 4)
	e := startEngine(t, mgr, part, 100)
	e.LoadCode(scriptBundle(t, multiplicityScript))
	e.Run()
	e.WaitState(10*time.Second, StateFinished)

	v2 := scriptBundle(t, `
		h = tree.h1d("/t", "energy", "total energy", 50, 0, 1000);
		function process(ev) {
			tot = 0;
			for (p : ev.particles) tot += p.e;
			h.fill(tot);
		}
	`)
	if err := e.LoadCode(v2); err != nil {
		t.Fatal(err)
	}
	e.Rewind()
	e.Run()
	if _, err := e.WaitState(10*time.Second, StateFinished); err != nil {
		t.Fatal(err)
	}
	var poll merge.PollReply
	mgr.Poll(merge.PollArgs{SessionID: "s1"}, &poll)
	var paths []string
	for _, ent := range poll.Entries {
		paths = append(paths, ent.Path)
	}
	found := false
	for _, p := range paths {
		if p == "/t/energy" {
			found = true
		}
	}
	if !found {
		t.Fatalf("new code's histogram missing; merged paths %v", paths)
	}
}

func TestBadScriptSurfacesAsError(t *testing.T) {
	mgr := merge.NewManager()
	part := makePart(t, 50, 5)
	e := startEngine(t, mgr, part, 50)
	// Script fails on the 10th event.
	b := scriptBundle(t, `
		n = 0;
		function process(ev) {
			n += 1;
			if (n == 10) error("exploding on event " + n);
		}
	`)
	e.LoadCode(b)
	e.Run()
	st, _ := e.WaitState(10*time.Second, StateError)
	if st != StateError {
		t.Fatalf("state = %v, want Error", st)
	}
	_, lastErr := e.State()
	if lastErr == nil || !strings.Contains(lastErr.Error(), "exploding") {
		t.Fatalf("lastErr = %v", lastErr)
	}
	// Error is recoverable via rewind (fix code and rerun).
	if err := e.Rewind(); err != nil {
		t.Fatal(err)
	}
	e.LoadCode(scriptBundle(t, multiplicityScript))
	e.Run()
	if _, err := e.WaitState(10*time.Second, StateFinished); err != nil {
		t.Fatal(err)
	}
}

func TestUninstantiableBundleRejectedEagerly(t *testing.T) {
	mgr := merge.NewManager()
	part := makePart(t, 10, 6)
	e := startEngine(t, mgr, part, 10)
	bad := &codeloader.Bundle{
		Name: "x", Language: codeloader.LangScript,
		Source: "function process(e) {}", Decoder: "no-such-decoder",
	}
	if err := e.LoadCode(bad); err == nil {
		t.Fatal("bundle with unknown decoder accepted")
	}
}

func TestNativeAnalysisBundle(t *testing.T) {
	mgr := merge.NewManager()
	part := makePart(t, 400, 7)
	e := startEngine(t, mgr, part, 400)
	b := &codeloader.Bundle{
		Name: "higgs", Language: codeloader.LangNative,
		Analysis: events.HiggsAnalysisName, Params: map[string]string{"minE": "20"},
	}
	if err := e.LoadCode(b); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if _, err := e.WaitState(20*time.Second, StateFinished); err != nil {
		t.Fatal(err)
	}
	var poll merge.PollReply
	mgr.Poll(merge.PollArgs{SessionID: "s1"}, &poll)
	found := false
	for _, ent := range poll.Entries {
		if ent.Path == "/higgs/dijet-mass" {
			obj, _ := ent.Restore()
			if obj.(*aida.Histogram1D).Entries() > 0 {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("native Higgs analysis produced no mass histogram")
	}
}

// unserializable is an AIDA object StateOf cannot encode, so snapshot
// construction fails deterministically.
type unserializable struct{ ann *aida.Annotation }

func (u *unserializable) Name() string                  { return "u" }
func (u *unserializable) Kind() string                  { return "Mystery" }
func (u *unserializable) Annotations() *aida.Annotation { return u.ann }
func (u *unserializable) EntriesCount() int64           { return 0 }

type badObjectAnalysis struct{}

func (badObjectAnalysis) Init(ctx *analysis.Context) error {
	return ctx.Tree.PutAt("/bad/u", &unserializable{ann: aida.NewAnnotation()})
}
func (badObjectAnalysis) Process(record []byte, ctx *analysis.Context) error { return nil }
func (badObjectAnalysis) End(ctx *analysis.Context) error                    { return nil }

// TestSnapshotBuildErrorSurfaced: a snapshot that cannot be constructed
// (unserializable object in the tree) must not vanish silently — it has
// to surface through State()'s error.
func TestSnapshotBuildErrorSurfaced(t *testing.T) {
	reg := analysis.NewRegistry()
	reg.Register("bad-object", func(map[string]string) (analysis.Analysis, error) {
		return badObjectAnalysis{}, nil
	})
	mgr := merge.NewManager()
	part := makePart(t, 50, 8)
	e := New(Config{
		SessionID: "s1", WorkerID: "w0", Publisher: mgr, Registry: reg,
		SnapshotEvery: 10, SnapshotInterval: time.Hour,
	})
	go e.Serve()
	t.Cleanup(e.Shutdown)
	if err := e.SetPart(part, 0); err != nil {
		t.Fatal(err)
	}
	b := &codeloader.Bundle{Name: "bad", Language: codeloader.LangNative, Analysis: "bad-object"}
	if err := e.LoadCode(b); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.WaitState(10*time.Second, StateFinished); err != nil {
		t.Fatal(err)
	}
	_, lastErr := e.State()
	if lastErr == nil || !strings.Contains(lastErr.Error(), "snapshot") {
		t.Fatalf("snapshot-build failure not surfaced: lastErr = %v", lastErr)
	}
}

func TestGlobalOffsetVisibleToContext(t *testing.T) {
	// Verify the engine passes absolute event indices via dataset records.
	dir := t.TempDir()
	path := filepath.Join(dir, "p.ipa")
	w, closer, err := dataset.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		w.Append([]byte{byte(i)})
	}
	closer()
	mgr := merge.NewManager()
	e := New(Config{SessionID: "s", WorkerID: "w", Publisher: mgr, SnapshotEvery: 1000, SnapshotInterval: time.Hour})
	go e.Serve()
	defer e.Shutdown()
	if err := e.SetPart(path, 500); err != nil {
		t.Fatal(err)
	}
	b := scriptBundle(t, `
		c = tree.c1d("/t", "indices", "");
		function process(r) { c.fill(len(r)); }
	`)
	// Use the raw decoder: override the bundle decoder.
	b.Decoder = "raw"
	if err := e.LoadCode(b); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if _, err := e.WaitState(10*time.Second, StateFinished); err != nil {
		t.Fatal(err)
	}
	done, total := e.Progress()
	if done != 10 || total != 10 {
		t.Fatalf("progress %d/%d", done, total)
	}
}

// Script output rides the next snapshot once: a line printed at top level
// and a line printed in end() each reach the client exactly one time, no
// matter how many snapshots the run publishes.
func TestScriptOutputRelayedOnce(t *testing.T) {
	mgr := merge.NewManager()
	part := makePart(t, 1000, 9)
	e := startEngine(t, mgr, part, 1000)
	if err := e.LoadCode(scriptBundle(t, `
		println("booked");
		h = tree.h1d("/t", "mult", "multiplicity", 50, 0, 200);
		function process(ev) { h.fill(ev.n); }
		function end() { println("done:", h.entries()); }
	`)); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.WaitState(10*time.Second, StateFinished); err != nil {
		t.Fatal(err)
	}
	var poll merge.PollReply
	if err := mgr.Poll(merge.PollArgs{SessionID: "s1"}, &poll); err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(poll.Logs, "\n")
	for _, line := range []string{"booked", "done: 1000"} {
		if n := strings.Count(joined, line); n != 1 {
			t.Errorf("%q relayed %d times, want once; logs:\n%s", line, n, joined)
		}
	}
}

func TestCapLogKeepsNewestBehindOneMark(t *testing.T) {
	if s := "short\n"; capLog(s) != s {
		t.Fatal("a log under the cap was changed")
	}
	line := strings.Repeat("é", 50) + "\n"
	long := strings.Repeat(line, 2*maxSnapshotLog/len(line)) + "last\n"
	got := capLog(long)
	if len(got) > maxSnapshotLog || !strings.HasPrefix(got, truncatedMark+"éé") || !strings.HasSuffix(got, line+"last\n") {
		t.Fatalf("capped log: %d bytes, starts %q", len(got), got[:40])
	}
	// Capping what was already capped (a retained log that grew) must not
	// stack marks.
	again := capLog(got + long)
	if strings.Count(again, truncatedMark) != 1 || len(again) > maxSnapshotLog {
		t.Fatalf("re-capped log has %d marks in %d bytes", strings.Count(again, truncatedMark), len(again))
	}
}
