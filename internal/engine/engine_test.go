package engine

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
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

// recording is a native analysis that logs every Init and a copy of
// every record with the index the engine gave it, across instances.
type recording struct {
	mu  sync.Mutex
	log []string
}

func (r *recording) add(s string) {
	r.mu.Lock()
	r.log = append(r.log, s)
	r.mu.Unlock()
}

func (r *recording) lines() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.log...)
}

// recordingEngine starts an engine running the recording analysis on
// part. A non-nil hook runs before each record is logged.
func recordingEngine(t *testing.T, part string, hook func(i int64)) (*Engine, *recording) {
	t.Helper()
	rec := &recording{}
	reg := analysis.NewRegistry()
	reg.Register("record", func(map[string]string) (analysis.Analysis, error) {
		return &analysis.Func{
			InitFn: func(*analysis.Context) error { rec.add("init"); return nil },
			ProcessFn: func(b []byte, ctx *analysis.Context) error {
				if hook != nil {
					hook(ctx.EventIndex)
				}
				rec.add(fmt.Sprintf("%d:%x", ctx.EventIndex, b))
				return nil
			},
		}, nil
	})
	e := New(Config{
		SessionID: "s1", WorkerID: "w0", Publisher: merge.NewManager(), Registry: reg,
		SnapshotEvery: 100, SnapshotInterval: time.Hour,
	})
	go e.Serve()
	t.Cleanup(e.Shutdown)
	if err := e.SetPart(part, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.LoadCode(&codeloader.Bundle{Name: "rec", Language: codeloader.LangNative, Analysis: "record"}); err != nil {
		t.Fatal(err)
	}
	return e, rec
}

// want is what the recording analysis logs for records [from, to) of part.
func want(t *testing.T, part string, from, to int64) []string {
	t.Helper()
	r, f, err := dataset.Open(part)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []string
	for i := from; i < to; i++ {
		b, err := r.Record(i)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fmt.Sprintf("%d:%x", i, b))
	}
	return out
}

func waitFor(t *testing.T, e *Engine, s State) {
	t.Helper()
	if st, err := e.WaitState(10*time.Second, s); err != nil || st != s {
		_, lastErr := e.State()
		t.Fatalf("state %v (%v), want %v; last error %v", st, err, s, lastErr)
	}
}

func sameLog(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("analysis saw %d lines, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("line %d: got %.40s…, want %.40s…", i, got[i], want[i])
		}
	}
}

// Steps that end mid-batch, then a Run, feed the analysis exactly what
// one Run does: the engine's iterator carries over between batches.
func TestStepsThenRunMatchOneRun(t *testing.T) {
	part := makePart(t, 500, 10)
	one, oneRec := recordingEngine(t, part, nil)
	if err := one.Run(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, one, StateFinished)

	stepped, steppedRec := recordingEngine(t, part, nil)
	for i := 0; i < 5; i++ {
		if err := stepped.Step(37); err != nil {
			t.Fatal(err)
		}
		waitFor(t, stepped, StatePaused)
	}
	if done, _ := stepped.Progress(); done != 5*37 {
		t.Fatalf("five steps of 37 processed %d", done)
	}
	if err := stepped.Run(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, stepped, StateFinished)

	wantLog := append([]string{"init"}, want(t, part, 0, 500)...)
	sameLog(t, oneRec.lines(), wantLog)
	sameLog(t, steppedRec.lines(), wantLog)
}

// Rewind and SetPart in the middle of a run start over from record 0 of
// the current part, never from where the previous iterator stood.
func TestRewindAndSetPartDropTheIterator(t *testing.T) {
	a, b := makePart(t, 200, 11), makePart(t, 150, 12)
	t.Run("rewind", func(t *testing.T) {
		e, rec := recordingEngine(t, a, nil)
		if err := e.Step(100); err != nil {
			t.Fatal(err)
		}
		waitFor(t, e, StatePaused)
		if err := e.Rewind(); err != nil {
			t.Fatal(err)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		waitFor(t, e, StateFinished)
		wantLog := append([]string{"init"}, want(t, a, 0, 100)...)
		wantLog = append(append(wantLog, "init"), want(t, a, 0, 200)...)
		sameLog(t, rec.lines(), wantLog)
	})
	t.Run("setpart", func(t *testing.T) {
		e, rec := recordingEngine(t, a, nil)
		if err := e.Step(100); err != nil {
			t.Fatal(err)
		}
		waitFor(t, e, StatePaused)
		if err := e.SetPart(b, 0); err != nil {
			t.Fatal(err)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		waitFor(t, e, StateFinished)
		wantLog := append([]string{"init"}, want(t, a, 0, 100)...)
		sameLog(t, rec.lines(), append(wantLog, want(t, b, 0, 150)...))
	})
	// A read that fails at record 0 leaves the iterator at record 0; the
	// re-staged part must still be read through a new one.
	t.Run("setpart after a failed read", func(t *testing.T) {
		raw, err := os.ReadFile(a)
		if err != nil {
			t.Fatal(err)
		}
		copy(raw[8:], []byte{0xff, 0xff, 0xff, 0xff, 0x0f}) // record 0's length: 4 GiB
		bad := filepath.Join(t.TempDir(), "bad.ipa")
		if err := os.WriteFile(bad, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		e, rec := recordingEngine(t, bad, nil)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		waitFor(t, e, StateError)
		if err := e.SetPart(b, 0); err != nil {
			t.Fatal(err)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		waitFor(t, e, StateFinished)
		sameLog(t, rec.lines(), append([]string{"init"}, want(t, b, 0, 150)...))
	})
}

// A Rewind that lands while a batch is being processed wins: the rerun
// starts at record 0, not where the interrupted batch stopped.
func TestRewindDuringBatchRestartsFromZero(t *testing.T) {
	part := makePart(t, 300, 13)
	inBatch, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	e, rec := recordingEngine(t, part, func(i int64) {
		if i == 10 {
			once.Do(func() {
				close(inBatch)
				<-release
			})
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	<-inBatch
	if err := e.Rewind(); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, e, StateFinished)
	lines := rec.lines()
	wantLog := append([]string{"init"}, want(t, part, 0, 10)...)
	wantLog = append(append(wantLog, "init"), want(t, part, 0, 300)...)
	// The interrupted batch may log record 10 and the rest of its batch;
	// everything after the second init is the rerun.
	last := len(lines) - 301
	if last < 0 || lines[last] != "init" {
		t.Fatalf("no rerun of 300 records at the end of %d lines", len(lines))
	}
	sameLog(t, lines[:11], wantLog[:11])
	sameLog(t, lines[last:], wantLog[11:])
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
