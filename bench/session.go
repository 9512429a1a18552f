package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"github.com/ipa-grid/ipa/internal/aida"
	"github.com/ipa-grid/ipa/internal/analysis"
	"github.com/ipa-grid/ipa/internal/core"
	"github.com/ipa-grid/ipa/internal/dataset"
	"github.com/ipa-grid/ipa/internal/engine"
	"github.com/ipa-grid/ipa/internal/events"
	"github.com/ipa-grid/ipa/internal/gsi"
)

const (
	datasetID = "ds-bench"
	userCN    = "bench"
	// pollThink is the client's pause between result polls.
	pollThink = 2 * time.Millisecond
	// opDeadline bounds every user-level operation: a missed deadline is
	// a failed op, not a hang.
	opDeadline = 60 * time.Second
	// The session grids run two worker nodes, so two engines per session.
	sessionNodes = 2
)

// sessionGrid is the part of the fixture both session workloads share:
// a secure unsharded grid with one published LC dataset.
type sessionGrid struct {
	rc     *runCtx
	grid   *core.LocalGrid
	n      int64
	dsPath string
	sizeMB float64
	// set-up layer numbers, reported by the traced pass
	bootMS, genMBps float64
}

func newSessionGrid(rc *runCtx, nEvents int) (sg *sessionGrid, err error) {
	sg = &sessionGrid{rc: rc, n: int64(nEvents)}
	t0 := time.Now()
	g, err := core.NewLocalGrid(core.GridOptions{Nodes: sessionNodes, BaseDir: rc.dir})
	if err != nil {
		return nil, err
	}
	sg.grid = g
	defer func() {
		if err != nil {
			g.Close()
		}
	}()
	if _, err := g.AddUser(userCN, gsi.RoleAnalyst); err != nil {
		return nil, err
	}
	sg.bootMS = ms(time.Since(t0))
	t0 = time.Now()
	if err := g.PublishDataset(datasetID, "/lc/bench", "bench-events", nEvents,
		events.GenConfig{Seed: rc.seed}, nil); err != nil {
		return nil, err
	}
	gen := time.Since(t0)
	res, err := g.Locator.Resolve(datasetID, "local")
	if err != nil {
		return nil, err
	}
	if len(res.Replicas) == 0 {
		return nil, errors.New("published dataset has no replica")
	}
	sg.dsPath = strings.TrimPrefix(res.Replicas[0].URL, "file://")
	st, err := os.Stat(sg.dsPath)
	if err != nil {
		return nil, err
	}
	sg.sizeMB = float64(st.Size()) / (1 << 20)
	sg.genMBps = sg.sizeMB / gen.Seconds()
	return sg, nil
}

// cleanScratch removes what a closed session left on the worker nodes'
// scratch disks and returns how much that was. session.teardown deletes
// the shared-disk copy but not the per-node parts (README, "First-run
// observations"); removing them here keeps every rep on the same disk state.
func (sg *sessionGrid) cleanScratch() (leakedMB float64) {
	for i := 0; i < sessionNodes; i++ {
		el := sg.grid.Scratch(fmt.Sprintf("node%02d", i))
		if el == nil {
			continue
		}
		leakedMB += float64(el.Used()) / (1 << 20)
		// A failed removal only lets the next rep start on a fuller disk.
		_ = el.DeleteTree("/scratch")
	}
	return leakedMB
}

// waitResult polls until the run is complete in the client's mirror:
// every event reported done and the per-event histogram at path holding
// exactly n entries. Status "Finished" is deliberately not the signal —
// engines flip to Finished before their last publish. It returns when
// the first non-empty result and the complete result were seen.
func (sg *sessionGrid) waitResult(c *core.Client, path string, parent int, trace int64, probe *finishProbe) (first, done time.Time, err error) {
	deadline := time.Now().Add(opDeadline)
	for {
		if probe != nil {
			probe.check(c, path, sg.n, sg.rc.tr, parent, trace)
		}
		var up core.Update
		d, err := sg.rc.tr.timed("core.Client.Poll", "core", parent, trace, func() (err error) {
			up, err = c.Poll()
			return err
		})
		now := time.Now()
		if err != nil {
			return first, done, fmt.Errorf("poll: %w", err)
		}
		if probe != nil && up.Changed {
			probe.changedPollUS = append(probe.changedPollUS, us(d))
		}
		h := c.Histogram1D(path)
		if first.IsZero() && h != nil && h.AllEntries() > 0 {
			first = now
		}
		if up.EventsDone == sg.n && h != nil && h.AllEntries() == sg.n {
			return first, now, nil
		}
		if now.After(deadline) {
			return first, done, fmt.Errorf("result incomplete after %v (%d/%d events)", opDeadline, up.EventsDone, sg.n)
		}
		time.Sleep(pollThink)
	}
}

// finishProbe (traced pass only) times Session.Status calls and, at the
// first status showing every engine Finished, checks with one poll
// whether the result really is complete — the finish race a real client
// trusting Status would lose.
type finishProbe struct {
	statusUS      []float64
	changedPollUS []float64
	checked       bool
	seen          int
	incomplete    int
}

func (p *finishProbe) reset() { p.checked = false }

func (p *finishProbe) check(c *core.Client, path string, n int64, tr *tracer, parent int, trace int64) {
	if p.checked {
		return
	}
	var st core.StatusResponse
	d, err := tr.timed("core.Client.Status", "wsrf", parent, trace, func() (err error) {
		st, err = c.Status()
		return err
	})
	if err != nil {
		return
	}
	p.statusUS = append(p.statusUS, us(d))
	if len(st.Engines) == 0 {
		return
	}
	for _, e := range st.Engines {
		if e.State != string(engine.StateFinished) {
			return
		}
	}
	p.checked = true
	p.seen++
	if _, err := c.Poll(); err != nil {
		return
	}
	if h := c.Histogram1D(path); h == nil || h.AllEntries() != n {
		p.incomplete++
	}
}

func (p *finishProbe) report(layer map[string]float64) {
	put(layer, "wsrf.status_call_us", median(p.statusUS))
	put(layer, "core.client_poll_changed_us", median(p.changedPollUS))
	if p.seen > 0 {
		put(layer, "session.finished_incomplete_ratio", float64(p.incomplete)/float64(p.seen))
	}
}

// ---------------------------------------------------------------------
// session_cold

const higgsEntriesPath = "/higgs/multiplicity" // filled once per event

type coldFixture struct {
	*sessionGrid
	ref flatTree
}

func setupSessionCold(rc *runCtx) (fixture, error) {
	n := 80000
	if rc.tiny {
		n = 2000
	}
	sg, err := newSessionGrid(rc, n)
	if err != nil {
		return nil, err
	}
	f := &coldFixture{sessionGrid: sg}
	if f.ref, err = higgsReference(sg.dsPath); err != nil {
		f.close()
		return nil, err
	}
	for i := 0; i < 2; i++ { // warm-up: page cache, TLS session cache, pools
		if _, err := f.session(-1-int64(i), nil, nil); err != nil {
			f.close()
			return nil, fmt.Errorf("warm-up session: %w", err)
		}
	}
	return f, nil
}

func (f *coldFixture) close() { f.grid.Close() }

// higgsReference runs the Higgs analysis sequentially in this process
// over the whole published file — the result every session must match.
func higgsReference(path string) (flatTree, error) {
	r, file, err := dataset.Open(path)
	if err != nil {
		return nil, err
	}
	defer file.Close()
	a, err := events.NewHiggsAnalysis(nil)
	if err != nil {
		return nil, err
	}
	ctx := &analysis.Context{Tree: aida.NewTree(), WorkerID: "reference"}
	if err := a.Init(ctx); err != nil {
		return nil, err
	}
	it, err := r.Iter(0, r.NumRecords())
	if err != nil {
		return nil, err
	}
	for {
		rec, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if err := a.Process(rec, ctx); err != nil {
			return nil, err
		}
		ctx.EventIndex++
	}
	if err := a.End(ctx); err != nil {
		return nil, err
	}
	return flattenTree(ctx.Tree)
}

// session runs one fresh session start to finish: connect, create,
// stage, load the native Higgs code, run, poll to the complete result,
// compare with the reference, close.
func (f *coldFixture) session(rep int64, out *outcome, probe *finishProbe) (s sessionSample, err error) {
	tr := f.rc.tr
	root := tr.open("session", "bench", -1, rep, time.Now())
	defer func() { tr.close(root, time.Now()) }()
	var c *core.Client
	if _, err = tr.timed("core.LocalGrid.ClientFor", "gsi", root, rep, func() (err error) {
		c, err = f.grid.ClientFor(userCN)
		return err
	}); err != nil {
		return s, err
	}
	t0 := time.Now()
	if _, err = tr.timed("core.Client.CreateSession", "session", root, rep, c.CreateSession); err != nil {
		return s, err
	}
	defer func() {
		if _, cerr := tr.timed("core.Client.CloseSession", "session", root, rep, c.CloseSession); cerr != nil && err == nil {
			err = cerr
		}
		s.leakedMB = f.cleanScratch()
	}()
	attachStart := time.Now()
	attach := tr.open("core.Client.AttachDataset", "session", root, rep, attachStart)
	st, err := c.AttachDataset(datasetID)
	s.milestone = time.Since(attachStart)
	tr.close(attach, attachStart.Add(s.milestone))
	if err != nil {
		return s, err
	}
	if tr != nil {
		// The three staging phases as synthetic children laid end to
		// end: the live Table 1 columns.
		at := attachStart
		for _, ph := range []struct {
			name string
			ms   int64
		}{{"session.move_whole", st.MoveWhole}, {"session.split", st.Split}, {"session.move_parts", st.MoveParts}} {
			end := at.Add(time.Duration(ph.ms) * time.Millisecond)
			tr.add(ph.name, "session", attach, rep, at, end)
			at = end
		}
		tr.note("session.split_imbalance", st.Imbalance)
	}
	if _, err = tr.timed("core.Client.LoadNative", "session", root, rep, func() error {
		_, err := c.LoadNative("higgs", events.HiggsAnalysisName, nil)
		return err
	}); err != nil {
		return s, err
	}
	runStart := time.Now()
	if _, err = tr.timed("core.Client.Run", "session", root, rep, c.Run); err != nil {
		return s, err
	}
	if probe != nil {
		probe.reset()
	}
	wait := tr.open("engine.analyse", "engine", root, rep, time.Now())
	_, done, err := f.waitResult(c, higgsEntriesPath, wait, rep, probe)
	tr.close(wait, time.Now())
	if err != nil {
		return s, err
	}
	s.response, s.analyse = done.Sub(t0), done.Sub(runStart)
	if out != nil {
		got, err := flattenTree(c.Tree())
		if err == nil {
			err = diffTrees(got, f.ref, 1e-9)
		}
		if err != nil {
			out.wrong("session %d differs from the sequential reference: %v", rep, err)
		}
	}
	return s, nil
}

func (f *coldFixture) measure() (*outcome, error) {
	return f.measureOps("session", f.session)
}

// sessionSample is one user-level operation of a session workload: a
// whole fresh session, or one rerun in the open session.
type sessionSample struct {
	// response: start → complete result in the mirror. milestone:
	// start → the operation's first user-visible step (dataset staged,
	// first partial result). analyse: Run call → complete result.
	response, milestone, analyse time.Duration
	leakedMB                     float64
}

// measureOps is the timed section of both session workloads: one
// closed-loop client repeating op until the section's time has passed.
func (sg *sessionGrid) measureOps(what string, op func(rep int64, out *outcome, probe *finishProbe) (sessionSample, error)) (*outcome, error) {
	out := newOutcome()
	sg.rc.tr.reset()
	var probe *finishProbe
	if sg.rc.tr != nil {
		probe = &finishProbe{}
	}
	var response, milestone, analyse, leaked []float64
	p0 := sampleProc()
	start := time.Now()
	for rep := int64(0); time.Since(start).Seconds() < sg.rc.seconds || rep < 3; rep++ {
		out.attempted++
		s, err := op(rep, out, probe)
		if err != nil {
			out.fail("%s %d: %v", what, rep, err)
			continue
		}
		response = append(response, ms(s.response))
		milestone = append(milestone, ms(s.milestone))
		analyse = append(analyse, s.analyse.Seconds())
		leaked = append(leaked, s.leakedMB)
	}
	p1 := sampleProc()
	if len(response) == 0 {
		return nil, fmt.Errorf("no %s completed", what)
	}
	put(out.e2e, "response_p50_ms", median(response))
	put(out.e2e, "response_tail_ms", percentile(response, 75))
	put(out.e2e, "milestone_p50_ms", median(milestone))
	put(out.e2e, "work_per_s", float64(sg.n)/median(analyse))
	put(out.e2e, "cpu_ms_per_op", (p1.cpu-p0.cpu)*1e3/float64(len(response)))
	if sg.rc.tr != nil {
		sg.sessionLayers(out, probe, p0, p1, len(response))
		put(out.layer, "storage.scratch_leaked_mb_per_session", median(leaked))
		put(out.layer, "engine.live_events_per_s", float64(sg.n)/median(analyse))
	}
	return out, nil
}

// sessionLayers reports what the spans and counters of a session
// workload's timed section say about each layer.
func (sg *sessionGrid) sessionLayers(out *outcome, probe *finishProbe, p0, p1 procSample, ops int) {
	tr, l := sg.rc.tr, out.layer
	put(l, "core.grid_boot_ms", sg.bootMS)
	put(l, "events.generate_mb_per_s", sg.genMBps)
	put(l, "gsi.proxy_connect_ms", median(tr.durationsMS("core.LocalGrid.ClientFor")))
	put(l, "session.create_ms", median(tr.durationsMS("core.Client.CreateSession")))
	put(l, "session.move_whole_ms", median(tr.durationsMS("session.move_whole")))
	put(l, "session.split_ms", median(tr.durationsMS("session.split")))
	put(l, "session.move_parts_ms", median(tr.durationsMS("session.move_parts")))
	put(l, "session.split_imbalance", median(tr.notes("session.split_imbalance")))
	load := append(tr.durationsMS("core.Client.LoadNative"), tr.durationsMS("core.Client.LoadScript")...)
	put(l, "session.load_code_ms", median(load))
	control := append(tr.durationsMS("core.Client.Run"), tr.durationsMS("core.Client.Rewind")...)
	put(l, "session.control_ms", median(control))
	put(l, "session.close_ms", median(tr.durationsMS("core.Client.CloseSession")))
	probe.report(l)
	procLayers(l, p0, p1, ops)
}

// procLayers reports the process cost of a timed section.
func procLayers(l map[string]float64, p0, p1 procSample, ops int) {
	put(l, "proc.cpu_s", p1.cpu-p0.cpu)
	put(l, "proc.allocs_per_op", float64(p1.mallocs-p0.mallocs)/float64(ops))
	put(l, "proc.gc_pause_ms", float64(p1.gcPause-p0.gcPause)/1e6)
	put(l, "proc.peak_rss_mb", peakRSSMB())
}

// ---------------------------------------------------------------------
// script_rerun

type rerunFixture struct {
	*sessionGrid
	client *core.Client
	cycle  int
}

func setupScriptRerun(rc *runCtx) (fixture, error) {
	n := 12000
	if rc.tiny {
		n = 600
	}
	sg, err := newSessionGrid(rc, n)
	if err != nil {
		return nil, err
	}
	f := &rerunFixture{sessionGrid: sg}
	ok := false
	defer func() {
		if !ok {
			f.close()
		}
	}()
	if f.client, err = sg.grid.ClientFor(userCN); err != nil {
		return nil, err
	}
	if err := f.client.CreateSession(); err != nil {
		return nil, err
	}
	if _, err := f.client.AttachDataset(datasetID); err != nil {
		return nil, err
	}
	for i := 0; i < 2; i++ {
		if _, err := f.rerun(-1-int64(i), nil, nil); err != nil {
			return nil, fmt.Errorf("warm-up rerun: %w", err)
		}
	}
	ok = true
	return f, nil
}

func (f *rerunFixture) close() {
	if f.client != nil {
		// The grid is going away with the session; nothing to report.
		_ = f.client.CloseSession()
	}
	f.grid.Close()
}

// scriptVariant is the k-th edit of the user's script: the directory and
// the bin counts alternate, so every rerun must make the previous
// version's objects disappear from the merged tree and the mirror.
func scriptVariant(k int) (src, dir string) {
	dir = fmt.Sprintf("/ana%c", 'A'+k%2)
	bins := 50 + 30*(k%2)
	src = fmt.Sprintf(`
mult = tree.h1d(%[1]q, "mult", "Particles per event", %[2]d, 0, 200);
evis = tree.h1d(%[1]q, "evis", "Visible energy [GeV]", %[2]d, 0, 600);
esel = tree.h1d(%[1]q, "esel", "Selected object energy [GeV]", %[2]d, 0, 300);
nsel = tree.h1d(%[1]q, "nsel", "Selected objects per event", 40, 0, 40);
function process(ev) {
	mult.fill(ev.n);
	tot = 0; n = 0;
	for (p : ev.particles) {
		tot += p.e;
		if (p.e >= 20) { n += 1; esel.fill(p.e); }
	}
	evis.fill(tot);
	nsel.fill(n);
}
`, dir, bins)
	return src, dir
}

// rerun is one edit-run cycle in the open session: load the next script
// version, rewind, run, poll to the complete result.
func (f *rerunFixture) rerun(rep int64, out *outcome, probe *finishProbe) (s sessionSample, err error) {
	tr, c := f.rc.tr, f.client
	k := f.cycle
	f.cycle++
	src, dir := scriptVariant(k)
	_, prevDir := scriptVariant(k + 1)
	root := tr.open("rerun", "bench", -1, rep, time.Now())
	defer func() { tr.close(root, time.Now()) }()
	t0 := time.Now()
	if _, err = tr.timed("core.Client.LoadScript", "session", root, rep, func() error {
		_, err := c.LoadScript("ana", src, events.EventDecoderName, nil)
		return err
	}); err != nil {
		return s, err
	}
	if _, err = tr.timed("core.Client.Rewind", "session", root, rep, c.Rewind); err != nil {
		return s, err
	}
	runStart := time.Now()
	if _, err = tr.timed("core.Client.Run", "session", root, rep, c.Run); err != nil {
		return s, err
	}
	if probe != nil {
		probe.reset()
	}
	wait := tr.open("engine.analyse", "engine", root, rep, time.Now())
	first, done, err := f.waitResult(c, dir+"/mult", wait, rep, probe)
	tr.close(wait, time.Now())
	if err != nil {
		return s, err
	}
	s.response, s.milestone, s.analyse = done.Sub(t0), first.Sub(t0), done.Sub(runStart)
	if out != nil {
		for _, p := range c.Tree().ObjectPaths() {
			if strings.HasPrefix(p, prevDir+"/") {
				out.wrong("rerun %d: %s of the previous script version is still in the mirror", rep, p)
				break
			}
		}
		for _, name := range []string{"evis", "nsel"} {
			if h := c.Histogram1D(dir + "/" + name); h == nil || h.AllEntries() != f.n {
				out.wrong("rerun %d: %s/%s does not hold %d entries", rep, dir, name, f.n)
			}
		}
	}
	return s, nil
}

func (f *rerunFixture) measure() (*outcome, error) {
	return f.measureOps("rerun", f.rerun)
}
