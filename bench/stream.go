package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ipa-grid/ipa/internal/aida"
	"github.com/ipa-grid/ipa/internal/core"
	"github.com/ipa-grid/ipa/internal/gsi"
	"github.com/ipa-grid/ipa/internal/merge"
	"github.com/ipa-grid/ipa/internal/relay"
	"github.com/ipa-grid/ipa/internal/rmi"
)

const (
	clockPath = "/bench/clock"
	relayName = "relay00" // the one relay core.NewLocalGrid names
	// catchUp bounds the wait for readers to see the last publishes
	// after the generator stops.
	catchUp = 5 * time.Second
	// captureLimit is how many leading publishes the traced pass keeps
	// (encoded) for the layer probes to replay.
	captureLimit = 256
)

// streamSpec sizes a streaming workload.
type streamSpec struct {
	workers  int
	h1d, h2d int     // objects per worker tree, plus the clock
	rate     float64 // publishes per second over all workers
	touchH1D int     // H1Ds one publish fills (one H2D besides)
	fills    int     // fills per publish, spread over the touched objects
}

// poissonSchedule is the open-loop arrival plan: due offsets of a
// Poisson process of the given rate over the duration, a pure function
// of the seed.
func poissonSchedule(seed int64, rate float64, duration time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= duration {
			return out
		}
		out = append(out, due)
	}
}

// worker plays one analysis engine: a result tree of its own and a
// delta transport into the fabric.
type worker struct {
	id    string
	tree  *aida.Tree
	h1    []*aida.Histogram1D
	h2    []*aida.Histogram2D
	clock *aida.Histogram1D
	tp    *merge.Transport
	sent  int64
}

func newWorker(spec streamSpec, sid, id string, up merge.Publisher) (*worker, error) {
	w := &worker{id: id, tree: aida.NewTree(), tp: merge.NewTransport(sid, id, up)}
	var err error
	for i := 0; i < spec.h1d && err == nil; i++ {
		var h *aida.Histogram1D
		h, err = w.tree.H1D("/bench/h1", fmt.Sprintf("h%02d", i), "wide 1D", 100, 0, 1)
		w.h1 = append(w.h1, h)
	}
	for i := 0; i < spec.h2d && err == nil; i++ {
		var h *aida.Histogram2D
		h, err = w.tree.H2D("/bench/h2", fmt.Sprintf("g%02d", i), "wide 2D", 50, 0, 1, 50, 0, 1)
		w.h2 = append(w.h2, h)
	}
	if err == nil {
		// One fill per publish: its merged entry count is the number of
		// publishes a reader can see.
		w.clock, err = w.tree.H1D("/bench", "clock", "publishes", 1, 0, 1)
	}
	return w, err
}

// fill applies one publish's fills: all objects on the first publish of
// a tree (so the baseline is the whole wide tree), a seeded subset
// afterwards.
func (w *worker) fill(spec streamSpec, rng *rand.Rand, everything bool) {
	if everything {
		for _, h := range w.h1 {
			h.Fill(rng.Float64())
		}
		for _, h := range w.h2 {
			h.Fill(rng.Float64(), rng.Float64())
		}
	} else {
		per := spec.fills / (spec.touchH1D + 1)
		for k := 0; k < spec.touchH1D; k++ {
			h := w.h1[rng.Intn(len(w.h1))]
			for j := 0; j < per; j++ {
				h.Fill(rng.Float64())
			}
		}
		g := w.h2[rng.Intn(len(w.h2))]
		for j := 0; j < spec.fills-per*spec.touchH1D; j++ {
			g.Fill(rng.Float64(), rng.Float64())
		}
	}
	w.clock.Fill(0.5)
}

// capturedPublish is one publish as the fabric received it, with the
// delta encoded so probes can decode a fresh copy per replay.
type capturedPublish struct {
	worker      string
	delta       []byte
	full        bool
	done, total int64
}

// send publishes the worker's changes since its last send. It returns
// the caller-visible Send time and the delta build time inside it.
func (w *worker) send(capture *[]capturedPublish) (sendDur, buildDur time.Duration, accepted bool, err error) {
	w.sent++
	t0 := time.Now()
	reply, err := w.tp.Send(func(full bool) (merge.Snapshot, error) {
		b0 := time.Now()
		var d *aida.DeltaState
		var err error
		if full {
			d, err = w.tree.FullDelta()
		} else {
			d, err = w.tree.Delta()
		}
		buildDur = time.Since(b0)
		if err != nil {
			return merge.Snapshot{}, err
		}
		if capture != nil && len(*capture) < captureLimit {
			buf, err := aida.AppendDeltaState(nil, d)
			if err != nil {
				return merge.Snapshot{}, err
			}
			*capture = append(*capture, capturedPublish{worker: w.id, delta: buf, full: d.Full, done: w.sent, total: w.sent})
		}
		return merge.Snapshot{Delta: d, Done: w.sent, Total: w.sent}, nil
	})
	return time.Since(t0), buildDur, reply.Accepted, err
}

// streamFixture is the full fabric with a real session whose engines
// stay idle: the harness's workers publish in their place.
type streamFixture struct {
	rc      *runCtx
	spec    streamSpec
	grid    *core.LocalGrid
	client  *core.Client
	sid     string
	rel     *relay.Relay
	workers []*worker
	rng     *rand.Rand
	bootMS  float64
	// published counts accepted publishes so far (the merged clock).
	published int64
	capture   *[]capturedPublish

	// viewer_fanout only
	fanout  bool
	gateway *http.Server
	gwAddr  string
	gwTick  time.Duration
}

func setupLiveStream(rc *runCtx) (fixture, error) {
	return newStreamFixture(rc, streamSpec{workers: 2, h1d: 32, h2d: 2, rate: 100, touchH1D: 8, fills: 50}, false)
}

func setupViewerFanout(rc *runCtx) (fixture, error) {
	return newStreamFixture(rc, streamSpec{workers: 1, h1d: 64, h2d: 4, rate: 20, touchH1D: 8, fills: 50}, true)
}

func newStreamFixture(rc *runCtx, spec streamSpec, fanout bool) (*streamFixture, error) {
	f := &streamFixture{rc: rc, spec: spec, fanout: fanout, rng: rand.New(rand.NewSource(rc.seed))}
	if rc.tr != nil {
		f.capture = new([]capturedPublish)
	}
	t0 := time.Now()
	g, err := core.NewLocalGrid(core.GridOptions{
		Nodes: 2, BaseDir: filepath.Join(rc.dir, "grid"),
		Shards: 2, Replicate: true, ReplicaDepth: 1,
		WALDir: filepath.Join(rc.dir, "wal"), WALSyncEvery: 64,
		Relays: 1,
	})
	if err != nil {
		return nil, err
	}
	f.grid = g
	ok := false
	defer func() {
		if !ok {
			f.close()
		}
	}()
	if _, err := g.AddUser(userCN, gsi.RoleAnalyst); err != nil {
		return nil, err
	}
	f.bootMS = ms(time.Since(t0))
	f.rel = g.Relays[relayName]
	if f.rel == nil {
		return nil, errors.New("grid has no relay " + relayName)
	}
	// The session is created through the client so its token is real.
	if f.client, err = g.ClientFor(userCN); err != nil {
		return nil, err
	}
	if err := f.client.CreateSession(); err != nil {
		return nil, err
	}
	f.sid = f.client.SessionID()
	f.client.SetDirectPoll(true) // resolves to the relay
	for i := 0; i < spec.workers; i++ {
		w, err := newWorker(spec, f.sid, fmt.Sprintf("bench-%d", i), g.Merge)
		if err != nil {
			return nil, err
		}
		f.workers = append(f.workers, w)
	}
	if fanout {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		f.gwAddr = ln.Addr().String()
		gw := relay.NewGateway(f.rel)
		f.gwTick = gw.Tick
		f.gateway = &http.Server{Handler: gw}
		go f.gateway.Serve(ln) // returns when close() closes the server
	}
	// Warm-up: every worker's baseline (the whole wide tree), a few
	// deltas, and the viewer's subscription through the relay.
	for round := 0; round < 4; round++ {
		for _, w := range f.workers {
			if err := f.publishOne(w, round == 0); err != nil {
				return nil, fmt.Errorf("warm-up publish: %w", err)
			}
		}
	}
	if err := f.syncViewer(); err != nil {
		return nil, err
	}
	if got := f.client.DirectShard(); got != "relay:"+relayName {
		return nil, fmt.Errorf("viewer reads resolved onto %q, want the relay", got)
	}
	ok = true
	return f, nil
}

func (f *streamFixture) close() {
	if f.gateway != nil {
		f.gateway.Close()
	}
	if f.client != nil {
		// The grid is going away with the session; nothing to report.
		_ = f.client.CloseSession()
	}
	f.grid.Close()
}

// publishOne is a synchronous fill + send outside the timed section.
func (f *streamFixture) publishOne(w *worker, everything bool) error {
	w.fill(f.spec, f.rng, everything)
	_, _, accepted, err := w.send(f.capture)
	if err != nil {
		return err
	}
	if !accepted {
		return errors.New("publish refused")
	}
	f.published++
	return nil
}

// syncViewer polls until the client mirror shows every publish so far.
func (f *streamFixture) syncViewer() error {
	deadline := time.Now().Add(catchUp)
	for {
		if _, err := f.client.Poll(); err != nil {
			return fmt.Errorf("viewer poll: %w", err)
		}
		if f.visible() >= f.published {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("viewer mirror stuck at publish %d of %d", f.visible(), f.published)
		}
		time.Sleep(time.Millisecond)
	}
}

// visible is how many publishes the viewer's mirror contains.
func (f *streamFixture) visible() int64 {
	if h := f.client.Histogram1D(clockPath); h != nil {
		return h.AllEntries()
	}
	return 0
}

// seenLog records, per publish seq, when a reader first saw it.
type seenLog struct {
	base int64 // publishes before the timed section
	at   []time.Time
	// next is the first seq (0-based within the section) not yet seen;
	// the reader goroutine advances it, the generator side waits on it.
	next atomic.Int64
}

func newSeenLog(base int64, n int) *seenLog { return &seenLog{base: base, at: make([]time.Time, n)} }

// mark notes that the reader's view held `count` publishes at time t.
func (s *seenLog) mark(count int64, t time.Time) {
	upTo := min(count-s.base, int64(len(s.at)))
	for i := s.next.Load(); i < upTo; i++ {
		s.at[i] = t
		s.next.Store(i + 1)
	}
}

// freshness returns due→seen delays in ms for every seq seen, and how
// many were never seen.
func (s *seenLog) freshness(start time.Time, due []time.Duration) (msDelays []float64, missing int) {
	for i, d := range due {
		if s.at[i].IsZero() {
			missing++
			continue
		}
		msDelays = append(msDelays, ms(s.at[i].Sub(start.Add(d))))
	}
	return msDelays, missing
}

// genStats is what the open-loop generator measured about itself and
// the publish path.
type genStats struct {
	sendUS, buildUS, fillNS, lateUS []float64
	backlogMax                      int
	mirrorLagMax                    int64
	refused                         int
	err                             error
}

// generate plays the arrival schedule from one goroutine: wait for each
// due time (never skipping — a late generator publishes immediately and
// the lateness is reported), fill, send.
func (f *streamFixture) generate(start time.Time, due []time.Duration) genStats {
	var gs genStats
	tr := f.rc.tr
	mirrored0 := f.grid.Router.Mirrored()
	sent0 := f.published
	for i, d := range due {
		at := start.Add(d)
		if wait := time.Until(at); wait > 0 {
			time.Sleep(wait)
		}
		begin := time.Now()
		gs.lateUS = append(gs.lateUS, us(begin.Sub(at)))
		backlog := 0
		for j := i + 1; j < len(due) && start.Add(due[j]).Before(begin); j++ {
			backlog++
		}
		gs.backlogMax = max(gs.backlogMax, backlog)
		w := f.workers[i%len(f.workers)]
		w.fill(f.spec, f.rng, false)
		filled := time.Now()
		sendDur, buildDur, accepted, err := w.send(f.capture)
		if err != nil {
			gs.err = err
			return gs
		}
		if !accepted {
			gs.refused++
			continue
		}
		f.published++
		gs.sendUS = append(gs.sendUS, us(sendDur))
		gs.buildUS = append(gs.buildUS, us(buildDur))
		gs.fillNS = append(gs.fillNS, float64(filled.Sub(begin).Nanoseconds())/float64(f.spec.fills+1))
		if tr != nil {
			seq := f.published
			p := tr.add("merge.Transport.Send", "merge", -1, seq, filled, filled.Add(sendDur))
			tr.add("aida.delta_build", "aida", p, seq, filled, filled.Add(buildDur))
			tr.add("aida.fill", "aida", -1, seq, begin, filled)
			lag := (f.published - sent0) - (f.grid.Router.Mirrored() - mirrored0)
			gs.mirrorLagMax = max(gs.mirrorLagMax, lag)
		}
	}
	return gs
}

// rateWindow is the width of the windows a closed-loop rate is counted
// in. The reported rate is the median window's, so that a stall of the
// host during one window does not move it.
const rateWindow = 250 * time.Millisecond

// windowRate buckets completion offsets into rateWindow-wide windows
// over [0, span) and returns the median window's rate per second.
func windowRate(done []time.Duration, span time.Duration) float64 {
	n := int(span / rateWindow)
	if n < 1 {
		return float64(len(done)) / span.Seconds()
	}
	counts := make([]float64, n)
	for _, d := range done {
		if i := int(d / rateWindow); i >= 0 && i < n {
			counts[i]++
		}
	}
	return median(counts) / rateWindow.Seconds()
}

// viewer is the closed-loop core.Client reader: poll, note which
// publishes the mirror now holds, think, repeat until stopped. doneAt
// collects each poll's completion offset from start when non-nil.
func (f *streamFixture) viewer(stop *atomic.Bool, think time.Duration, seen *seenLog, start time.Time, doneAt *[]time.Duration) (polls int, changedUS []float64, err error) {
	for !stop.Load() {
		t0 := time.Now()
		up, err := f.client.Poll()
		now := time.Now()
		if err != nil {
			return polls, changedUS, fmt.Errorf("viewer poll: %w", err)
		}
		polls++
		if doneAt != nil {
			*doneAt = append(*doneAt, now.Sub(start))
		}
		if up.Changed {
			changedUS = append(changedUS, us(now.Sub(t0)))
			seen.mark(f.visible(), now)
			if f.rc.tr != nil {
				f.rc.tr.add("core.Client.Poll", "core", -1, f.visible(), t0, now)
			}
		}
		if think > 0 {
			time.Sleep(think)
		}
	}
	return polls, changedUS, nil
}

// expected is the flat sequential merge of the harness's own worker
// trees — what every reader must end up with, bit for bit.
func (f *streamFixture) expected() (flatTree, error) {
	t := aida.NewTree()
	for _, w := range f.workers {
		if err := t.MergeFrom(w.tree); err != nil {
			return nil, err
		}
	}
	return flattenTree(t)
}

// checkConverged compares the viewer mirror, a relay full poll and an
// owner full poll with the expected merge.
func (f *streamFixture) checkConverged(out *outcome) {
	for _, w := range f.workers {
		if n := w.tp.Rebaselines(); n > 0 {
			out.wrong("%s re-baselined %d times on a fabric with no faults", w.id, n)
		}
	}
	want, err := f.expected()
	if err != nil {
		out.wrong("building the expected merge: %v", err)
		return
	}
	if err := f.syncViewer(); err != nil {
		out.wrong("%v", err)
		return
	}
	// The relay trails the owner by up to one sync interval.
	if err := f.rel.SyncNow(f.sid); err != nil {
		out.wrong("relay sync: %v", err)
	}
	views := map[string]func() (flatTree, error){
		"viewer mirror": func() (flatTree, error) { return flattenTree(f.client.Tree()) },
		"relay full poll": func() (flatTree, error) {
			var r merge.PollReply
			if err := f.rel.Poll(merge.PollArgs{SessionID: f.sid, Full: true}, &r); err != nil {
				return nil, err
			}
			return flattenReply(&r)
		},
		"owner full poll": func() (flatTree, error) {
			var r merge.PollReply
			if err := f.grid.Router.PollOwner(merge.PollArgs{SessionID: f.sid, Full: true}, &r); err != nil {
				return nil, err
			}
			return flattenReply(&r)
		},
	}
	for name, view := range views {
		got, err := view()
		if err == nil {
			err = diffTrees(got, want, 0)
		}
		if err != nil {
			out.wrong("%s differs from the flat merge of the worker trees: %v", name, err)
		}
	}
}

func (f *streamFixture) measure() (*outcome, error) {
	f.rc.tr.reset()
	if f.fanout {
		return f.measureFanout()
	}
	return f.measureLive()
}

// counters are the exported program counters a streaming section is
// bracketed with.
type counters struct {
	proc  procSample
	prom  promSnapshot
	relay relay.Stats
}

func (f *streamFixture) readCounters() counters {
	c := counters{proc: sampleProc(), relay: f.rel.Stats()}
	if f.rc.tr != nil {
		c.prom = scrapeProm()
	}
	return c
}

// streamLayers reports what counters and generator statistics say about
// each layer over a streaming timed section.
func (f *streamFixture) streamLayers(out *outcome, gs genStats, c0, c1 counters, wall time.Duration, ops int) {
	l := out.layer
	put(l, "core.grid_boot_ms", f.bootMS)
	put(l, "aida.fill_ns", median(gs.fillNS))
	put(l, "aida.delta_build_us", median(gs.buildUS))
	put(l, "gen.late_p99_us", percentile(gs.lateUS, 99))
	put(l, "gen.backlog_max", float64(gs.backlogMax))
	put(l, "shard.mirror_lag_publishes", float64(gs.mirrorLagMax))
	put(l, "shard.mirror_backpressure_total", c1.prom.since(c0.prom, "ipa_shard_mirror_backpressure_total"))
	put(l, "merge.wal_fsync_s", c1.prom.since(c0.prom, "ipa_merge_wal_fsync_seconds_sum"))
	put(l, "rmi.server_call_s", c1.prom.since(c0.prom, "ipa_rmi_server_call_seconds_sum"))
	put(l, "rmi.client_connects_total", c1.prom.since(c0.prom, "ipa_rmi_client_connects_total"))
	frames := c1.prom.since(c0.prom, "ipa_relay_sse_frames_total")
	put(l, "relay.sse_frames_per_s", frames/wall.Seconds())
	if coalesced := c1.prom.since(c0.prom, "ipa_relay_sse_coalesced_total"); frames+coalesced > 0 {
		put(l, "relay.sse_coalesced_ratio", coalesced/(frames+coalesced))
	}
	up, down := c1.relay.UpPolls-c0.relay.UpPolls, c1.relay.DownPolls-c0.relay.DownPolls
	if up > 0 {
		put(l, "relay.fanout", float64(down)/float64(up))
	}
	put(l, "relay.staleness_ms", c1.relay.StalenessMS)
	put(l, "relay.rebaselines_total", float64(c1.relay.Rebaselines-c0.relay.Rebaselines))
	// Poll-path ratios where the viewers actually read: the relay's
	// local manager.
	var st merge.StatsReply
	if err := f.rel.Local().Stats(merge.StatsArgs{SessionID: f.sid}, &st); err == nil && st.Found {
		if st.Polls > 0 {
			put(l, "merge.fast_poll_ratio", float64(st.FastPolls)/float64(st.Polls))
		}
		if st.CacheHits+st.CacheMisses > 0 {
			put(l, "merge.frame_cache_hit_ratio", float64(st.CacheHits)/float64(st.CacheHits+st.CacheMisses))
		}
	}
	procLayers(l, c0.proc, c1.proc, ops)
}

// ---------------------------------------------------------------------
// live_stream

func (f *streamFixture) measureLive() (*outcome, error) {
	out := newOutcome()
	duration := time.Duration(f.rc.seconds * float64(time.Second))
	due := poissonSchedule(f.rc.seed, f.spec.rate, duration)
	if len(due) == 0 {
		return nil, errors.New("empty arrival schedule")
	}
	seen := newSeenLog(f.published, len(due))
	var stop atomic.Bool
	var wg sync.WaitGroup
	var polls int
	var changedUS []float64
	var viewErr error
	c0 := f.readCounters()
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		polls, changedUS, viewErr = f.viewer(&stop, time.Millisecond, seen, start, nil)
	}()
	gs := f.generate(start, due)
	// Let the viewer see the last publishes before the section ends.
	for deadline := time.Now().Add(catchUp); seen.next.Load() < int64(len(due)-gs.refused) && time.Now().Before(deadline) && gs.err == nil; {
		time.Sleep(time.Millisecond)
	}
	c1 := f.readCounters()
	wall := time.Since(start)
	stop.Store(true)
	wg.Wait()
	if gs.err != nil {
		return nil, fmt.Errorf("publish: %w", gs.err)
	}
	if viewErr != nil {
		return nil, viewErr
	}
	fresh, missing := seen.freshness(start, due)
	out.attempted = len(due) + polls
	out.failed = gs.refused + missing
	if missing > 0 {
		out.wrong("%d of %d publishes never became visible to the viewer", missing, len(due))
	}
	if len(fresh) == 0 || len(gs.sendUS) == 0 {
		return nil, errors.New("no publish became visible")
	}
	put(out.e2e, "response_p50_ms", median(fresh))
	put(out.e2e, "response_tail_ms", percentile(fresh, 95))
	put(out.e2e, "milestone_p50_ms", median(gs.sendUS)/1e3)
	put(out.e2e, "cpu_ms_per_op", (c1.proc.cpu-c0.proc.cpu)*1e3/float64(len(gs.sendUS)))

	// Capacity: both workers publish closed-loop, as fast as the fabric
	// takes them, for a short burst after the open-loop section.
	rate, err := f.burst(time.Duration(0.3 * float64(duration)))
	if err != nil {
		return nil, err
	}
	put(out.e2e, "work_per_s", rate)
	f.checkConverged(out)
	if f.rc.tr != nil {
		f.streamLayers(out, gs, c0, c1, wall, len(gs.sendUS))
		put(out.layer, "core.client_poll_changed_us", median(changedUS))
		put(out.layer, "core.viewer_freshness_p50_ms", median(fresh))
		put(out.layer, "core.viewer_freshness_p99_ms", percentile(fresh, 99))
	}
	return out, nil
}

// burst publishes from every worker concurrently for d and returns the
// accepted publishes per second (median window).
func (f *streamFixture) burst(d time.Duration) (float64, error) {
	var wg sync.WaitGroup
	doneAt := make([][]time.Duration, len(f.workers))
	errs := make([]error, len(f.workers))
	start := time.Now()
	for i, w := range f.workers {
		wg.Add(1)
		go func(i int, w *worker, rng *rand.Rand) {
			defer wg.Done()
			for time.Since(start) < d {
				w.fill(f.spec, rng, false)
				_, _, accepted, err := w.send(nil)
				if err != nil {
					errs[i] = err
					return
				}
				if accepted {
					doneAt[i] = append(doneAt[i], time.Since(start))
				}
			}
		}(i, w, rand.New(rand.NewSource(f.rc.seed+int64(i)+1)))
	}
	wg.Wait()
	var all []time.Duration
	for i := range doneAt {
		if errs[i] != nil {
			return 0, fmt.Errorf("burst publish: %w", errs[i])
		}
		all = append(all, doneAt[i]...)
	}
	f.published += int64(len(all))
	if len(all) == 0 {
		return 0, errors.New("burst published nothing")
	}
	return windowRate(all, d), nil
}

// ---------------------------------------------------------------------
// viewer_fanout

const (
	// joinerThink is the pause between two full syncs of viewer B.
	joinerThink = 20 * time.Millisecond
	// sseViewers browsers watch the gateway. Each gets one frame per
	// gateway tick, so a fill's delay to one browser is mostly where in
	// that browser's tick it fell; the browsers connect a fraction of a
	// tick apart so that together they sample every phase evenly, which
	// steadies the pooled median without needing more publishes.
	sseViewers = 4
)

func (f *streamFixture) measureFanout() (*outcome, error) {
	out := newOutcome()
	duration := time.Duration(f.rc.seconds * float64(time.Second))
	due := poissonSchedule(f.rc.seed, f.spec.rate, duration)
	if len(due) == 0 {
		return nil, errors.New("empty arrival schedule")
	}
	st, err := f.client.Status()
	if err != nil {
		return nil, err
	}
	if st.RelayAddr == "" {
		return nil, errors.New("session status advertises no relay endpoint")
	}
	objects := f.spec.h1d + f.spec.h2d + 1

	seenPoll := newSeenLog(f.published, len(due))
	seenSSE := make([]*seenLog, sseViewers)
	sseErrs := make([]error, sseViewers)
	var stop atomic.Bool
	var wg sync.WaitGroup
	var polls, syncs, badSyncs int
	var pollDone []time.Duration
	var syncMS, restoreUS []float64
	var viewErr, joinErr error
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	abort := func(err error) (*outcome, error) {
		stop.Store(true)
		cancel()
		wg.Wait()
		return nil, err
	}
	for i := range seenSSE { // the browsers, connecting a part of a tick apart
		seenSSE[i] = newSeenLog(f.published, len(due))
		ready := make(chan struct{})
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sseErrs[i] = f.sseReader(ctx, ready, seenSSE[i])
		}(i)
		select {
		case <-ready:
		case <-time.After(catchUp):
			return abort(fmt.Errorf("SSE stream %d never delivered its first frame", i))
		}
		time.Sleep(f.gwTick / sseViewers)
	}

	c0 := f.readCounters()
	start := time.Now()
	wg.Add(2)
	go func() { // viewer A: closed loop, no think
		defer wg.Done()
		polls, _, viewErr = f.viewer(&stop, 0, seenPoll, start, &pollDone)
	}()
	go func() { // viewer B: joins, takes the whole tree, leaves
		defer wg.Done()
		for !stop.Load() {
			d, r, n, err := f.fullSync(st.RelayAddr)
			if err != nil {
				joinErr = err
				return
			}
			syncs++
			if n != objects {
				badSyncs++
			}
			syncMS = append(syncMS, ms(d))
			restoreUS = append(restoreUS, us(r)/float64(max(n, 1)))
			time.Sleep(joinerThink)
		}
	}()
	allSeen := func(n int64) bool {
		for _, s := range seenSSE {
			if s.next.Load() < n {
				return false
			}
		}
		return seenPoll.next.Load() >= n
	}
	gs := f.generate(start, due)
	for deadline := time.Now().Add(catchUp); !allSeen(int64(len(due)-gs.refused)) && time.Now().Before(deadline) && gs.err == nil; {
		time.Sleep(time.Millisecond)
	}
	c1 := f.readCounters()
	wall := time.Since(start)
	stop.Store(true)
	cancel()
	wg.Wait()
	for _, err := range []error{gs.err, viewErr, joinErr} {
		if err != nil {
			return nil, err
		}
	}
	var freshSSE []float64
	missSSE := 0
	for i, seen := range seenSSE {
		if err := sseErrs[i]; err != nil && !errors.Is(err, context.Canceled) {
			return nil, fmt.Errorf("SSE stream %d: %w", i, err)
		}
		fresh, miss := seen.freshness(start, due)
		freshSSE = append(freshSSE, fresh...)
		missSSE += miss
	}
	freshPoll, missPoll := seenPoll.freshness(start, due)
	out.attempted = len(due)*(1+sseViewers) + polls + syncs
	out.failed = gs.refused + missPoll + missSSE + badSyncs
	if missPoll+missSSE > 0 {
		out.wrong("publishes never visible: %d to the polling viewer, %d on the SSE streams (of %d)", missPoll, missSSE, len(due))
	}
	if badSyncs > 0 {
		out.wrong("%d of %d full syncs did not deliver all %d objects", badSyncs, syncs, objects)
	}
	if len(freshSSE) == 0 || len(syncMS) == 0 || polls == 0 {
		return nil, errors.New("a reader completed no operation")
	}
	put(out.e2e, "response_p50_ms", median(freshSSE))
	put(out.e2e, "response_tail_ms", percentile(freshSSE, 90))
	put(out.e2e, "milestone_p50_ms", median(syncMS))
	put(out.e2e, "work_per_s", windowRate(pollDone, duration))
	put(out.e2e, "cpu_ms_per_op", (c1.proc.cpu-c0.proc.cpu)*1e3/float64(polls))
	f.checkConverged(out)
	if f.rc.tr != nil {
		f.streamLayers(out, gs, c0, c1, wall, polls)
		put(out.layer, "core.viewer_freshness_p50_ms", median(freshPoll))
		put(out.layer, "aida.frame_restore_us", median(restoreUS))
	}
	return out, nil
}

// fullSync is viewer B's one visit: dial the relay, poll the full tree,
// restore every object into a fresh tree, hang up. It returns the whole
// visit's time, the part spent restoring, and the objects restored.
func (f *streamFixture) fullSync(relayAddr string) (total, restore time.Duration, n int, err error) {
	t0 := time.Now()
	rc, err := rmi.Dial(relayAddr, f.client.Token())
	if err != nil {
		return 0, 0, 0, fmt.Errorf("joiner dial: %w", err)
	}
	defer rc.Close()
	var reply merge.PollReply
	if err := rc.Call(relay.ObjectName(relayName)+".Poll", merge.PollArgs{SessionID: f.sid, Full: true}, &reply); err != nil {
		return 0, 0, 0, fmt.Errorf("joiner full poll: %w", err)
	}
	r0 := time.Now()
	tree := aida.NewTree()
	for _, e := range reply.Entries {
		obj, err := e.Restore()
		if err != nil {
			return 0, 0, 0, fmt.Errorf("joiner restoring %s: %w", e.Path, err)
		}
		if err := tree.PutAt(e.Path, obj); err != nil {
			return 0, 0, 0, err
		}
	}
	n = len(reply.Entries)
	reply.Release()
	end := time.Now()
	if f.rc.tr != nil {
		p := f.rc.tr.add("joiner.full_sync", "rmi", -1, 0, t0, end)
		f.rc.tr.add("aida.restore", "aida", p, 0, r0, end)
	}
	return end.Sub(t0), end.Sub(r0), n, nil
}

// sseReader is the browser: it reads update frames off the gateway and
// maps each frame's done count to the publishes it makes visible.
func (f *streamFixture) sseReader(ctx context.Context, ready chan<- struct{}, seen *seenLog) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+f.gwAddr+"/events/"+f.sid, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("SSE stream: HTTP %s", resp.Status)
	}
	r := bufio.NewReader(resp.Body)
	first := true
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return err
		}
		now := time.Now()
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		var frame struct {
			Done int64 `json:"done"`
		}
		if err := json.Unmarshal([]byte(data), &frame); err != nil {
			return fmt.Errorf("SSE frame %q: %w", strings.TrimSpace(data), err)
		}
		seen.mark(frame.Done, now)
		if first {
			first = false
			close(ready)
		}
	}
}
