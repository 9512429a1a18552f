package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/ipa-grid/ipa/internal/aida"
	"github.com/ipa-grid/ipa/internal/analysis"
	"github.com/ipa-grid/ipa/internal/codeloader"
	"github.com/ipa-grid/ipa/internal/dataset"
	"github.com/ipa-grid/ipa/internal/engine"
	"github.com/ipa-grid/ipa/internal/events"
	"github.com/ipa-grid/ipa/internal/merge"
	"github.com/ipa-grid/ipa/internal/relay"
	"github.com/ipa-grid/ipa/internal/rmi"
	"github.com/ipa-grid/ipa/internal/shard"
	"github.com/ipa-grid/ipa/internal/splitter"
	"github.com/ipa-grid/ipa/internal/storage"
)

// Layer probes: after a traced workload, a sample of that workload's own
// inputs (dataset records, published deltas) is replayed sequentially
// through isolated instances of single layers, built from their public
// constructors, so each layer's cost is known apart from the others.

const (
	probeSession = "probe-session"
	// probeRecords caps how many dataset records the per-record probes
	// hold in memory.
	probeRecords = 20000
	// probeReps is how often a cheap single call is repeated for its
	// median.
	probeReps = 400
)

// recorder is the counting publisher an isolated engine publishes into:
// it accepts everything and keeps what it was sent.
type recorder struct {
	mu    sync.Mutex
	pubs  []capturedPublish
	times []time.Time
	final chan struct{} // closed at the publish that reports every event done
	err   error
}

func newRecorder() *recorder { return &recorder{final: make(chan struct{})} }

func (r *recorder) Publish(args merge.PublishArgs, reply *merge.PublishReply) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := time.Now()
	if args.Delta == nil {
		r.err = errors.New("engine published a whole tree, not a delta")
	} else if len(r.pubs) < captureLimit {
		buf, err := aida.AppendDeltaState(nil, args.Delta)
		if err != nil {
			r.err = err
		}
		r.pubs = append(r.pubs, capturedPublish{
			worker: args.WorkerID, delta: buf, full: args.Delta.Full,
			done: args.EventsDone, total: args.EventsTotal,
		})
	}
	r.times = append(r.times, now)
	reply.Accepted = true
	reply.Version = int64(len(r.times))
	if args.EventsTotal > 0 && args.EventsDone == args.EventsTotal {
		select {
		case <-r.final:
		default:
			close(r.final)
		}
	}
	return nil
}

// engineRun is what the engine probe measured.
type engineRun struct {
	// eventsPerS is one engine's rate while its siblings run beside it;
	// blockMS is how long the slowest of them took, which is what the
	// session waits for.
	eventsPerS, blockMS       float64
	publishes, firstPublishMS float64
	// pubs are engine 0's publishes: the session workloads' delta sample.
	pubs []capturedPublish
}

// engineProbe runs isolated engines — one per staged part, side by side
// as in a session, each publishing into a null recorder — and reports
// their rate.
func engineProbe(parts []string, b *codeloader.Bundle) (run engineRun, err error) {
	recs := make([]*recorder, len(parts))
	engines := make([]*engine.Engine, len(parts))
	var events int64
	for i, part := range parts {
		recs[i] = newRecorder()
		eng := engine.New(engine.Config{
			SessionID: probeSession, WorkerID: fmt.Sprintf("engine-%02d", i), Publisher: recs[i],
		})
		engines[i] = eng
		go eng.Serve()
		defer eng.Shutdown()
		if err := eng.SetPart(part, 0); err != nil {
			return run, err
		}
		if err := eng.LoadCode(b); err != nil {
			return run, err
		}
		_, total := eng.Progress()
		events += total
	}
	t0 := time.Now()
	for _, eng := range engines {
		if err := eng.Run(); err != nil {
			return run, err
		}
	}
	var slowest time.Duration
	for i, rec := range recs {
		select {
		case <-rec.final:
		case <-time.After(opDeadline):
			st, serr := engines[i].State()
			return run, fmt.Errorf("isolated engine %d never published its final snapshot (state %s, %v)", i, st, serr)
		}
		rec.mu.Lock()
		err, last := rec.err, rec.times[len(rec.times)-1]
		rec.mu.Unlock()
		if err != nil {
			return run, err
		}
		slowest = max(slowest, last.Sub(t0))
	}
	first := recs[0]
	first.mu.Lock()
	defer first.mu.Unlock()
	return engineRun{
		eventsPerS: float64(events) / float64(len(parts)) / slowest.Seconds(),
		blockMS:    ms(slowest),
		publishes:  float64(len(first.times)), firstPublishMS: ms(first.times[0].Sub(t0)),
		pubs: first.pubs,
	}, nil
}

// stagingProbes time the staging layers on the published file itself and
// leave the parts of the split behind for the record and engine probes.
func (sg *sessionGrid) stagingProbes(l map[string]float64) (parts []string, err error) {
	dir := filepath.Join(sg.rc.dir, "probe")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	partPath := func(i int) string { return filepath.Join(dir, fmt.Sprintf("part-%d.ipa", i)) }
	t0 := time.Now()
	if _, err := splitter.SplitFile(sg.dsPath, sessionNodes, partPath); err != nil {
		return nil, fmt.Errorf("splitter probe: %w", err)
	}
	put(l, "splitter.split_mb_per_s", sg.sizeMB/time.Since(t0).Seconds())

	el, err := storage.New("probe", filepath.Join(dir, "element"))
	if err != nil {
		return nil, err
	}
	src, err := os.Open(sg.dsPath)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	t0 = time.Now()
	if _, err := el.Put("/whole.ipa", src); err != nil {
		return nil, fmt.Errorf("storage probe: %w", err)
	}
	put(l, "storage.put_mb_per_s", sg.sizeMB/time.Since(t0).Seconds())
	for i := 0; i < sessionNodes; i++ {
		parts = append(parts, partPath(i))
	}
	return parts, nil
}

// recordProbes time the per-record layers over a staged part: container
// iteration, event decoding and (when withHiggs) the Higgs event loop.
func recordProbes(part string, withHiggs bool, l map[string]float64) error {
	r, file, err := dataset.Open(part)
	if err != nil {
		return err
	}
	defer file.Close()
	n := min(r.NumRecords(), probeRecords)
	it, err := r.Iter(0, n)
	if err != nil {
		return err
	}
	records := make([][]byte, 0, n)
	var iter time.Duration
	for {
		t0 := time.Now()
		rec, err := it.Next()
		iter += time.Since(t0)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		records = append(records, append([]byte(nil), rec...))
	}
	if len(records) == 0 {
		return errors.New("record probe: empty part")
	}
	put(l, "dataset.iter_ns_per_record", float64(iter.Nanoseconds())/float64(len(records)))

	var ev events.Event
	t0 := time.Now()
	for _, rec := range records {
		if err := events.UnmarshalInto(rec, &ev); err != nil {
			return err
		}
	}
	put(l, "events.unmarshal_ns_per_event", float64(time.Since(t0).Nanoseconds())/float64(len(records)))
	if !withHiggs {
		return nil
	}
	a, err := events.NewHiggsAnalysis(nil)
	if err != nil {
		return err
	}
	ctx := &analysis.Context{Tree: aida.NewTree()}
	if err := a.Init(ctx); err != nil {
		return err
	}
	t0 = time.Now()
	for _, rec := range records {
		if err := a.Process(rec, ctx); err != nil {
			return err
		}
	}
	put(l, "events.higgs_process_ns_per_event", float64(time.Since(t0).Nanoseconds())/float64(len(records)))
	return nil
}

// sessionProbes runs the probes both session workloads share — staging,
// per-record, engines side by side with the given code, and the fabric
// on what engine 0 published — and closes the budget: do the layers on
// the blocking path (the control calls given by span name, the
// milestone when it is staging, the engines, the tail of half a poll
// think plus one changed poll) add up to the measured response?
func (sg *sessionGrid) sessionProbes(out *outcome, b codeloader.Bundle, rateMetric string, withHiggs bool, blocking ...string) error {
	l := out.layer
	parts, err := sg.stagingProbes(l)
	if err != nil {
		return err
	}
	if err := recordProbes(parts[0], withHiggs, l); err != nil {
		return err
	}
	stored, err := codeloader.New().Store(b)
	if err != nil {
		return err
	}
	run, err := engineProbe(parts, stored)
	if err != nil {
		return err
	}
	put(l, rateMetric, run.eventsPerS)
	put(l, "engine.publishes_per_run", run.publishes)
	put(l, "engine.first_publish_ms", run.firstPublishMS)
	if err := fabricProbes(sg.rc, run.pubs, l); err != nil {
		return err
	}
	sum := run.blockMS + ms(pollThink)/2 + l["core.client_poll_changed_us"]/1e3
	for _, name := range blocking {
		sum += median(sg.rc.tr.durationsMS(name))
	}
	put(l, "budget.coverage_ratio", sum/out.e2e["response_p50_ms"])
	return nil
}

func (f *coldFixture) probes(out *outcome) error {
	return f.sessionProbes(out, codeloader.Bundle{
		Name: "higgs", Language: codeloader.LangNative, Analysis: events.HiggsAnalysisName,
	}, "engine.native_events_per_s", true,
		"core.Client.CreateSession", "core.Client.AttachDataset", "core.Client.LoadNative", "core.Client.Run")
}

func (f *rerunFixture) probes(out *outcome) error {
	src, _ := scriptVariant(0)
	b := codeloader.Bundle{Name: "ana", Language: codeloader.LangScript, Source: src, Decoder: events.EventDecoderName}
	var compile []float64
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		if _, err := b.Instantiate(nil); err != nil {
			return err
		}
		compile = append(compile, ms(time.Since(t0)))
	}
	put(out.layer, "script.compile_ms", median(compile))
	return f.sessionProbes(out, b, "engine.script_events_per_s", false,
		"core.Client.LoadScript", "core.Client.Rewind", "core.Client.Run")
}

func (f *streamFixture) probes(out *outcome) error {
	l := out.layer
	if err := fabricProbes(f.rc, *f.capture, l); err != nil {
		return err
	}
	// Budget: a fill waits for its Send, on average half a relay tick
	// for the next subscription sync, the sync, and the reader's poll —
	// plus, on the SSE path, half a gateway tick.
	sum := out.e2e["milestone_p50_ms"] + 12.5 + l["relay.sync_us"]/1e3
	if f.fanout {
		sum = l["merge.publish_us"]/1e3 + 12.5 + l["relay.sync_us"]/1e3 + 100 + l["relay.poll_us"]/1e3
	} else {
		sum += ms(time.Millisecond)/2 + l["core.client_poll_changed_us"]/1e3
	}
	put(l, "budget.coverage_ratio", sum/out.e2e["response_p50_ms"])
	return nil
}

// replay decodes a fresh copy of every captured publish (receivers may
// keep what they are handed), stamps it with the generation a transport
// would give it, and only then hands the copies to apply in order — so
// a caller timing the whole loop does not time the decoding.
func replay(pubs []capturedPublish, apply func(i int, args merge.PublishArgs) error) error {
	seq := map[string]int64{}
	policy := map[string]*aida.CompressionPolicy{}
	all := make([]merge.PublishArgs, len(pubs))
	for i, p := range pubs {
		d, err := aida.DecodeDeltaState(p.delta)
		if err != nil {
			return err
		}
		// Each producer's transport hands its deltas one adaptive
		// compression policy; whoever encodes them downstream (the WAL,
		// an RMI hop) pays for that choice.
		if policy[p.worker] == nil {
			policy[p.worker] = aida.NewCompressionPolicy()
		}
		d.SetCompressionPolicy(policy[p.worker])
		seq[p.worker]++
		all[i] = merge.PublishArgs{
			SessionID: probeSession, WorkerID: p.worker, Seq: seq[p.worker],
			Delta: d, EventsDone: p.done, EventsTotal: p.total,
		}
	}
	for i, args := range all {
		if err := apply(i, args); err != nil {
			return err
		}
	}
	return nil
}

// publishInto replays the sample into pub and returns each publish's
// caller-visible time in µs. A refused publish means the sample is not
// the stream a transport would have sent.
func publishInto(pubs []capturedPublish, pub merge.Publisher) ([]float64, error) {
	var out []float64
	err := replay(pubs, func(i int, args merge.PublishArgs) error {
		var reply merge.PublishReply
		t0 := time.Now()
		err := pub.Publish(args, &reply)
		out = append(out, us(time.Since(t0)))
		if err == nil && !reply.Accepted {
			err = fmt.Errorf("publish %d refused (need full: %v)", i, reply.NeedFull)
		}
		return err
	})
	return out, err
}

// fabricProbes replays the workload's captured publishes through the
// wire codec, a bare manager, a WAL-backed manager, two routers (K=0 and
// K=1), a relay, and a loopback RMI hop.
func fabricProbes(rc *runCtx, pubs []capturedPublish, l map[string]float64) error {
	if len(pubs) < 2 {
		return fmt.Errorf("only %d publishes captured for the layer probes", len(pubs))
	}
	dir := filepath.Join(rc.dir, "probe")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}

	// aida: the delta wire codec, on the deltas after the baselines.
	var encUS, decUS, size []float64
	for _, p := range pubs {
		t0 := time.Now()
		d, err := aida.DecodeDeltaState(p.delta)
		dec := time.Since(t0)
		if err != nil {
			return err
		}
		t0 = time.Now()
		if _, err := aida.AppendDeltaState(nil, d); err != nil {
			return err
		}
		enc := time.Since(t0)
		if !p.full {
			decUS, encUS, size = append(decUS, us(dec)), append(encUS, us(enc)), append(size, float64(len(p.delta)))
		}
	}
	put(l, "aida.delta_decode_us", median(decUS))
	put(l, "aida.delta_encode_us", median(encUS))
	put(l, "aida.delta_bytes", median(size))

	// merge: a bare manager, with an incremental poll after every delta.
	mgr := merge.NewManager()
	var pubUS, incrUS []float64
	var since int64
	err := replay(pubs, func(i int, args merge.PublishArgs) error {
		var reply merge.PublishReply
		t0 := time.Now()
		if err := mgr.Publish(args, &reply); err != nil {
			return err
		}
		d := time.Since(t0)
		if !reply.Accepted {
			return fmt.Errorf("publish %d refused by a bare manager", i)
		}
		var pr merge.PollReply
		t0 = time.Now()
		if err := mgr.Poll(merge.PollArgs{SessionID: probeSession, SinceVersion: since}, &pr); err != nil {
			return err
		}
		if !args.Delta.Full {
			pubUS, incrUS = append(pubUS, us(d)), append(incrUS, us(time.Since(t0)))
		}
		since = pr.Version
		return nil
	})
	if err != nil {
		return fmt.Errorf("merge probe: %w", err)
	}
	put(l, "merge.publish_us", median(pubUS))
	put(l, "merge.poll_incr_us", median(incrUS))
	var idleNS, fullUS, restoreUS []float64
	var treeBytes float64
	for i := 0; i < probeReps; i++ {
		var pr merge.PollReply
		t0 := time.Now()
		if err := mgr.Poll(merge.PollArgs{SessionID: probeSession, SinceVersion: since}, &pr); err != nil {
			return err
		}
		idleNS = append(idleNS, float64(time.Since(t0).Nanoseconds()))
	}
	for i := 0; i < 50; i++ {
		var pr merge.PollReply
		t0 := time.Now()
		if err := mgr.Poll(merge.PollArgs{SessionID: probeSession, Full: true}, &pr); err != nil {
			return err
		}
		fullUS = append(fullUS, us(time.Since(t0)))
		treeBytes = 0
		for _, e := range pr.Entries {
			treeBytes += float64(len(e.Frame))
			t0 := time.Now()
			if _, err := e.Restore(); err != nil {
				return err
			}
			restoreUS = append(restoreUS, us(time.Since(t0)))
		}
	}
	put(l, "merge.poll_idle_ns", median(idleNS))
	put(l, "merge.poll_full_us", median(fullUS))
	put(l, "aida.full_tree_bytes", treeBytes)
	if _, ok := l["aida.frame_restore_us"]; !ok {
		put(l, "aida.frame_restore_us", median(restoreUS))
	}

	// rmi: the same unchanged poll over a loopback connection.
	srv := rmi.NewServer(func(token, object, method string) error { return nil })
	if err := srv.Register(merge.RMIObjectName, mgr); err != nil {
		return err
	}
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	rcl, err := rmi.Dial(addr.String(), "probe")
	if err != nil {
		return err
	}
	defer rcl.Close()
	var callUS []float64
	for i := 0; i < probeReps; i++ {
		var pr merge.PollReply
		t0 := time.Now()
		if err := rcl.Call(merge.RMIObjectName+".Poll", merge.PollArgs{SessionID: probeSession, SinceVersion: since}, &pr); err != nil {
			return fmt.Errorf("rmi probe: %w", err)
		}
		callUS = append(callUS, us(time.Since(t0)))
		pr.Release()
	}
	put(l, "rmi.call_idle_us", median(callUS))

	var rr merge.ResetReply
	t0 := time.Now()
	if err := mgr.Reset(merge.ResetArgs{SessionID: probeSession}, &rr); err != nil {
		return err
	}
	put(l, "merge.reset_ms", ms(time.Since(t0)))

	// merge + WAL: the same replay with the log attached, fsync batching
	// as on the live grid.
	walPath := filepath.Join(dir, "probe.wal")
	wal, err := merge.OpenWAL(walPath, merge.WALOptions{SyncEvery: 64})
	if err != nil {
		return err
	}
	logged := merge.NewManager()
	logged.SetWAL(wal)
	walUS, err := publishInto(pubs, logged)
	cerr := wal.Close()
	if err != nil {
		return fmt.Errorf("WAL probe: %w", err)
	}
	if cerr != nil {
		return cerr
	}
	put(l, "merge.publish_wal_us", median(deltasOnly(pubs, walUS)))
	if st, err := os.Stat(walPath); err == nil {
		put(l, "merge.wal_bytes_per_publish", float64(st.Size())/float64(len(pubs)))
	}

	// shard: two managers behind a router, without and with a K=1
	// mirror chain. Wall time until every copy has applied the stream,
	// per publish — the asynchronous mirror's cost is not in the
	// caller-visible call.
	for _, replicate := range []bool{false, true} {
		router := shard.NewRouter(0)
		router.Replicate = replicate
		for _, name := range []string{"shard00", "shard01"} {
			if err := router.AddShard(name, merge.NewManager()); err != nil {
				return err
			}
		}
		var t0 time.Time
		err := replay(pubs, func(i int, args merge.PublishArgs) error {
			if i == 0 {
				t0 = time.Now()
			}
			var reply merge.PublishReply
			if err := router.Publish(args, &reply); err != nil {
				return err
			}
			if !reply.Accepted {
				return fmt.Errorf("publish %d refused", i)
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("shard probe: %w", err)
		}
		if replicate {
			for deadline := time.Now().Add(catchUp); !mirrorsCaughtUp(router); {
				if time.Now().After(deadline) {
					return fmt.Errorf("shard probe: replica chain %+v never caught up", router.ReplicaLagChain(probeSession))
				}
				time.Sleep(50 * time.Microsecond)
			}
			put(l, "shard.mirror_publish_us", us(time.Since(t0))/float64(len(pubs)))
			continue
		}
		put(l, "shard.route_publish_us", us(time.Since(t0))/float64(len(pubs)))
		to := "shard00"
		if router.Placement(probeSession) == to {
			to = "shard01"
		}
		t0 = time.Now()
		if err := router.MoveSession(probeSession, to); err != nil {
			return fmt.Errorf("handoff probe: %w", err)
		}
		put(l, "shard.handoff_ms", ms(time.Since(t0)))
	}

	// relay: one subscription sync and one downstream poll per publish.
	upstream := merge.NewManager()
	rel := relay.New("probe", upstream)
	defer rel.Close()
	if err := rel.Subscribe(probeSession); err != nil {
		return err
	}
	var syncUS, pollUS []float64
	since = 0
	err = replay(pubs, func(i int, args merge.PublishArgs) error {
		var reply merge.PublishReply
		if err := upstream.Publish(args, &reply); err != nil {
			return err
		}
		t0 := time.Now()
		if err := rel.SyncNow(probeSession); err != nil {
			return err
		}
		sync := time.Since(t0)
		var pr merge.PollReply
		t0 = time.Now()
		if err := rel.Poll(merge.PollArgs{SessionID: probeSession, SinceVersion: since}, &pr); err != nil {
			return err
		}
		if !args.Delta.Full {
			syncUS, pollUS = append(syncUS, us(sync)), append(pollUS, us(time.Since(t0)))
		}
		since = pr.Version
		return nil
	})
	if err != nil {
		return fmt.Errorf("relay probe: %w", err)
	}
	put(l, "relay.sync_us", median(syncUS))
	put(l, "relay.poll_us", median(pollUS))
	return nil
}

// mirrorsCaughtUp reports whether every hop of the probe session's
// replica chain holds the owner's version.
func mirrorsCaughtUp(r *shard.Router) bool {
	chain := r.ReplicaLagChain(probeSession)
	for _, hop := range chain {
		if hop.Stale || hop.Lag != 0 {
			return false
		}
	}
	return len(chain) > 0
}

// deltasOnly drops the samples that belong to baseline publishes.
func deltasOnly(pubs []capturedPublish, samples []float64) []float64 {
	var out []float64
	for i, s := range samples {
		if i < len(pubs) && !pubs[i].full {
			out = append(out, s)
		}
	}
	return out
}
