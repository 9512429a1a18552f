package perf

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"time"

	"github.com/ipa-grid/ipa/internal/aida"
	"github.com/ipa-grid/ipa/internal/des"
	"github.com/ipa-grid/ipa/internal/merge"
	"github.com/ipa-grid/ipa/internal/netsim"
	"github.com/ipa-grid/ipa/internal/scheduler"
)

// A1 — the dedicated timely queue (§2.3, §6). Engine-start latency on a
// fully loaded cluster, with and without a preempting interactive queue.

// QueueAblationResult reports start latencies.
type QueueAblationResult struct {
	// DedicatedMS is the engine-start latency with a preempting
	// interactive queue.
	DedicatedMS int64
	// SharedMS is the latency when engines wait in the batch queue
	// behind backlogged work (bounded by the probe timeout).
	SharedMS int64
	// SharedTimedOut reports the shared-queue probe never started.
	SharedTimedOut bool
}

// QueueAblation measures both configurations on a real scheduler whose
// batch backlog holds every slot for longer than the probe window.
func QueueAblation(nodes int, probeTimeout time.Duration) (QueueAblationResult, error) {
	var out QueueAblationResult
	run := func(preempting bool) (time.Duration, bool, error) {
		var nc []scheduler.NodeConfig
		for i := 0; i < nodes; i++ {
			nc = append(nc, scheduler.NodeConfig{Name: fmt.Sprintf("n%02d", i), Slots: 1})
		}
		cluster, err := scheduler.New(nc, []scheduler.QueueConfig{
			{Name: "interactive", Priority: 10, Preempting: preempting},
			{Name: "batch", Priority: 1, Preemptible: true},
		})
		if err != nil {
			return 0, false, err
		}
		defer cluster.Close()
		block := make(chan struct{})
		defer close(block)
		hold := func(ctx context.Context, node string) error {
			select {
			case <-block:
			case <-ctx.Done():
			}
			return nil
		}
		// Saturate the farm with long batch work (plus a backlog).
		for i := 0; i < nodes*2; i++ {
			if _, err := cluster.Submit(scheduler.Spec{Name: "batch-work", Queue: "batch", Run: hold}); err != nil {
				return 0, false, err
			}
		}
		started := make(chan struct{}, nodes) // one send per engine
		t0 := time.Now()
		for i := 0; i < nodes; i++ {
			if _, err := cluster.Submit(scheduler.Spec{Name: "ipa-engine", Queue: "interactive",
				Run: func(ctx context.Context, node string) error {
					started <- struct{}{}
					return hold(ctx, node)
				}}); err != nil {
				return 0, false, err
			}
		}
		timeout := time.After(probeTimeout)
		for i := 0; i < nodes; i++ {
			select {
			case <-started:
			case <-timeout:
				return time.Since(t0), true, nil
			}
		}
		return time.Since(t0), false, nil
	}
	ded, dTimeout, err := run(true)
	if err != nil {
		return out, err
	}
	if dTimeout {
		return out, fmt.Errorf("perf: dedicated queue timed out — preemption broken")
	}
	shared, sTimeout, err := run(false)
	if err != nil {
		return out, err
	}
	out.DedicatedMS = ded.Milliseconds()
	out.SharedMS = shared.Milliseconds()
	out.SharedTimedOut = sTimeout
	return out, nil
}

// A2 — hierarchical merging (§2.5). Root-manager load (publishes handled
// by the root) and wall time, flat vs two-level.

// MergeAblationRow is one configuration's outcome.
type MergeAblationRow struct {
	Workers       int
	Mode          string // "flat" or "tree"
	RootPublishes int64
	WallMS        int64
}

// MergeAblation publishes `rounds` full-baseline snapshots from each of
// `workers` engines, each snapshot carrying `objects` histograms, in
// both shapes.
func MergeAblation(workers, rounds, objects, groupSize int) ([]MergeAblationRow, error) {
	mkSnapshot := func(seed int) (*aida.DeltaState, error) {
		t := aida.NewTree()
		for o := 0; o < objects; o++ {
			h := aida.NewHistogram1D(fmt.Sprintf("h%d", o), "", 50, 0, 100)
			for f := 0; f < 100; f++ {
				h.Fill(float64((seed*31 + o*17 + f) % 100))
			}
			t.Put("/a", h)
		}
		return t.FullDelta()
	}
	var out []MergeAblationRow

	// Flat: every engine publishes straight to the root.
	root := merge.NewManager()
	counting := &countingPublisher{inner: root}
	start := time.Now()
	var rep merge.PublishReply
	for r := 0; r < rounds; r++ {
		for w := 0; w < workers; w++ {
			d, err := mkSnapshot(w)
			if err != nil {
				return nil, err
			}
			if err := counting.Publish(merge.PublishArgs{
				SessionID: "s", WorkerID: fmt.Sprintf("w%03d", w), Seq: int64(r + 1),
				Delta: d, EventsDone: int64(r), EventsTotal: int64(rounds),
			}, &rep); err != nil {
				return nil, err
			}
		}
	}
	var poll merge.PollReply
	if err := root.Poll(merge.PollArgs{SessionID: "s"}, &poll); err != nil {
		return nil, err
	}
	out = append(out, MergeAblationRow{Workers: workers, Mode: "flat",
		RootPublishes: counting.count, WallMS: time.Since(start).Milliseconds()})

	// Tree: groups of groupSize behind sub-mergers that batch a full
	// group round before forwarding.
	root2 := merge.NewManager()
	counting2 := &countingPublisher{inner: root2}
	groups := map[int]*merge.SubMerger{}
	start = time.Now()
	for r := 0; r < rounds; r++ {
		for w := 0; w < workers; w++ {
			gid := w / groupSize
			sm := groups[gid]
			if sm == nil {
				sm = merge.NewSubMerger(fmt.Sprintf("group-%02d", gid), "s", counting2, groupSize)
				groups[gid] = sm
			}
			d, err := mkSnapshot(w)
			if err != nil {
				return nil, err
			}
			if err := sm.Publish(merge.PublishArgs{
				SessionID: "s", WorkerID: fmt.Sprintf("w%03d", w), Seq: int64(r + 1),
				Delta: d, EventsDone: int64(r), EventsTotal: int64(rounds),
			}, &rep); err != nil {
				return nil, err
			}
		}
	}
	for _, sm := range groups {
		if err := sm.Flush(); err != nil {
			return nil, err
		}
	}
	if err := root2.Poll(merge.PollArgs{SessionID: "s"}, &poll); err != nil {
		return nil, err
	}
	out = append(out, MergeAblationRow{Workers: workers, Mode: "tree",
		RootPublishes: counting2.count, WallMS: time.Since(start).Milliseconds()})
	return out, nil
}

type countingPublisher struct {
	inner *merge.Manager
	count int64
}

func (c *countingPublisher) Publish(args merge.PublishArgs, reply *merge.PublishReply) error {
	c.count++
	return c.inner.Publish(args, reply)
}

// A3 — parallel GridFTP streams (§3.4). Transfer time of one file over a
// high-latency WAN whose per-stream throughput is window-limited.

// StreamAblationRow is one stream-count outcome.
type StreamAblationRow struct {
	Streams int
	Seconds float64
	Speedup float64
}

// StreamAblation models a 2006 transatlantic path: per-TCP-stream rate
// capped (window/RTT) well under the 10 MB/s bottleneck link.
func StreamAblation(sizeMB float64, streamCounts []int) []StreamAblationRow {
	const linkMBps = 10.0
	const perStreamMBps = 1.4 // 64 KB window / ~45 ms RTT
	var out []StreamAblationRow
	var base float64
	for _, s := range streamCounts {
		k := des.New()
		net := netsim.New(k)
		link := net.AddLink("wan", linkMBps)
		var done des.Time
		barrier := des.NewBarrier(s, func() { done = k.Now() })
		for i := 0; i < s; i++ {
			net.StartFlow(sizeMB/float64(s), []*netsim.Link{link},
				netsim.FlowOpts{RateCap: perStreamMBps, Latency: 0.2},
				func(*netsim.Flow) { barrier.Arrive() })
		}
		if err := k.Run(); err != nil {
			panic(err)
		}
		row := StreamAblationRow{Streams: s, Seconds: float64(done)}
		if base == 0 {
			base = row.Seconds
		}
		row.Speedup = base / row.Seconds
		out = append(out, row)
	}
	return out
}

// A4 — incremental result polling (§3.7). Wire bytes per poll cycle when
// only one of H histograms changed, full vs incremental.

// PollAblationResult compares polling strategies.
type PollAblationResult struct {
	Objects          int
	FullBytes        int
	IncrementalBytes int
}

// PollAblation publishes H histograms as a full baseline, then a delta
// touching one of them, and measures the gob-encoded reply sizes of a
// full poll vs an incremental poll.
func PollAblation(objects int) (PollAblationResult, error) {
	m := merge.NewManager()
	t := aida.NewTree()
	var first *aida.Histogram1D
	for o := 0; o < objects; o++ {
		h := aida.NewHistogram1D(fmt.Sprintf("h%02d", o), "", 100, 0, 100)
		for f := 0; f < 1000; f++ {
			h.Fill(float64(f % 100))
		}
		if o == 0 {
			first = h
		}
		t.Put("/a", h)
	}
	publish := func(seq int64, delta func() (*aida.DeltaState, error)) error {
		d, err := delta()
		if err != nil {
			return err
		}
		var rep merge.PublishReply
		return m.Publish(merge.PublishArgs{SessionID: "s", WorkerID: "w", Seq: seq, Delta: d}, &rep)
	}
	if err := publish(1, t.FullDelta); err != nil {
		return PollAblationResult{}, err
	}
	var firstPoll merge.PollReply
	if err := m.Poll(merge.PollArgs{SessionID: "s"}, &firstPoll); err != nil {
		return PollAblationResult{}, err
	}
	// One histogram changes.
	for f := 0; f < 7; f++ {
		first.Fill(50)
	}
	if err := publish(2, t.Delta); err != nil {
		return PollAblationResult{}, err
	}
	size := func(args merge.PollArgs) (int, error) {
		var reply merge.PollReply
		if err := m.Poll(args, &reply); err != nil {
			return 0, err
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&reply); err != nil {
			return 0, err
		}
		return buf.Len(), nil
	}
	full, err := size(merge.PollArgs{SessionID: "s", Full: true})
	if err != nil {
		return PollAblationResult{}, err
	}
	inc, err := size(merge.PollArgs{SessionID: "s", SinceVersion: firstPoll.Version})
	if err != nil {
		return PollAblationResult{}, err
	}
	return PollAblationResult{Objects: objects, FullBytes: full, IncrementalBytes: inc}, nil
}
