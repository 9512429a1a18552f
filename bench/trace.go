package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the harness made into a layer. Spans of one
// user-level operation (a session rep, a publish seq) share Trace;
// Parent is the index of the causing span, -1 for a root.
type span struct {
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Trace   int64  `json:"trace"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced pass: every method is a no-op, so workloads call it
// unconditionally.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	// values are counts and sizes noted at the same boundaries as the
	// spans (a split's imbalance, a delta's bytes), by name.
	values map[string][]float64
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), values: map[string][]float64{}} }

// reset drops everything recorded so far; measure calls it so set-up and
// warm-up spans do not mix into the timed section's.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans, t.values = nil, map[string][]float64{}
	t.mu.Unlock()
}

// note records one value under name.
func (t *tracer) note(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.values[name] = append(t.values[name], v)
	t.mu.Unlock()
}

func (t *tracer) notes(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.values[name]...)
}

// add records a finished span and returns its index (-1 when untraced).
func (t *tracer) add(name, layer string, parent int, trace int64, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, Layer: layer, Parent: parent, Trace: trace,
		StartNS: start.Sub(t.epoch).Nanoseconds(), EndNS: end.Sub(t.epoch).Nanoseconds(),
	})
	return len(t.spans) - 1
}

// open reserves a span whose end is set later by close — for a parent
// that must exist before its children are recorded.
func (t *tracer) open(name, layer string, parent int, trace int64, start time.Time) int {
	return t.add(name, layer, parent, trace, start, start)
}

func (t *tracer) close(id int, end time.Time) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].EndNS = end.Sub(t.epoch).Nanoseconds()
	t.mu.Unlock()
}

// timed runs fn, returns how long it took, and records it as a span.
func (t *tracer) timed(name, layer string, parent int, trace int64, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	end := time.Now()
	t.add(name, layer, parent, trace, start, end)
	return end.Sub(start), err
}

// durationsMS lists the durations of every span with the given name.
func (t *tracer) durationsMS(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS)/1e6)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its direct children cover (overlapping children
// are counted once).
func selfTimes(spans []span) []int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNS, s.EndNS})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.EndNS - s.StartNS
		kids := children[i]
		if len(kids) == 0 {
			continue
		}
		sort.Slice(kids, func(a, b int) bool { return kids[a][0] < kids[b][0] })
		var covered int64
		curLo, curHi := kids[0][0], kids[0][1]
		flush := func() {
			lo, hi := max(curLo, s.StartNS), min(curHi, s.EndNS)
			if hi > lo {
				covered += hi - lo
			}
		}
		for _, k := range kids[1:] {
			if k[0] <= curHi {
				curHi = max(curHi, k[1])
				continue
			}
			flush()
			curLo, curHi = k[0], k[1]
		}
		flush()
		out[i] -= covered
	}
	return out
}

// layerSelfMS sums self time per layer.
func (t *tracer) layerSelfMS() map[string]float64 {
	out := map[string]float64{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, self := range selfTimes(t.spans) {
		out[t.spans[i].Layer] += float64(self) / 1e6
	}
	return out
}

// dump writes the spans and the per-layer self-time totals as JSON.
func (t *tracer) dump(path, workload string) error {
	if t == nil {
		return nil
	}
	doc := struct {
		Workload    string             `json:"workload"`
		LayerSelfMS map[string]float64 `json:"layer_self_ms"`
		Spans       []span             `json:"spans"`
	}{Workload: workload, LayerSelfMS: t.layerSelfMS()}
	t.mu.Lock()
	doc.Spans = t.spans
	buf, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
