// Package engine implements the analysis engine of §2.3/§3.5–3.6:
// "processes that accept a dataset and an analysis script and analyze the
// dataset using the script to produce a result." Engines run on worker
// nodes (as scheduler jobs), read their staged dataset part, feed records to
// the analysis code, publish intermediate AIDA snapshots to the manager,
// and obey the interactive controls of Figure 4: run, pause, resume, stop,
// rewind, step, and dynamic code reload.
package engine

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"github.com/ipa-grid/ipa/internal/aida"
	"github.com/ipa-grid/ipa/internal/analysis"
	"github.com/ipa-grid/ipa/internal/codeloader"
	"github.com/ipa-grid/ipa/internal/dataset"
	"github.com/ipa-grid/ipa/internal/merge"
)

// State is the engine's lifecycle position.
type State string

// Engine states.
const (
	StateIdle     State = "Idle"  // no dataset or no code yet
	StateReady    State = "Ready" // staged + loaded, not running
	StateRunning  State = "Running"
	StatePaused   State = "Paused"
	StateFinished State = "Finished" // processed the whole part
	StateError    State = "Error"
)

// Config wires one engine.
type Config struct {
	SessionID string
	WorkerID  string
	// Publisher receives snapshots: the AIDA manager or a shard router
	// fronting several manager shards. Any merge.Publisher works,
	// including a SubMerger, since the uplink protocol is the same.
	Publisher merge.Publisher
	// SnapshotEvery publishes after this many events (default 500).
	SnapshotEvery int
	// SnapshotInterval also publishes when this much time passed since
	// the last snapshot (default 1s) — the paper's sub-minute feedback.
	SnapshotInterval time.Duration
	// Registry resolves native analyses (nil = analysis.Default).
	Registry *analysis.Registry
	// GlobalOffset is the absolute index of the part's first record.
	GlobalOffset int64
}

// Engine is a single-goroutine event-loop worker; all control methods are
// safe to call from any goroutine.
type Engine struct {
	cfg Config

	mu      sync.Mutex
	cond    *sync.Cond
	state   State
	stopped bool // terminal shutdown

	partPath string
	reader   *dataset.Reader
	closer   io.Closer
	total    int64
	// gen counts SetPart and Rewind calls. A batch that began under an
	// older gen commits no progress or state, and the iterator it read
	// through is not reused.
	gen uint64

	bundle        *codeloader.Bundle
	pendingBundle *codeloader.Bundle // swapped in at next rewind/run

	tree     *aida.Tree
	anal     analysis.Analysis
	ctx      *analysis.Context
	nextRec  int64
	stepLeft int64 // records remaining in a Step command (-1 = unlimited)
	lastErr  error
	lastSnap time.Time
	events   int64 // processed since init
	// unsentLog is analysis output no publish has delivered yet.
	unsentLog string

	// transport owns the snapshot uplink protocol: generation stamps,
	// re-baselining after failures, and adaptive per-frame compression.
	transport *merge.Transport

	loopOnce sync.Once
	done     chan struct{}
}

// New creates an engine; call Serve (usually from its scheduler job) to
// start its loop.
func New(cfg Config) *Engine {
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = 500
	}
	if cfg.SnapshotInterval <= 0 {
		cfg.SnapshotInterval = time.Second
	}
	e := &Engine{cfg: cfg, state: StateIdle, done: make(chan struct{})}
	e.cond = sync.NewCond(&e.mu)
	if cfg.Publisher != nil {
		e.transport = merge.NewTransport(cfg.SessionID, cfg.WorkerID, cfg.Publisher)
	}
	return e
}

// State returns the current state and last error.
func (e *Engine) State() (State, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.state, e.lastErr
}

// Progress reports processed and total record counts.
func (e *Engine) Progress() (done, total int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.events, e.total
}

// Rebaselines reports how many snapshot publishes after the first were
// forced to carry a full baseline (upstream NeedFull or a transport
// failure). A shard handoff that races a publish shows up here as a
// re-baseline or two (one per refused send while the session was
// sealed); a steadily climbing count means the uplink is flapping.
func (e *Engine) Rebaselines() int64 {
	if e.transport == nil {
		return 0
	}
	return e.transport.Rebaselines()
}

// SetPart points the engine at its staged dataset part (a container file
// on the worker's scratch disk).
func (e *Engine) SetPart(path string, globalOffset int64) error {
	r, f, err := dataset.Open(path)
	if err != nil {
		return fmt.Errorf("engine %s: opening part: %w", e.cfg.WorkerID, err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closer != nil {
		e.closer.Close()
	}
	e.partPath = path
	e.reader = r
	e.closer = f
	e.total = r.NumRecords()
	e.cfg.GlobalOffset = globalOffset
	e.gen++
	e.nextRec = 0
	e.events = 0
	if e.bundle != nil {
		e.state = StateReady
	}
	e.cond.Broadcast()
	return nil
}

// LoadCode installs an analysis bundle. While running, the new code takes
// effect at the next rewind (the paper reloads between iterations); when
// idle/ready it replaces immediately.
func (e *Engine) LoadCode(b *codeloader.Bundle) error {
	if b == nil {
		return errors.New("engine: nil bundle")
	}
	// Validate instantiation eagerly so upload errors surface now.
	if _, err := b.Instantiate(e.cfg.Registry); err != nil {
		return fmt.Errorf("engine %s: bundle %s v%d: %w", e.cfg.WorkerID, b.Name, b.Version, err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	switch e.state {
	case StateRunning, StatePaused:
		e.pendingBundle = b
	default:
		e.bundle = b
		e.anal = nil // force re-init
		if e.reader != nil {
			e.state = StateReady
		}
	}
	e.cond.Broadcast()
	return nil
}

// Run starts (or resumes) processing the whole remaining part.
func (e *Engine) Run() error { return e.start(-1) }

// Step processes at most n records then pauses.
func (e *Engine) Step(n int64) error {
	if n <= 0 {
		return fmt.Errorf("engine: step of %d records", n)
	}
	return e.start(n)
}

func (e *Engine) start(limit int64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stopped {
		return errors.New("engine: shut down")
	}
	switch e.state {
	case StateIdle:
		return errors.New("engine: no dataset part or code loaded")
	case StateError:
		return fmt.Errorf("engine: in error state: %v", e.lastErr)
	case StateRunning:
		e.stepLeft = limit
		return nil
	case StateFinished:
		return errors.New("engine: part finished; rewind to run again")
	}
	e.stepLeft = limit
	e.state = StateRunning
	e.cond.Broadcast()
	return nil
}

// Pause suspends processing after the current record.
func (e *Engine) Pause() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.state == StateRunning {
		e.state = StatePaused
		e.cond.Broadcast()
	}
	return nil
}

// Stop halts the run and rewinds to the beginning (the next Run starts
// over with fresh histograms).
func (e *Engine) Stop() error { return e.Rewind() }

// Rewind resets to record zero with fresh histograms and (if staged) the
// newest code bundle — "rewind to start the analysis from the beginning"
// (§3.6).
func (e *Engine) Rewind() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stopped {
		return errors.New("engine: shut down")
	}
	if e.pendingBundle != nil {
		e.bundle = e.pendingBundle
		e.pendingBundle = nil
	}
	e.gen++
	e.nextRec = 0
	e.events = 0
	e.anal = nil
	e.unsentLog = ""
	e.lastErr = nil
	if e.reader != nil && e.bundle != nil {
		e.state = StateReady
	} else {
		e.state = StateIdle
	}
	e.cond.Broadcast()
	return nil
}

// Shutdown terminates the engine loop (session teardown / job cancel).
func (e *Engine) Shutdown() {
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		return
	}
	e.stopped = true
	if e.closer != nil {
		e.closer.Close()
		e.closer = nil
	}
	e.cond.Broadcast()
	e.mu.Unlock()
	<-e.done
}

// Serve runs the engine loop until Shutdown. It is the scheduler job
// payload; cancellation arrives as Shutdown from the job context.
func (e *Engine) Serve() {
	e.loopOnce.Do(func() {
		defer close(e.done)
		var cur cursor
		for {
			e.mu.Lock()
			for !e.stopped && e.state != StateRunning {
				e.cond.Wait()
			}
			if e.stopped {
				e.mu.Unlock()
				return
			}
			// Running: initialize if needed, then process one batch.
			if err := e.ensureInitLocked(); err != nil {
				e.failLocked(err)
				e.mu.Unlock()
				continue
			}
			e.mu.Unlock()
			e.processBatch(&cur)
		}
	})
}

// cursor is the Serve goroutine's read position: one block iterator,
// reused batch after batch while no SetPart or Rewind intervened and it
// stands at nextRec.
type cursor struct {
	it  *dataset.Iterator
	gen uint64 // Engine.gen when it was opened
}

// failLocked records an error and parks the engine. Caller holds mu.
func (e *Engine) failLocked(err error) {
	e.lastErr = err
	e.state = StateError
	e.cond.Broadcast()
}

// ensureInitLocked builds the analysis instance and tree. Caller holds mu.
func (e *Engine) ensureInitLocked() error {
	if e.anal != nil {
		return nil
	}
	if e.bundle == nil || e.reader == nil {
		return errors.New("engine: not staged")
	}
	a, err := e.bundle.Instantiate(e.cfg.Registry)
	if err != nil {
		return err
	}
	e.tree = aida.NewTree()
	e.ctx = &analysis.Context{
		Tree:     e.tree,
		Params:   e.bundle.Params,
		WorkerID: e.cfg.WorkerID,
	}
	if err := a.Init(e.ctx); err != nil {
		return fmt.Errorf("engine: analysis init: %w", err)
	}
	e.anal = a
	return nil
}

// batchSize bounds how many records are processed per lock cycle so
// controls stay responsive ("timescales of less than a minute" — we aim
// far lower).
const batchSize = 64

func (e *Engine) processBatch(cur *cursor) {
	e.mu.Lock()
	if e.state != StateRunning || e.reader == nil {
		e.mu.Unlock()
		return
	}
	from := e.nextRec
	n := min(batchSize, e.total-from)
	if e.stepLeft >= 0 {
		n = min(n, e.stepLeft)
	}
	gen := e.gen
	reader := e.reader
	anal := e.anal
	ctx := e.ctx
	offset := e.cfg.GlobalOffset
	e.mu.Unlock()

	var processed int64
	var procErr error
	if n > 0 && (cur.it == nil || cur.gen != gen || cur.it.Index() != from) {
		cur.it, procErr = reader.Iter(from, -1)
		cur.gen = gen
	}
	for procErr == nil && processed < n {
		rec, err := cur.it.Next()
		if err != nil {
			procErr = err
			break
		}
		ctx.EventIndex = offset + from + processed
		if err := anal.Process(rec, ctx); err != nil {
			procErr = fmt.Errorf("record %d: %w", ctx.EventIndex, err)
			break
		}
		processed++
	}

	e.mu.Lock()
	if e.gen != gen {
		// A SetPart or Rewind during the batch owns the state now.
		e.mu.Unlock()
		return
	}
	e.nextRec = from + processed
	e.events += processed
	if e.stepLeft > 0 {
		e.stepLeft -= processed
	}
	finished := e.nextRec >= e.total
	stepDone := e.stepLeft == 0
	next, nextErr := e.state, error(nil)
	switch {
	case procErr != nil:
		next, nextErr = StateError, procErr
	case finished:
		if err := anal.End(ctx); err != nil {
			next, nextErr = StateError, err
		} else {
			next = StateFinished
		}
	case stepDone:
		next = StatePaused
	}
	needSnap := finished || stepDone || procErr != nil ||
		e.events%int64(e.cfg.SnapshotEvery) < processed ||
		time.Since(e.lastSnap) >= e.cfg.SnapshotInterval
	e.mu.Unlock()

	if needSnap {
		e.publish(procErr)
	}
	if procErr == nil && !finished && !stepDone {
		return
	}
	// The transition follows the publish: whoever sees Finished, Paused or
	// Error finds the run's last snapshot — or the failure to send it —
	// already in place. A rewind during that publish keeps its own state.
	e.mu.Lock()
	if e.gen == gen {
		if nextErr != nil {
			e.lastErr = nextErr
		}
		e.state = next
		// Wake WaitState callers; without this every wait burns its full
		// timeout even though the state already changed.
		e.cond.Broadcast()
	}
	e.mu.Unlock()
}

// publish sends the current tree snapshot through the transport — a
// delta of what changed since the last snapshot, or a full baseline on
// first publish, after rewind, and when the manager asks. Failures
// (snapshot construction or the upstream call) surface through lastErr
// so State() reports them; the transport re-baselines after a failed
// send, because the delta's dirty bits are already consumed.
func (e *Engine) publish(procErr error) {
	e.mu.Lock()
	if e.tree == nil || e.transport == nil {
		e.mu.Unlock()
		return
	}
	// Each snapshot carries what was printed since the last one that got
	// through, so the client sees every line once.
	if sa, ok := e.anal.(interface{ TakeOutput() string }); ok {
		e.unsentLog = capLog(e.unsentLog + sa.TakeOutput())
	}
	var logs []string
	if out := strings.TrimSpace(e.unsentLog); out != "" {
		logs = append(logs, out)
	}
	if procErr != nil {
		logs = append(logs, fmt.Sprintf("[%s] ERROR: %v", e.cfg.WorkerID, procErr))
	}
	log := strings.Join(logs, "\n")
	tr := e.transport
	e.lastSnap = time.Now()
	e.mu.Unlock()

	_, err := tr.Send(func(full bool) (merge.Snapshot, error) {
		e.mu.Lock()
		defer e.mu.Unlock()
		if e.tree == nil {
			return merge.Snapshot{}, fmt.Errorf("engine: tree gone before snapshot")
		}
		snap := merge.Snapshot{Done: e.events, Total: e.total, Log: log}
		var d *aida.DeltaState
		var err error
		if full {
			d, err = e.tree.FullDelta()
		} else {
			d, err = e.tree.Delta()
		}
		if err != nil {
			return merge.Snapshot{}, err
		}
		snap.Delta = d
		return snap, nil
	})
	e.mu.Lock()
	defer e.mu.Unlock()
	if err != nil {
		if e.lastErr == nil {
			e.lastErr = fmt.Errorf("engine: snapshot: %w", err)
		}
		return
	}
	// Only this goroutine appends to unsentLog, so all of it went out.
	e.unsentLog = ""
}

// maxSnapshotLog bounds the analysis output one snapshot carries.
const maxSnapshotLog = 64 << 10

const truncatedMark = "…[truncated]\n"

// capLog keeps the newest maxSnapshotLog bytes of s, on a line boundary
// where there is one, behind a single truncation mark.
func capLog(s string) string {
	if len(s) <= maxSnapshotLog {
		return s
	}
	s = strings.TrimPrefix(s, truncatedMark)
	s = s[len(s)-(maxSnapshotLog-len(truncatedMark)):]
	if i := strings.IndexByte(s, '\n'); i >= 0 && i+1 < len(s) {
		s = s[i+1:]
	}
	for len(s) > 0 && !utf8.RuneStart(s[0]) {
		s = s[1:]
	}
	return truncatedMark + s
}

// WaitState blocks until the engine reaches one of the given states or
// the timeout passes, returning the state it saw last.
func (e *Engine) WaitState(timeout time.Duration, states ...State) (State, error) {
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		e.mu.Lock()
		e.cond.Broadcast()
		e.mu.Unlock()
	})
	defer timer.Stop()
	e.mu.Lock()
	defer e.mu.Unlock()
	for {
		for _, s := range states {
			if e.state == s {
				return e.state, nil
			}
		}
		if e.stopped {
			return e.state, errors.New("engine: shut down")
		}
		if !time.Now().Before(deadline) {
			return e.state, fmt.Errorf("engine: still %s after %v", e.state, timeout)
		}
		e.cond.Wait()
	}
}
