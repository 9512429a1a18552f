// Package engine implements the analysis engine of §2.3/§3.5–3.6:
// "processes that accept a dataset and an analysis script and analyze the
// dataset using the script to produce a result." Engines run on worker
// nodes (as scheduler jobs), read their record range of the dataset, feed
// records to the analysis code, publish intermediate AIDA snapshots to the
// manager, and obey the interactive controls of Figure 4: run, pause,
// resume, stop, rewind, step, and dynamic code reload.
package engine

import (
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
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
	// SnapshotInterval paces snapshots by time (default 25ms): a run
	// publishes after its first batch, at the first batch boundary once
	// this much time has passed since the last snapshot, when it stops
	// (finished, paused, a step done) and on error.
	SnapshotInterval time.Duration
	// Registry resolves native analyses (nil = analysis.Default).
	Registry *analysis.Registry
}

// Engine is a single-goroutine event-loop worker; all control methods are
// safe to call from any goroutine.
type Engine struct {
	cfg Config

	mu      sync.Mutex
	cond    *sync.Cond
	state   State
	stopped bool // terminal shutdown

	reader  *dataset.Reader
	closer  io.Closer   // unmaps the file
	retired []io.Closer // files SetPart or SetRange replaced; the loop unmaps them
	// The engine's records are reader's [first, first+total); the first of
	// them has the absolute index globalOffset.
	first, total, globalOffset int64
	// gen counts SetPart, SetRange and Rewind calls. A batch that began
	// under an older gen commits no progress or state, and the iterator it
	// read through is not reused.
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
	if cfg.SnapshotInterval <= 0 {
		cfg.SnapshotInterval = 25 * time.Millisecond
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

// SetPart points the engine at a whole container file, such as a part
// staged on the worker's scratch disk from a gsiftp:// replica, and maps
// it. globalOffset is the absolute index of its first record.
func (e *Engine) SetPart(path string, globalOffset int64) error {
	return e.setRecords(path, 0, -1, globalOffset)
}

// SetRange points the engine at records [from, to) of the container file
// at path, such as a file:// replica on a filesystem the worker shares:
// the engine maps the file and iterates its range in place, and a
// record's index in the file is its absolute index.
func (e *Engine) SetRange(path string, from, to int64) error {
	return e.setRecords(path, from, to, from)
}

// setRecords maps path and makes its records [from, to) (to == -1: to the
// end) the engine's, the first with the absolute index globalOffset.
func (e *Engine) setRecords(path string, from, to, globalOffset int64) error {
	r, m, err := dataset.Open(path)
	if err != nil {
		return fmt.Errorf("engine %s: opening part: %w", e.cfg.WorkerID, err)
	}
	if to == -1 {
		to = r.NumRecords()
	}
	if from < 0 || from > to || to > r.NumRecords() {
		m.Close()
		return fmt.Errorf("engine %s: range [%d,%d) of %d records", e.cfg.WorkerID, from, to, r.NumRecords())
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stopped {
		m.Close()
		return errors.New("engine: shut down")
	}
	if e.closer != nil {
		e.retired = append(e.retired, e.closer)
	}
	e.reader = r
	e.closer = m
	e.first, e.total, e.globalOffset = from, to-from, globalOffset
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
	e.lastSnap = time.Time{} // the run's first batch publishes
	e.cond.Broadcast()
	return nil
}

// Pause suspends processing after the current batch. It ends the run as a
// finished step does: the engine publishes what it has processed, then
// turns Paused.
func (e *Engine) Pause() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.state == StateRunning {
		e.stepLeft = 0
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

// Shutdown terminates the engine loop (session teardown / job cancel);
// the loop unmaps the part once its last batch is done.
func (e *Engine) Shutdown() {
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		return
	}
	e.stopped = true
	e.cond.Broadcast()
	e.mu.Unlock()
	<-e.done
}

// Serve runs the engine loop until Shutdown. It is the scheduler job
// payload; cancellation arrives as Shutdown from the job context.
func (e *Engine) Serve() {
	e.loopOnce.Do(func() {
		defer close(e.done)
		// A part truncated under its mapping faults the batch reading it,
		// which fails with ErrCorrupt instead of crashing the process.
		defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
		var cur cursor
		cur.yield = newNetYield()
		defer cur.yield.close()
		for {
			e.mu.Lock()
			for !e.stopped && e.state != StateRunning {
				e.cond.Wait()
				cur.parked = time.Now()
			}
			// Between batches no batch reads a part, so the loop unmaps
			// the ones SetPart or SetRange replaced, and the last one when
			// it exits.
			for _, c := range e.retired {
				c.Close()
				cur.it = nil
			}
			e.retired = nil
			if e.stopped {
				if e.closer != nil {
					e.closer.Close()
				}
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

// parkEvery bounds how long an engine computes without parking. The
// scheduler polls the network when a P runs out of goroutines, and
// otherwise only from sysmon every 10 ms; two engines that never park keep
// both Ps busy, so a loopback RPC to this process (a status call, a
// publish) waits behind them. runtime.Gosched does not poll the network.
const parkEvery = time.Millisecond

// park yields to the network if parkEvery has passed since it last did.
func (c *cursor) park() {
	if time.Since(c.parked) >= parkEvery {
		c.yield.yield()
		c.parked = time.Now()
	}
}

// netYield parks a goroutine until the scheduler has polled the network.
// It writes a byte to a pipe whose reader waits in the network poller:
// the P, out of goroutines, polls, finds the byte and every other
// goroutine whose I/O is ready, and the reader wakes the writer. A timer
// sleep polls too, but an idle P then waits in epoll for up to 1 ms (its
// timeout has millisecond resolution): two native engines side by side
// lost ≈12 % of their throughput to it on a 2-vCPU host.
type netYield struct {
	w    *os.File
	b    [1]byte
	ack  chan struct{}
	done chan struct{} // closed when the reader has exited
}

// newNetYield starts the pipe's reader; it returns nil, and yield then
// sleeps, if no pipe can be had.
func newNetYield() *netYield {
	r, w, err := os.Pipe()
	if err != nil {
		return nil
	}
	y := &netYield{w: w, ack: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(y.done)
		defer r.Close()
		var b [1]byte
		for {
			if _, err := r.Read(b[:]); err != nil {
				return
			}
			y.ack <- struct{}{}
		}
	}()
	return y
}

func (y *netYield) yield() {
	if y == nil {
		time.Sleep(time.Microsecond)
		return
	}
	if _, err := y.w.Write(y.b[:]); err == nil {
		<-y.ack
	}
	// Goroutines the poll made ready run before this one resumes.
	runtime.Gosched()
}

// close stops the reader and waits for it.
func (y *netYield) close() {
	if y != nil {
		y.w.Close()
		<-y.done
	}
}

// cursor is the Serve goroutine's read position: one block iterator,
// reused batch after batch while no SetPart, SetRange or Rewind
// intervened and it stands at nextRec.
type cursor struct {
	it     *dataset.Iterator
	gen    uint64    // Engine.gen when it was opened
	parked time.Time // when the loop last parked
	yield  *netYield
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
	// The batch reads reader's records from at, up to the range's end.
	at, end := e.first+from, e.first+e.total
	index := e.globalOffset + from
	e.mu.Unlock()

	processed, procErr := cur.process(reader, gen, anal, ctx, index, at, end, n)

	e.mu.Lock()
	if e.gen != gen {
		// A SetPart, SetRange or Rewind during the batch owns the state now.
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

// process feeds reader's records [from, from+n) of the part gen to anal,
// the first of them with the absolute index index, and returns how many
// it processed. The iterator it reads through stops at record end, the
// end of the engine's range. A fault reading the part's mapping ends it
// with ErrCorrupt.
func (c *cursor) process(reader *dataset.Reader, gen uint64, anal analysis.Analysis, ctx *analysis.Context,
	index, from, end, n int64) (processed int64, err error) {
	defer dataset.CatchFault(&err)
	if n > 0 && (c.it == nil || c.gen != gen || c.it.Index() != from) {
		c.it, c.gen = nil, gen
		if c.it, err = reader.Iter(from, end); err != nil {
			return 0, err
		}
	}
	for processed < n {
		rec, err := c.it.Next()
		if err != nil {
			return processed, err
		}
		ctx.EventIndex = index + processed
		if err := anal.Process(rec, ctx); err != nil {
			return processed, fmt.Errorf("record %d: %w", ctx.EventIndex, err)
		}
		processed++
		// The clock is read every 8 records: often enough for records
		// of a millisecond, rarely enough for a native analysis.
		if processed%8 == 0 {
			c.park()
		}
	}
	return processed, nil
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
