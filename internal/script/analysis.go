package script

import (
	"bytes"
	"fmt"
	"sync"

	"github.com/ipa-grid/ipa/internal/analysis"
)

// RecordDecoder converts a raw dataset record into a script value, so
// scripts see structured events rather than bytes. Decoders are registered
// by data-format packages ("the analysis engines ... dynamically pickup new
// data format readers", §2.3). rec is valid only during the call (see
// analysis.Analysis.Process), so the returned value must not alias it.
type RecordDecoder func(rec []byte) (Value, error)

// Refiller is a decoded record that can take another record in place, as
// Analysis refills the one value a borrowing process function reads every
// record through (see the package comment). Like a RecordDecoder's
// result, the value must not alias rec; a record Refill rejects leaves it
// as it was.
type Refiller interface {
	Refill(rec []byte) error
}

var (
	decoderMu sync.RWMutex
	decoders  = map[string]RecordDecoder{
		// raw passes the record through as a string.
		"raw": func(rec []byte) (Value, error) { return string(rec), nil },
	}
)

// RegisterDecoder installs a named record decoder. Duplicate names panic.
func RegisterDecoder(name string, d RecordDecoder) {
	decoderMu.Lock()
	defer decoderMu.Unlock()
	if _, dup := decoders[name]; dup {
		panic(fmt.Sprintf("script: duplicate decoder %q", name))
	}
	decoders[name] = d
}

// LookupDecoder returns a registered decoder.
func LookupDecoder(name string) (RecordDecoder, bool) {
	decoderMu.RLock()
	defer decoderMu.RUnlock()
	d, ok := decoders[name]
	return d, ok
}

// DecoderNames lists registered decoders (for error messages and the CLI).
func DecoderNames() []string {
	decoderMu.RLock()
	defer decoderMu.RUnlock()
	out := make([]string, 0, len(decoders))
	for n := range decoders {
		out = append(out, n)
	}
	return out
}

var (
	globalsMu    sync.RWMutex
	extraGlobals = map[string]Value{}
)

// RegisterGlobal installs a value into every analysis interpreter's global
// scope — how data-format packages contribute helper functions (e.g. the
// native pairMass of the LC event binding). Duplicate names panic.
func RegisterGlobal(name string, v Value) {
	globalsMu.Lock()
	defer globalsMu.Unlock()
	if _, dup := extraGlobals[name]; dup {
		panic(fmt.Sprintf("script: duplicate global %q", name))
	}
	extraGlobals[name] = v
}

func installExtraGlobals(in *Interp) {
	globalsMu.RLock()
	defer globalsMu.RUnlock()
	for name, v := range extraGlobals {
		in.Define(name, v)
	}
}

// perEventFuel is added before each Process call so long datasets never
// starve, while a single pathological event still halts quickly.
const perEventFuel = 2_000_000

// Analysis adapts a compiled script to the analysis.Analysis interface.
// The script defines up to three global functions:
//
//	function init()        { ... }   // optional: book histograms
//	function process(ev)   { ... }   // required: per record
//	function end()         { ... }   // optional: finalize
//
// Top-level code runs once per Init (i.e. again after rewind/reload),
// which is where most scripts book their histograms.
type Analysis struct {
	prog    *Program
	decoder RecordDecoder
	interp  *Interp
	output  bytes.Buffer
	// process is the global cell the script binds process to.
	process *global
	arg     [1]Value // process's argument, without a slice per call
	// checked is set once the first record decided on borrowing. If it
	// did, every record is refilled into view for borrower, the closure
	// that was process then, while process still is.
	checked  bool
	borrower *Closure
	view     Refiller
}

// NewAnalysis compiles source and binds the named record decoder.
func NewAnalysis(source, decoderName string) (*Analysis, error) {
	prog, err := Compile(source)
	if err != nil {
		return nil, err
	}
	return NewAnalysisFromProgram(prog, decoderName)
}

// NewAnalysisFromProgram binds the named record decoder to an already
// compiled program. Programs are immutable, so any number of analyses, on
// any goroutines, may share one.
func NewAnalysisFromProgram(prog *Program, decoderName string) (*Analysis, error) {
	if decoderName == "" {
		decoderName = "raw"
	}
	dec, ok := LookupDecoder(decoderName)
	if !ok {
		return nil, fmt.Errorf("script: unknown record decoder %q (have %v)", decoderName, DecoderNames())
	}
	return &Analysis{prog: prog, decoder: dec}, nil
}

// Output returns what the script printed since Init or the last
// TakeOutput.
func (a *Analysis) Output() string { return a.output.String() }

// TakeOutput returns what Output would and forgets it, so an engine that
// relays the text with every snapshot sends each line once.
func (a *Analysis) TakeOutput() string {
	s := a.output.String()
	a.output.Reset()
	return s
}

// Init implements analysis.Analysis: it builds a fresh interpreter (so a
// rewind truly restarts the analysis), binds host objects, executes the
// top level, and calls init() if defined.
func (a *Analysis) Init(ctx *analysis.Context) error {
	a.output.Reset()
	a.checked, a.borrower, a.view = false, nil, nil
	a.interp = New(Options{Output: &a.output, Fuel: perEventFuel})
	a.process = a.interp.cell("process")
	bindHost(a.interp, ctx)
	if err := a.interp.Run(a.prog); err != nil {
		return fmt.Errorf("script top-level: %w", err)
	}
	if a.interp.Has("init") {
		if _, err := a.interp.Call("init"); err != nil {
			return fmt.Errorf("script init(): %w", err)
		}
	}
	if !a.interp.Has("process") {
		return fmt.Errorf("script: no process(event) function defined")
	}
	return nil
}

// bindHost defines what every analysis script finds in its global scope
// beyond the builtins: registered globals, tree, params and workerid.
func bindHost(in *Interp, ctx *analysis.Context) {
	installExtraGlobals(in)
	in.Define("tree", &TreeObject{Tree: ctx.Tree})
	params := NewMap()
	for k, v := range ctx.Params {
		params.Items[k] = v
	}
	in.Define("params", params)
	in.Define("workerid", ctx.WorkerID)
}

// Process implements analysis.Analysis.
func (a *Analysis) Process(rec []byte, ctx *analysis.Context) error {
	fn, _ := a.process.v.r.(*Closure)
	ev, err := a.event(rec, fn)
	if err != nil {
		return fmt.Errorf("script: decoding record %d: %w", ctx.EventIndex, err)
	}
	// Top the fuel back up to the per-event budget.
	if rem := a.interp.RemainingFuel(); rem < perEventFuel {
		a.interp.AddFuel(perEventFuel - rem)
	}
	if fn != nil {
		a.arg[0] = ev
		_, err = a.interp.CallValue(fn, a.arg[:])
	} else {
		_, err = a.interp.Call("process", ev)
	}
	if err != nil {
		return fmt.Errorf("script process() at record %d: %w", ctx.EventIndex, err)
	}
	return nil
}

// event decodes rec for the process function fn. A function that cannot
// keep what it is given (funcProto.borrows) borrows the first record's
// value, if it can be refilled, and reads every later record through it —
// unless one of its for-each variables names a bound global, which a
// store would write. Globals are bound only by top-level code and the
// host, both done before the first record.
func (a *Analysis) event(rec []byte, fn *Closure) (Value, error) {
	if a.view != nil && fn == a.borrower {
		return a.view, a.view.Refill(rec)
	}
	ev, err := a.decoder(rec)
	if err != nil || a.checked {
		return ev, err
	}
	a.checked = true
	view, ok := ev.(Refiller)
	if !ok || fn == nil || !fn.fn.borrows {
		return ev, nil
	}
	for _, name := range fn.fn.borrowed {
		if _, bound := a.interp.Lookup(name); bound {
			return ev, nil
		}
	}
	a.borrower, a.view = fn, view
	return ev, nil
}

// End implements analysis.Analysis.
func (a *Analysis) End(ctx *analysis.Context) error {
	if a.interp.Has("end") {
		if _, err := a.interp.Call("end"); err != nil {
			return fmt.Errorf("script end(): %w", err)
		}
	}
	return nil
}

var _ analysis.Analysis = (*Analysis)(nil)
