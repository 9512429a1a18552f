// Package analysis defines the contract between analysis engines and user
// analysis code.
//
// In the paper, "analysis code will be written by the physicists, which
// should take the records of the dataset as input and run the analysis"
// (§2.4). An Analysis receives raw dataset records one at a time and fills
// AIDA objects; the engine drives the lifecycle and can re-instantiate the
// analysis on rewind or hot code reload. Implementations come from two
// places, mirroring the paper's "Java classes and PNUTS scripts" (§3.5):
// native Go analyses registered in the Registry (the "Java class" analogue)
// and interpreted scripts adapted by the script engine package.
package analysis

import (
	"fmt"
	"sort"
	"sync"

	"github.com/ipa-grid/ipa/internal/aida"
)

// Context carries per-run state into analysis callbacks.
type Context struct {
	// Tree is where the analysis books and fills its result objects.
	Tree *aida.Tree
	// Params are free-form key=value arguments from the client.
	Params map[string]string
	// EventIndex is the absolute index of the record being processed
	// within the full dataset (not the staged part).
	EventIndex int64
	// WorkerID identifies the engine running the analysis (diagnostics).
	WorkerID string
}

// Param returns a parameter value or a default.
func (c *Context) Param(key, def string) string {
	if v, ok := c.Params[key]; ok {
		return v
	}
	return def
}

// Analysis processes dataset records and produces AIDA objects.
type Analysis interface {
	// Init is called once before the first record (and again after a
	// rewind); it should (re)book histograms.
	Init(ctx *Context) error
	// Process is called for every record. The record is valid only for
	// the duration of the call: engines hand out slices of a reusable
	// read block, so an analysis that keeps bytes past its return copies
	// them (decoding into its own structures counts as a copy).
	Process(record []byte, ctx *Context) error
	// End is called after the last record of the staged part.
	End(ctx *Context) error
}

// Factory builds a fresh Analysis instance from client parameters.
type Factory func(params map[string]string) (Analysis, error)

// Registry maps analysis names to factories — the equivalent of the
// engine's class path of pre-installed Java analyses.
type Registry struct {
	mu        sync.RWMutex
	factories map[string]Factory
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{factories: make(map[string]Factory)} }

// Register adds a named factory; re-registering a name panics (two analyses
// with one name is a wiring bug, not a runtime condition).
func (r *Registry) Register(name string, f Factory) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.factories[name]; dup {
		panic(fmt.Sprintf("analysis: duplicate registration of %q", name))
	}
	r.factories[name] = f
}

// New instantiates a registered analysis.
func (r *Registry) New(name string, params map[string]string) (Analysis, error) {
	r.mu.RLock()
	f, ok := r.factories[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("analysis: unknown analysis %q (have %v)", name, r.Names())
	}
	return f(params)
}

// Names lists registered analyses, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.factories))
	for n := range r.factories {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Default is the process-wide registry used by engines unless overridden.
var Default = NewRegistry()

// Register adds a factory to the default registry.
func Register(name string, f Factory) { Default.Register(name, f) }

// Func adapts three closures into an Analysis (handy in tests).
type Func struct {
	InitFn    func(*Context) error
	ProcessFn func([]byte, *Context) error
	EndFn     func(*Context) error
}

// Init implements Analysis.
func (f *Func) Init(ctx *Context) error {
	if f.InitFn == nil {
		return nil
	}
	return f.InitFn(ctx)
}

// Process implements Analysis.
func (f *Func) Process(rec []byte, ctx *Context) error {
	if f.ProcessFn == nil {
		return nil
	}
	return f.ProcessFn(rec, ctx)
}

// End implements Analysis.
func (f *Func) End(ctx *Context) error {
	if f.EndFn == nil {
		return nil
	}
	return f.EndFn(ctx)
}
