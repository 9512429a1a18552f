// Package codeloader is the "Managing Class Loader" of Figure 2 — the
// service that stages user analysis code from the client to the analysis
// engines (§2.4, §3.5) and lets new versions replace old ones between runs
// ("changes can be made in the analysis code and the new analysis code can
// be dynamically reloaded", §3.6).
//
// Bundles are named, versioned, and content-hashed; engines instantiate
// them either as interpreted scripts (the PNUTS path) or as registered
// native analyses (the Java-class path).
package codeloader

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"

	"github.com/ipa-grid/ipa/internal/analysis"
	"github.com/ipa-grid/ipa/internal/script"
)

// Language selects how a bundle is instantiated.
type Language string

// Supported bundle languages.
const (
	// LangScript bundles carry interpreter source (the PNUTS analogue).
	LangScript Language = "script"
	// LangNative bundles name a pre-registered Go analysis (the
	// "Java classes" path of §3.5).
	LangNative Language = "native"
)

// Bundle is one shippable unit of analysis code.
type Bundle struct {
	// Name identifies the bundle across versions.
	Name string
	// Language picks the instantiation path.
	Language Language
	// Source is interpreter source (LangScript).
	Source string
	// Analysis names a registered native analysis (LangNative).
	Analysis string
	// Decoder names the record decoder scripts see ("lc-event", "raw").
	Decoder string
	// Params are passed to the analysis at Init.
	Params map[string]string

	// Version counts uploads of this Name (assigned by the loader).
	Version int
	// Hash is the content hash (assigned by the loader).
	Hash string

	// compiled is the script's program, shared by every copy of a stored
	// bundle (assigned by the loader; never serialised).
	compiled *compiled
}

// compiled compiles one source at most once, whoever asks first.
type compiled struct {
	source string
	once   sync.Once
	prog   *script.Program
	err    error
}

// program returns the bundle's compiled script. A stored bundle compiles
// once for all its users — the upload check, every engine, every rewind;
// a bundle that never went through Loader.Store, or whose Source was
// edited since, compiles afresh.
func (b *Bundle) program() (*script.Program, error) {
	c := b.compiled
	if c == nil || c.source != b.Source {
		return script.Compile(b.Source)
	}
	c.once.Do(func() { c.prog, c.err = script.Compile(c.source) })
	return c.prog, c.err
}

// SizeBytes approximates the staged payload size — what the paper's
// "Stage Code (bytecode size: 15 kb): 7 sec" row measures.
func (b *Bundle) SizeBytes() int {
	n := len(b.Source) + len(b.Analysis) + len(b.Decoder) + len(b.Name)
	for k, v := range b.Params {
		n += len(k) + len(v)
	}
	return n
}

func (b *Bundle) contentHash() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00%s\x00%s\x00", b.Language, b.Source, b.Analysis, b.Decoder)
	keys := make([]string, 0, len(b.Params))
	for k := range b.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%s\x00", k, b.Params[k])
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// Validate checks a bundle before storage, compiling script sources so
// syntax errors surface at upload time on the client, not later on N
// worker nodes.
func (b *Bundle) Validate() error {
	if b.Name == "" {
		return fmt.Errorf("codeloader: bundle needs a name")
	}
	switch b.Language {
	case LangScript:
		if b.Source == "" {
			return fmt.Errorf("codeloader: script bundle %q has no source", b.Name)
		}
		if _, err := b.program(); err != nil {
			return fmt.Errorf("codeloader: bundle %q does not compile: %w", b.Name, err)
		}
	case LangNative:
		if b.Analysis == "" {
			return fmt.Errorf("codeloader: native bundle %q names no analysis", b.Name)
		}
	default:
		return fmt.Errorf("codeloader: unknown language %q", b.Language)
	}
	return nil
}

// Instantiate builds a fresh analysis instance from the bundle.
func (b *Bundle) Instantiate(reg *analysis.Registry) (analysis.Analysis, error) {
	switch b.Language {
	case LangScript:
		prog, err := b.program()
		if err != nil {
			return nil, err
		}
		return script.NewAnalysisFromProgram(prog, b.Decoder)
	case LangNative:
		if reg == nil {
			reg = analysis.Default
		}
		return reg.New(b.Analysis, b.Params)
	default:
		return nil, fmt.Errorf("codeloader: unknown language %q", b.Language)
	}
}

// Loader stores bundles with version history.
type Loader struct {
	mu       sync.RWMutex
	latest   map[string]*Bundle
	versions map[string]map[int]*Bundle
}

// New creates an empty loader.
func New() *Loader {
	return &Loader{latest: make(map[string]*Bundle), versions: make(map[string]map[int]*Bundle)}
}

// Store validates and saves a bundle, assigning version and hash.
// Re-uploading identical content returns the existing version unchanged.
func (l *Loader) Store(b Bundle) (*Bundle, error) {
	b.compiled = &compiled{source: b.Source}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	b.Hash = b.contentHash()
	l.mu.Lock()
	defer l.mu.Unlock()
	if prev := l.latest[b.Name]; prev != nil && prev.Hash == b.Hash {
		return prev, nil
	}
	ver := 1
	if prev := l.latest[b.Name]; prev != nil {
		ver = prev.Version + 1
	}
	b.Version = ver
	cp := b
	l.latest[b.Name] = &cp
	if l.versions[b.Name] == nil {
		l.versions[b.Name] = make(map[int]*Bundle)
	}
	l.versions[b.Name][ver] = &cp
	return &cp, nil
}

// Latest fetches the newest version of a named bundle.
func (l *Loader) Latest(name string) (*Bundle, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	b, ok := l.latest[name]
	if !ok {
		return nil, false
	}
	cp := *b
	return &cp, true
}

// Version fetches a specific version.
func (l *Loader) Version(name string, version int) (*Bundle, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	b, ok := l.versions[name][version]
	if !ok {
		return nil, false
	}
	cp := *b
	return &cp, true
}

// Names lists stored bundle names, sorted.
func (l *Loader) Names() []string {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make([]string, 0, len(l.latest))
	for n := range l.latest {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
