package aida

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sync"
)

// This file defines the exported "state" representation of every AIDA
// object and its wire encoding. States have only exported fields and
// convert cleanly to and from the XML interchange format.
//
// On the RMI snapshot path (engines → AIDA manager → polling clients)
// states are NOT encoded by gob's reflection walk: ObjectState, TreeState
// and DeltaState implement GobEncoder/GobDecoder backed by a compact
// hand-rolled binary codec (below), so a snapshot crosses the wire
// as one length-prefixed binary blob in the same little-endian style as
// events.Marshal. That removes per-field reflection and type metadata and
// cuts both bytes and allocations on the hot publish/poll cycle.

// KV is one annotation entry.
type KV struct{ Key, Value string }

func annState(a *Annotation) []KV {
	out := make([]KV, 0, a.Len())
	for _, k := range a.Keys() {
		out = append(out, KV{k, a.Get(k)})
	}
	return out
}

func annFromState(kvs []KV) *Annotation {
	a := NewAnnotation()
	for _, kv := range kvs {
		a.Set(kv.Key, kv.Value)
	}
	return a
}

// BinState mirrors binStat with exported fields.
type BinState struct {
	Entries int64
	SumW    float64
	SumW2   float64
	SumWX   float64
}

// H1DState is the serializable form of Histogram1D.
type H1DState struct {
	Name                string
	Ann                 []KV
	Bins                int
	Lo, Hi              float64
	Data                []BinState // underflow, in-range…, overflow
	SumW, SumWX, SumWX2 float64
}

// State extracts the histogram's serializable state.
func (h *Histogram1D) State() *H1DState {
	s := &H1DState{
		Name: h.name, Ann: annState(h.ann),
		Bins: h.axis.nBins, Lo: h.axis.lo, Hi: h.axis.hi,
		Data: make([]BinState, len(h.bins)),
		SumW: h.sumW, SumWX: h.sumWX, SumWX2: h.sumWX2,
	}
	for i, b := range h.bins {
		s.Data[i] = BinState{b.entries, b.sumW, b.sumW2, b.sumWX}
	}
	return s
}

// Restore rebuilds a histogram from state.
func (s *H1DState) Restore() (*Histogram1D, error) {
	if s.Bins <= 0 || len(s.Data) != s.Bins+2 {
		return nil, fmt.Errorf("aida: bad H1D state for %q: %d bins, %d data", s.Name, s.Bins, len(s.Data))
	}
	h := NewHistogram1D(s.Name, "", s.Bins, s.Lo, s.Hi)
	h.ann = annFromState(s.Ann)
	for i, b := range s.Data {
		h.bins[i] = binStat{b.Entries, b.SumW, b.SumW2, b.SumWX}
	}
	h.sumW, h.sumWX, h.sumWX2 = s.SumW, s.SumWX, s.SumWX2
	return h, nil
}

// Bin2State mirrors binStat2 with exported fields.
type Bin2State struct {
	Entries      int64
	SumW         float64
	SumW2        float64
	SumWX, SumWY float64
}

// H2DState is the serializable form of Histogram2D.
type H2DState struct {
	Name     string
	Ann      []KV
	NX       int
	XLo, XHi float64
	NY       int
	YLo, YHi float64
	Cells    []Bin2State
	SumW     float64
	SumWX    float64
	SumWY    float64
	SumWX2   float64
	SumWY2   float64
}

// State extracts the histogram's serializable state.
func (h *Histogram2D) State() *H2DState {
	s := &H2DState{
		Name: h.name, Ann: annState(h.ann),
		NX: h.xAxis.nBins, XLo: h.xAxis.lo, XHi: h.xAxis.hi,
		NY: h.yAxis.nBins, YLo: h.yAxis.lo, YHi: h.yAxis.hi,
		Cells: make([]Bin2State, len(h.cells)),
		SumW:  h.sumW, SumWX: h.sumWX, SumWY: h.sumWY, SumWX2: h.sumWX2, SumWY2: h.sumWY2,
	}
	for i, c := range h.cells {
		s.Cells[i] = Bin2State{c.entries, c.sumW, c.sumW2, c.sumWX, c.sumWY}
	}
	return s
}

// Restore rebuilds a 2D histogram from state.
func (s *H2DState) Restore() (*Histogram2D, error) {
	if s.NX <= 0 || s.NY <= 0 || len(s.Cells) != (s.NX+2)*(s.NY+2) {
		return nil, fmt.Errorf("aida: bad H2D state for %q", s.Name)
	}
	h := NewHistogram2D(s.Name, "", s.NX, s.XLo, s.XHi, s.NY, s.YLo, s.YHi)
	h.ann = annFromState(s.Ann)
	for i, c := range s.Cells {
		h.cells[i] = binStat2{c.Entries, c.SumW, c.SumW2, c.SumWX, c.SumWY}
	}
	h.sumW, h.sumWX, h.sumWY, h.sumWX2, h.sumWY2 = s.SumW, s.SumWX, s.SumWY, s.SumWX2, s.SumWY2
	return h, nil
}

// ProfBinState mirrors profBin with exported fields.
type ProfBinState struct {
	Entries int64
	SumW    float64
	SumWY   float64
	SumWY2  float64
}

// P1DState is the serializable form of Profile1D.
type P1DState struct {
	Name   string
	Ann    []KV
	Bins   int
	Lo, Hi float64
	Data   []ProfBinState
}

// State extracts the profile's serializable state.
func (p *Profile1D) State() *P1DState {
	s := &P1DState{
		Name: p.name, Ann: annState(p.ann),
		Bins: p.axis.nBins, Lo: p.axis.lo, Hi: p.axis.hi,
		Data: make([]ProfBinState, len(p.bins)),
	}
	for i, b := range p.bins {
		s.Data[i] = ProfBinState{b.entries, b.sumW, b.sumWY, b.sumWY2}
	}
	return s
}

// Restore rebuilds a profile from state.
func (s *P1DState) Restore() (*Profile1D, error) {
	if s.Bins <= 0 || len(s.Data) != s.Bins+2 {
		return nil, fmt.Errorf("aida: bad P1D state for %q", s.Name)
	}
	p := NewProfile1D(s.Name, "", s.Bins, s.Lo, s.Hi)
	p.ann = annFromState(s.Ann)
	for i, b := range s.Data {
		p.bins[i] = profBin{b.Entries, b.SumW, b.SumWY, b.SumWY2}
	}
	return p, nil
}

// C1DState is the serializable form of Cloud1D.
type C1DState struct {
	Name                string
	Ann                 []KV
	Limit               int
	Xs, Ws              []float64
	SumW, SumWX, SumWX2 float64
	Lo, Hi              float64
	Converted           *H1DState // non-nil once binned
}

// State extracts the cloud's serializable state.
func (c *Cloud1D) State() *C1DState {
	s := &C1DState{
		Name: c.name, Ann: annState(c.ann), Limit: c.limit,
		Xs: append([]float64(nil), c.xs...), Ws: append([]float64(nil), c.ws...),
		SumW: c.sumW, SumWX: c.sumWX, SumWX2: c.sumWX2, Lo: c.lo, Hi: c.hi,
	}
	if c.converted != nil {
		s.Converted = c.converted.State()
	}
	return s
}

// Restore rebuilds a cloud from state.
func (s *C1DState) Restore() (*Cloud1D, error) {
	c := NewCloud1DLimit(s.Name, "", s.Limit)
	c.ann = annFromState(s.Ann)
	c.xs = append([]float64(nil), s.Xs...)
	c.ws = append([]float64(nil), s.Ws...)
	c.sumW, c.sumWX, c.sumWX2 = s.SumW, s.SumWX, s.SumWX2
	c.lo, c.hi = s.Lo, s.Hi
	if len(c.xs) == 0 && math.IsInf(c.lo, 0) {
		c.lo, c.hi = math.Inf(1), math.Inf(-1)
	}
	if s.Converted != nil {
		h, err := s.Converted.Restore()
		if err != nil {
			return nil, err
		}
		c.converted = h
	}
	return c, nil
}

// C2DState is the serializable form of Cloud2D.
type C2DState struct {
	Name               string
	Ann                []KV
	Limit              int
	Xs, Ys, Ws         []float64
	XLo, XHi, YLo, YHi float64
	Converted          *H2DState
}

// State extracts the cloud's serializable state.
func (c *Cloud2D) State() *C2DState {
	s := &C2DState{
		Name: c.name, Ann: annState(c.ann), Limit: c.limit,
		Xs: append([]float64(nil), c.xs...), Ys: append([]float64(nil), c.ys...),
		Ws:  append([]float64(nil), c.ws...),
		XLo: c.xlo, XHi: c.xhi, YLo: c.ylo, YHi: c.yhi,
	}
	if c.converted != nil {
		s.Converted = c.converted.State()
	}
	return s
}

// Restore rebuilds a 2D cloud from state.
func (s *C2DState) Restore() (*Cloud2D, error) {
	c := NewCloud2D(s.Name, "")
	c.ann = annFromState(s.Ann)
	c.limit = s.Limit
	c.xs = append([]float64(nil), s.Xs...)
	c.ys = append([]float64(nil), s.Ys...)
	c.ws = append([]float64(nil), s.Ws...)
	c.xlo, c.xhi, c.ylo, c.yhi = s.XLo, s.XHi, s.YLo, s.YHi
	if s.Converted != nil {
		h, err := s.Converted.Restore()
		if err != nil {
			return nil, err
		}
		c.converted = h
	}
	return c, nil
}

// DPSState is the serializable form of DataPointSet.
type DPSState struct {
	Name   string
	Ann    []KV
	Dim    int
	Points []DataPoint
}

// State extracts the point set's serializable state.
func (d *DataPointSet) State() *DPSState {
	s := &DPSState{Name: d.name, Ann: annState(d.ann), Dim: d.dim}
	s.Points = make([]DataPoint, len(d.points))
	for i, p := range d.points {
		s.Points[i].Coords = append([]Measurement(nil), p.Coords...)
	}
	return s
}

// Restore rebuilds a point set from state.
func (s *DPSState) Restore() (*DataPointSet, error) {
	if s.Dim <= 0 {
		return nil, fmt.Errorf("aida: bad DPS state for %q: dim %d", s.Name, s.Dim)
	}
	d := NewDataPointSet(s.Name, "", s.Dim)
	d.ann = annFromState(s.Ann)
	for _, p := range s.Points {
		if err := d.AppendPoint(p); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// ObjectState is the tagged union shipped on the wire.
type ObjectState struct {
	H1 *H1DState
	H2 *H2DState
	P1 *P1DState
	C1 *C1DState
	C2 *C2DState
	DP *DPSState
}

// StateOf wraps any known object into an ObjectState.
func StateOf(obj Object) (ObjectState, error) {
	switch o := obj.(type) {
	case *Histogram1D:
		return ObjectState{H1: o.State()}, nil
	case *Histogram2D:
		return ObjectState{H2: o.State()}, nil
	case *Profile1D:
		return ObjectState{P1: o.State()}, nil
	case *Cloud1D:
		return ObjectState{C1: o.State()}, nil
	case *Cloud2D:
		return ObjectState{C2: o.State()}, nil
	case *DataPointSet:
		return ObjectState{DP: o.State()}, nil
	default:
		return ObjectState{}, fmt.Errorf("aida: cannot serialize kind %s", obj.Kind())
	}
}

// Restore rebuilds the contained object.
func (s ObjectState) Restore() (Object, error) {
	switch {
	case s.H1 != nil:
		return s.H1.Restore()
	case s.H2 != nil:
		return s.H2.Restore()
	case s.P1 != nil:
		return s.P1.Restore()
	case s.C1 != nil:
		return s.C1.Restore()
	case s.C2 != nil:
		return s.C2.Restore()
	case s.DP != nil:
		return s.DP.Restore()
	default:
		return nil, fmt.Errorf("aida: empty object state")
	}
}

// TreeState is a whole tree on the wire.
type TreeState struct {
	Entries []TreeEntry
}

// TreeEntry is one object with its full path.
type TreeEntry struct {
	Path   string
	Object ObjectState
}

// State extracts the whole tree.
func (t *Tree) State() (*TreeState, error) {
	st := &TreeState{}
	var firstErr error
	t.Walk(func(path string, obj Object) {
		if firstErr != nil {
			return
		}
		os, err := StateOf(obj)
		if err != nil {
			firstErr = fmt.Errorf("aida: %q: %w", path, err)
			return
		}
		st.Entries = append(st.Entries, TreeEntry{Path: path, Object: os})
	})
	return st, firstErr
}

// Restore rebuilds a tree from state.
func (st *TreeState) Restore() (*Tree, error) {
	t := NewTree()
	for _, e := range st.Entries {
		obj, err := e.Object.Restore()
		if err != nil {
			return nil, fmt.Errorf("aida: restoring %q: %w", e.Path, err)
		}
		if err := t.PutAt(e.Path, obj); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// ------------------------------------------------------------------
// Binary wire codec.
//
// Frame layout (all integers are uvarint unless noted; floats are IEEE
// 754 bits byte-reversed then uvarint-encoded so common values like small
// integers and halves take 1–3 bytes; strings and byte counts are
// uvarint-length-prefixed):
//
//	TreeState:  ver(1B) count entry*
//	DeltaState: ver(1B) flags(1B: bit0=Full) count entry* nRemoved path*
//	entry:      path object
//	object:     tag(1B) payload          (tags: 1=H1 2=H2 3=P1 4=C1 5=C2 6=DP)
//
// Signed int64 fields use zigzag varints.
//
// The version byte selects the frame encoding. Version 1 is the plain
// layout above. Version 2 is the same body DEFLATE-compressed, preceded
// by the uncompressed body length:
//
//	flate frame: ver(1B)=2 rawLen(uvarint) deflate(body)
//
// A delta's adaptive CompressionPolicy chooses the version per frame;
// decoders accept both transparently, which ipawal1 manager logs, whose
// records carry v2 frames, also rely on.

const (
	wireVersion      = 1 // plain frame
	wireVersionFlate = 2 // DEFLATE-compressed body
)

// Object tags in wire frames.
const (
	wireH1 = 1 + iota
	wireH2
	wireP1
	wireC1
	wireC2
	wireDP
)

// encPool recycles encode scratch buffers so repeated snapshot encodes
// don't pay slice-growth reallocations.
var encPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

func appendI64(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

func appendF64(b []byte, f float64) []byte {
	return binary.AppendUvarint(b, bits.ReverseBytes64(math.Float64bits(f)))
}

func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendF64s(b []byte, fs []float64) []byte {
	b = appendUvarint(b, uint64(len(fs)))
	for _, f := range fs {
		b = appendF64(b, f)
	}
	return b
}

func appendKVs(b []byte, kvs []KV) []byte {
	b = appendUvarint(b, uint64(len(kvs)))
	for _, kv := range kvs {
		b = appendString(b, kv.Key)
		b = appendString(b, kv.Value)
	}
	return b
}

// wireReader is a cursor over an encoded frame; the first malformed read
// latches err and turns every subsequent read into a cheap no-op.
type wireReader struct {
	b   []byte
	err error
}

var errWireShort = fmt.Errorf("aida: truncated wire frame")

func (r *wireReader) fail() {
	if r.err == nil {
		r.err = errWireShort
	}
}

func (r *wireReader) byte() byte {
	if r.err != nil || len(r.b) < 1 {
		r.fail()
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *wireReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

// count reads a collection length and bounds it against the remaining
// frame so a corrupt header can't trigger a huge allocation.
func (r *wireReader) count(minElemSize int) int {
	v := r.uvarint()
	if r.err != nil {
		return 0
	}
	if minElemSize < 1 {
		minElemSize = 1
	}
	if v > uint64(len(r.b)/minElemSize) {
		r.fail()
		return 0
	}
	return int(v)
}

func (r *wireReader) i64() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *wireReader) f64() float64 {
	return math.Float64frombits(bits.ReverseBytes64(r.uvarint()))
}

func (r *wireReader) str() string {
	n := r.count(1)
	if r.err != nil {
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (r *wireReader) f64s() []float64 {
	n := r.count(1)
	if r.err != nil || n == 0 {
		// State() builds these with append(nil, ...), so empty is nil.
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = r.f64()
	}
	return out
}

func (r *wireReader) kvs() []KV {
	n := r.count(2)
	if r.err != nil {
		return nil
	}
	// annState always returns a non-nil slice; mirror that so decoded
	// states compare deep-equal to freshly extracted ones.
	out := make([]KV, n)
	for i := range out {
		out[i].Key = r.str()
		out[i].Value = r.str()
	}
	return out
}

func appendH1D(b []byte, s *H1DState) []byte {
	b = appendString(b, s.Name)
	b = appendKVs(b, s.Ann)
	b = appendUvarint(b, uint64(s.Bins))
	b = appendF64(b, s.Lo)
	b = appendF64(b, s.Hi)
	b = appendUvarint(b, uint64(len(s.Data)))
	for _, d := range s.Data {
		b = appendI64(b, d.Entries)
		b = appendF64(b, d.SumW)
		b = appendF64(b, d.SumW2)
		b = appendF64(b, d.SumWX)
	}
	b = appendF64(b, s.SumW)
	b = appendF64(b, s.SumWX)
	return appendF64(b, s.SumWX2)
}

func (r *wireReader) h1d() *H1DState {
	s := &H1DState{Name: r.str(), Ann: r.kvs(), Bins: int(r.uvarint()), Lo: r.f64(), Hi: r.f64()}
	n := r.count(4) // 4 varints, 1B each minimum
	if r.err != nil {
		return s
	}
	s.Data = make([]BinState, n)
	for i := range s.Data {
		s.Data[i] = BinState{r.i64(), r.f64(), r.f64(), r.f64()}
	}
	s.SumW, s.SumWX, s.SumWX2 = r.f64(), r.f64(), r.f64()
	return s
}

func appendH2D(b []byte, s *H2DState) []byte {
	b = appendString(b, s.Name)
	b = appendKVs(b, s.Ann)
	b = appendUvarint(b, uint64(s.NX))
	b = appendF64(b, s.XLo)
	b = appendF64(b, s.XHi)
	b = appendUvarint(b, uint64(s.NY))
	b = appendF64(b, s.YLo)
	b = appendF64(b, s.YHi)
	b = appendUvarint(b, uint64(len(s.Cells)))
	for _, c := range s.Cells {
		b = appendI64(b, c.Entries)
		b = appendF64(b, c.SumW)
		b = appendF64(b, c.SumW2)
		b = appendF64(b, c.SumWX)
		b = appendF64(b, c.SumWY)
	}
	b = appendF64(b, s.SumW)
	b = appendF64(b, s.SumWX)
	b = appendF64(b, s.SumWY)
	b = appendF64(b, s.SumWX2)
	return appendF64(b, s.SumWY2)
}

func (r *wireReader) h2d() *H2DState {
	s := &H2DState{Name: r.str(), Ann: r.kvs()}
	s.NX, s.XLo, s.XHi = int(r.uvarint()), r.f64(), r.f64()
	s.NY, s.YLo, s.YHi = int(r.uvarint()), r.f64(), r.f64()
	n := r.count(5) // 5 varints, 1B each minimum
	if r.err != nil {
		return s
	}
	s.Cells = make([]Bin2State, n)
	for i := range s.Cells {
		s.Cells[i] = Bin2State{r.i64(), r.f64(), r.f64(), r.f64(), r.f64()}
	}
	s.SumW, s.SumWX, s.SumWY = r.f64(), r.f64(), r.f64()
	s.SumWX2, s.SumWY2 = r.f64(), r.f64()
	return s
}

func appendP1D(b []byte, s *P1DState) []byte {
	b = appendString(b, s.Name)
	b = appendKVs(b, s.Ann)
	b = appendUvarint(b, uint64(s.Bins))
	b = appendF64(b, s.Lo)
	b = appendF64(b, s.Hi)
	b = appendUvarint(b, uint64(len(s.Data)))
	for _, d := range s.Data {
		b = appendI64(b, d.Entries)
		b = appendF64(b, d.SumW)
		b = appendF64(b, d.SumWY)
		b = appendF64(b, d.SumWY2)
	}
	return b
}

func (r *wireReader) p1d() *P1DState {
	s := &P1DState{Name: r.str(), Ann: r.kvs(), Bins: int(r.uvarint()), Lo: r.f64(), Hi: r.f64()}
	n := r.count(4)
	if r.err != nil {
		return s
	}
	s.Data = make([]ProfBinState, n)
	for i := range s.Data {
		s.Data[i] = ProfBinState{r.i64(), r.f64(), r.f64(), r.f64()}
	}
	return s
}

func appendC1D(b []byte, s *C1DState) []byte {
	b = appendString(b, s.Name)
	b = appendKVs(b, s.Ann)
	b = appendI64(b, int64(s.Limit))
	b = appendF64s(b, s.Xs)
	b = appendF64s(b, s.Ws)
	b = appendF64(b, s.SumW)
	b = appendF64(b, s.SumWX)
	b = appendF64(b, s.SumWX2)
	b = appendF64(b, s.Lo)
	b = appendF64(b, s.Hi)
	if s.Converted == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	return appendH1D(b, s.Converted)
}

func (r *wireReader) c1d() *C1DState {
	s := &C1DState{Name: r.str(), Ann: r.kvs(), Limit: int(r.i64())}
	s.Xs, s.Ws = r.f64s(), r.f64s()
	s.SumW, s.SumWX, s.SumWX2 = r.f64(), r.f64(), r.f64()
	s.Lo, s.Hi = r.f64(), r.f64()
	if r.byte() != 0 {
		s.Converted = r.h1d()
	}
	return s
}

func appendC2D(b []byte, s *C2DState) []byte {
	b = appendString(b, s.Name)
	b = appendKVs(b, s.Ann)
	b = appendI64(b, int64(s.Limit))
	b = appendF64s(b, s.Xs)
	b = appendF64s(b, s.Ys)
	b = appendF64s(b, s.Ws)
	b = appendF64(b, s.XLo)
	b = appendF64(b, s.XHi)
	b = appendF64(b, s.YLo)
	b = appendF64(b, s.YHi)
	if s.Converted == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	return appendH2D(b, s.Converted)
}

func (r *wireReader) c2d() *C2DState {
	s := &C2DState{Name: r.str(), Ann: r.kvs(), Limit: int(r.i64())}
	s.Xs, s.Ys, s.Ws = r.f64s(), r.f64s(), r.f64s()
	s.XLo, s.XHi, s.YLo, s.YHi = r.f64(), r.f64(), r.f64(), r.f64()
	if r.byte() != 0 {
		s.Converted = r.h2d()
	}
	return s
}

func appendDPS(b []byte, s *DPSState) []byte {
	b = appendString(b, s.Name)
	b = appendKVs(b, s.Ann)
	b = appendUvarint(b, uint64(s.Dim))
	b = appendUvarint(b, uint64(len(s.Points)))
	for _, p := range s.Points {
		b = appendUvarint(b, uint64(len(p.Coords)))
		for _, c := range p.Coords {
			b = appendF64(b, c.Value)
			b = appendF64(b, c.ErrorPlus)
			b = appendF64(b, c.ErrorMinus)
		}
	}
	return b
}

func (r *wireReader) dps() *DPSState {
	s := &DPSState{Name: r.str(), Ann: r.kvs(), Dim: int(r.uvarint())}
	n := r.count(1)
	if r.err != nil {
		return s
	}
	s.Points = make([]DataPoint, n)
	for i := range s.Points {
		nc := r.count(3)
		if r.err != nil {
			return s
		}
		s.Points[i].Coords = make([]Measurement, nc)
		for j := range s.Points[i].Coords {
			s.Points[i].Coords[j] = Measurement{r.f64(), r.f64(), r.f64()}
		}
	}
	return s
}

// AppendObjectState appends s's binary encoding to dst.
func AppendObjectState(dst []byte, s *ObjectState) ([]byte, error) {
	switch {
	case s.H1 != nil:
		return appendH1D(append(dst, wireH1), s.H1), nil
	case s.H2 != nil:
		return appendH2D(append(dst, wireH2), s.H2), nil
	case s.P1 != nil:
		return appendP1D(append(dst, wireP1), s.P1), nil
	case s.C1 != nil:
		return appendC1D(append(dst, wireC1), s.C1), nil
	case s.C2 != nil:
		return appendC2D(append(dst, wireC2), s.C2), nil
	case s.DP != nil:
		return appendDPS(append(dst, wireDP), s.DP), nil
	default:
		return dst, fmt.Errorf("aida: encoding empty object state")
	}
}

func (r *wireReader) objectState() ObjectState {
	switch tag := r.byte(); tag {
	case wireH1:
		return ObjectState{H1: r.h1d()}
	case wireH2:
		return ObjectState{H2: r.h2d()}
	case wireP1:
		return ObjectState{P1: r.p1d()}
	case wireC1:
		return ObjectState{C1: r.c1d()}
	case wireC2:
		return ObjectState{C2: r.c2d()}
	case wireDP:
		return ObjectState{DP: r.dps()}
	default:
		if r.err == nil {
			r.err = fmt.Errorf("aida: unknown wire object tag %d", tag)
		}
		return ObjectState{}
	}
}

func appendEntries(dst []byte, entries []TreeEntry) ([]byte, error) {
	dst = appendUvarint(dst, uint64(len(entries)))
	var err error
	for i := range entries {
		dst = appendString(dst, entries[i].Path)
		if dst, err = AppendObjectState(dst, &entries[i].Object); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

func (r *wireReader) entries() []TreeEntry {
	n := r.count(2)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]TreeEntry, n)
	for i := range out {
		out[i].Path = r.str()
		out[i].Object = r.objectState()
		if r.err != nil {
			return out
		}
	}
	return out
}

// AppendTreeState appends st's binary frame to dst.
func AppendTreeState(dst []byte, st *TreeState) ([]byte, error) {
	return appendEntries(append(dst, wireVersion), st.Entries)
}

// DecodeTreeState parses a tree frame of either version.
func DecodeTreeState(b []byte) (*TreeState, error) {
	body, err := openFrame(b, "tree")
	if err != nil {
		return nil, err
	}
	r := &wireReader{b: body}
	st := &TreeState{Entries: r.entries()}
	if r.err != nil {
		return nil, r.err
	}
	return st, nil
}

func appendDeltaBody(dst []byte, d *DeltaState) ([]byte, error) {
	var flags byte
	if d.Full {
		flags |= 1
	}
	dst = append(dst, flags)
	var err error
	if dst, err = appendEntries(dst, d.Entries); err != nil {
		return dst, err
	}
	dst = appendUvarint(dst, uint64(len(d.Removed)))
	for _, p := range d.Removed {
		dst = appendString(dst, p)
	}
	return dst, nil
}

// AppendDeltaState appends d's binary frame to dst.
func AppendDeltaState(dst []byte, d *DeltaState) ([]byte, error) {
	return appendDeltaBody(append(dst, wireVersion), d)
}

// DecodeDeltaState parses a delta frame of either version.
func DecodeDeltaState(b []byte) (*DeltaState, error) {
	body, err := openFrame(b, "delta")
	if err != nil {
		return nil, err
	}
	r := &wireReader{b: body}
	d := &DeltaState{Full: r.byte()&1 != 0, Entries: r.entries()}
	if n := r.count(1); r.err == nil && n > 0 {
		d.Removed = make([]string, n)
		for i := range d.Removed {
			d.Removed[i] = r.str()
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	return d, nil
}

// flateWriterPool recycles compressors: flate.NewWriter allocates large
// internal tables, far more than a snapshot encode itself.
var flateWriterPool = sync.Pool{
	New: func() any {
		w, _ := flate.NewWriter(io.Discard, flate.BestSpeed)
		return w
	},
}

// flateReaderPool recycles decompressors via flate.Resetter.
var flateReaderPool = sync.Pool{
	New: func() any { return flate.NewReader(bytes.NewReader(nil)) },
}

// sliceWriter adapts an append-style byte slice to io.Writer for the
// compressor.
type sliceWriter struct{ b []byte }

func (w *sliceWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// appendFlateRaw appends a version-2 frame (raw length + DEFLATE of the
// body) carrying raw to dst.
func appendFlateRaw(dst, raw []byte) ([]byte, error) {
	dst = append(dst, wireVersionFlate)
	dst = appendUvarint(dst, uint64(len(raw)))
	sw := &sliceWriter{b: dst}
	fw := flateWriterPool.Get().(*flate.Writer)
	fw.Reset(sw)
	_, werr := fw.Write(raw)
	cerr := fw.Close()
	flateWriterPool.Put(fw)
	if werr != nil {
		return sw.b, werr
	}
	return sw.b, cerr
}

// appendPolicyFrame appends either a plain version-1 frame or a
// compressed version-2 frame of body to dst, per the policy's per-frame
// choice; achieved ratios feed back into the policy so later frames
// learn from this stream. The body is encoded straight into dst — the
// usual (plain) outcome costs no extra copy; only the compressed branch
// stages the raw bytes through scratch to re-emit them deflated.
func appendPolicyFrame(dst []byte, p *CompressionPolicy, body func([]byte) ([]byte, error)) ([]byte, error) {
	mark := len(dst)
	dst = append(dst, wireVersion)
	dst, err := body(dst)
	if err != nil {
		return dst[:mark], err
	}
	raw := dst[mark+1:]
	if !p.shouldCompress(len(raw)) {
		return dst, nil
	}
	bp := encPool.Get().(*[]byte)
	scratch := append((*bp)[:0], raw...)
	dst, err = appendFlateRaw(dst[:mark], scratch)
	*bp = scratch
	putEncBuf(bp)
	if err != nil {
		return dst, err
	}
	p.observe(len(raw), len(dst)-mark)
	return dst, nil
}

// openFrame validates the leading version byte and returns the frame
// body, inflating compressed frames. kind names the frame in errors.
func openFrame(b []byte, kind string) ([]byte, error) {
	if len(b) == 0 {
		return nil, errWireShort
	}
	body := b[1:]
	switch b[0] {
	case wireVersion:
		return body, nil
	case wireVersionFlate:
		r := &wireReader{b: body}
		n := r.uvarint()
		if r.err != nil {
			return nil, r.err
		}
		// DEFLATE expands at most ~1032x; a declared raw size beyond that
		// bound marks a corrupt header and must not drive an allocation.
		if n > uint64(len(r.b))*1040+64 {
			return nil, fmt.Errorf("aida: %s flate frame declares %d raw bytes from %d compressed", kind, n, len(r.b))
		}
		raw := make([]byte, n)
		fr := flateReaderPool.Get().(io.ReadCloser)
		err := fr.(flate.Resetter).Reset(bytes.NewReader(r.b), nil)
		if err == nil {
			_, err = io.ReadFull(fr, raw)
		}
		if err == nil {
			// The stream must end exactly at the declared length.
			var one [1]byte
			if m, _ := fr.Read(one[:]); m != 0 {
				err = fmt.Errorf("aida: %s flate frame longer than declared", kind)
			}
		}
		fr.Close()
		flateReaderPool.Put(fr)
		if err != nil {
			return nil, fmt.Errorf("aida: inflating %s frame: %w", kind, err)
		}
		return raw, nil
	default:
		return nil, fmt.Errorf("aida: unsupported %s wire version %d", kind, b[0])
	}
}

// encodePooled runs fn against a pooled scratch buffer and returns an
// exact-size copy (the copy is handed to gob, which owns its result).
func encodePooled(fn func([]byte) ([]byte, error)) ([]byte, error) {
	bp := encPool.Get().(*[]byte)
	buf, err := fn((*bp)[:0])
	if err == nil {
		out := make([]byte, len(buf))
		copy(out, buf)
		*bp = buf
		putEncBuf(bp)
		return out, nil
	}
	*bp = buf
	putEncBuf(bp)
	return nil, err
}

// GobEncode implements gob.GobEncoder via the binary codec. Value
// receiver: the RMI client encodes args boxed in an interface, which gob
// cannot address, and gob rejects pointer-only GobEncoders there.
func (st TreeState) GobEncode() ([]byte, error) {
	return encodePooled(func(b []byte) ([]byte, error) { return AppendTreeState(b, &st) })
}

// GobDecode implements gob.GobDecoder.
func (st *TreeState) GobDecode(b []byte) error {
	dec, err := DecodeTreeState(b)
	if err != nil {
		return err
	}
	*st = *dec
	return nil
}

// GobEncode implements gob.GobEncoder via the binary codec (value
// receiver for the same addressability reason as TreeState).
func (d DeltaState) GobEncode() ([]byte, error) {
	if d.policy != nil {
		return encodePooled(func(b []byte) ([]byte, error) {
			return appendPolicyFrame(b, d.policy, func(b []byte) ([]byte, error) {
				return appendDeltaBody(b, &d)
			})
		})
	}
	return encodePooled(func(b []byte) ([]byte, error) { return AppendDeltaState(b, &d) })
}

// GobDecode implements gob.GobDecoder.
func (d *DeltaState) GobDecode(b []byte) error {
	dec, err := DecodeDeltaState(b)
	if err != nil {
		return err
	}
	*d = *dec
	return nil
}

// GobEncode implements gob.GobEncoder via the binary codec (used when an
// ObjectState travels outside a TreeState/DeltaState, e.g. PollReply
// entries).
func (s ObjectState) GobEncode() ([]byte, error) {
	return encodePooled(func(b []byte) ([]byte, error) { return AppendObjectState(b, &s) })
}

// GobDecode implements gob.GobDecoder.
func (s *ObjectState) GobDecode(b []byte) error {
	dec, err := DecodeObjectFrame(b)
	if err != nil {
		return err
	}
	*s = dec
	return nil
}

// DecodeObjectFrame parses a single object frame (tag + payload) — the
// form produced by AppendObjectState / ObjectState.GobEncode and cached
// by the merge manager's poll encoder.
func DecodeObjectFrame(b []byte) (ObjectState, error) {
	r := &wireReader{b: b}
	s := r.objectState()
	if r.err != nil {
		return ObjectState{}, r.err
	}
	return s, nil
}

// ObjectFrame is a single object's pre-encoded wire frame (tag +
// payload) — the unit the merge manager's poll cache stores so one
// encode serves every polling client. Its gob representation is the
// frame itself, so a cached frame crosses RMI without re-encoding. The
// layout is identical to ObjectState's gob encoding, so frames and
// states interconvert freely.
type ObjectFrame []byte

// EncodeObjectFrame encodes s as a standalone object frame.
func EncodeObjectFrame(s *ObjectState) (ObjectFrame, error) {
	b, err := encodePooled(func(b []byte) ([]byte, error) { return AppendObjectState(b, s) })
	if err != nil {
		return nil, err
	}
	return ObjectFrame(b), nil
}

// Decode parses the frame back into an ObjectState.
func (f ObjectFrame) Decode() (ObjectState, error) { return DecodeObjectFrame(f) }

// Restore decodes the frame and rebuilds the live object.
func (f ObjectFrame) Restore() (Object, error) {
	s, err := f.Decode()
	if err != nil {
		return nil, err
	}
	return s.Restore()
}

// GobEncode returns the frame bytes verbatim — the frame is already
// encoded, which is the whole point of caching it.
func (f ObjectFrame) GobEncode() ([]byte, error) { return f, nil }

// GobDecode copies the received frame into a recycled buffer from the
// decode free list — the receiver owns it and hands it back via Release
// once the frame is restored, making warm poll decodes allocation-free.
func (f *ObjectFrame) GobDecode(b []byte) error {
	buf := frameBufs.get(len(b))
	copy(buf, b)
	*f = ObjectFrame(buf)
	return nil
}

// EncodeTree gob-encodes the tree to w.
func EncodeTree(w io.Writer, t *Tree) error {
	st, err := t.State()
	if err != nil {
		return err
	}
	return gob.NewEncoder(w).Encode(st)
}

// DecodeTree gob-decodes a tree from r.
func DecodeTree(r io.Reader) (*Tree, error) {
	var st TreeState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return nil, err
	}
	return st.Restore()
}
