package aida

import (
	"bytes"
	"encoding/gob"
	"math"
	"reflect"
	"testing"
)

// fullTree builds a tree holding one of every object kind, including a
// converted cloud, so codec tests cover every wire tag.
func fullTree(t testing.TB) *Tree {
	t.Helper()
	tr := NewTree()
	h1, _ := tr.H1D("/a", "h1", "mass", 20, 0, 10)
	for i := 0; i < 100; i++ {
		h1.FillW(float64(i%12), 0.5)
	}
	h2, _ := tr.H2D("/a/b", "h2", "e-vs-theta", 8, 0, 4, 6, -1, 1)
	for i := 0; i < 50; i++ {
		h2.FillW(float64(i%5), float64(i%3)-1, 1.5)
	}
	p1, _ := tr.P1D("/a", "p1", "", 10, 0, 1)
	for i := 0; i < 30; i++ {
		p1.Fill(float64(i)/30, float64(i%7))
	}
	c1, _ := tr.C1D("/c", "c1", "raw")
	c1.Fill(3.5)
	c1.Fill(math.Pi)
	conv := NewCloud1DLimit("c1conv", "", 2)
	conv.Fill(1)
	conv.Fill(2) // trips the limit → converted
	if err := tr.Put("/c", conv); err != nil {
		t.Fatal(err)
	}
	c2 := NewCloud2D("c2", "")
	c2.Fill(1, 2)
	c2.Fill(3, 4)
	if err := tr.Put("/c", c2); err != nil {
		t.Fatal(err)
	}
	dps, _ := tr.DPS("/d", "dps", "rows", 2)
	dps.Append(1, 2)
	if err := dps.AppendPoint(DataPoint{Coords: []Measurement{{3, 0.1, 0.2}, {4, 0, 0}}}); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestBinaryCodecRoundTrip(t *testing.T) {
	st, err := fullTree(t).State()
	if err != nil {
		t.Fatal(err)
	}
	buf, err := AppendTreeState(nil, st)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeTreeState(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, back) {
		t.Fatalf("tree state round trip mismatch:\n got %+v\nwant %+v", back, st)
	}
}

func TestBinaryCodecDeltaRoundTrip(t *testing.T) {
	tr := fullTree(t)
	if _, err := tr.FullDelta(); err != nil {
		t.Fatal(err)
	}
	tr.Get("/a/h1").(*Histogram1D).Fill(5)
	tr.Rm("/d/dps")
	d, err := tr.Delta()
	if err != nil {
		t.Fatal(err)
	}
	if d.Full || len(d.Entries) != 1 || len(d.Removed) != 1 {
		t.Fatalf("delta = full:%v entries:%d removed:%v", d.Full, len(d.Entries), d.Removed)
	}
	buf, err := AppendDeltaState(nil, d)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeDeltaState(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d, back) {
		t.Fatalf("delta round trip mismatch:\n got %+v\nwant %+v", back, d)
	}
}

// TestGobUsesBinaryCodec asserts the gob path (RMI frames) round-trips
// through the custom codec, including as a struct field and behind an
// interface, the shapes the RMI layer produces.
func TestGobUsesBinaryCodec(t *testing.T) {
	st, err := fullTree(t).State()
	if err != nil {
		t.Fatal(err)
	}
	type frame struct {
		Seq   int64
		Tree  TreeState
		Delta *DeltaState
	}
	in := frame{Seq: 7, Tree: *st, Delta: &DeltaState{Full: true, Entries: st.Entries}}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(in); err != nil {
		t.Fatal(err)
	}
	var out frame
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in.Tree, out.Tree) {
		t.Fatal("tree state gob round trip mismatch")
	}
	if !reflect.DeepEqual(in.Delta, out.Delta) {
		t.Fatal("delta state gob round trip mismatch")
	}

	// Nil delta field must stay nil.
	var buf2 bytes.Buffer
	if err := gob.NewEncoder(&buf2).Encode(frame{Seq: 1, Tree: *st}); err != nil {
		t.Fatal(err)
	}
	var out2 frame
	if err := gob.NewDecoder(&buf2).Decode(&out2); err != nil {
		t.Fatal(err)
	}
	if out2.Delta != nil {
		t.Fatal("nil delta came back non-nil")
	}

	// Encoding via a non-addressable interface value (the client side of
	// rmi.Call encodes `any`).
	var buf3 bytes.Buffer
	if err := gob.NewEncoder(&buf3).Encode(any(in)); err != nil {
		t.Fatalf("gob via interface: %v", err)
	}
}

func TestBinaryCodecTruncatedAndCorrupt(t *testing.T) {
	st, err := fullTree(t).State()
	if err != nil {
		t.Fatal(err)
	}
	buf, err := AppendTreeState(nil, st)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 2, len(buf) / 2, len(buf) - 1} {
		if _, err := DecodeTreeState(buf[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded without error", n)
		}
	}
	// A huge declared count must not panic or allocate wildly.
	bad := []byte{wireVersion, 0xff, 0xff, 0xff, 0xff, 0x0f}
	if _, err := DecodeTreeState(bad); err == nil {
		t.Fatal("oversized count accepted")
	}
	if _, err := DecodeTreeState([]byte{99}); err == nil {
		t.Fatal("unknown version accepted")
	}
}

// The decoders accept only the bytes the encoder writes, so a frame that
// decodes re-encodes to itself.
func TestDecodersAcceptOnlyCanonicalFrames(t *testing.T) {
	cloud, err := AppendObjectState(nil, &ObjectState{C1: NewCloud1D("c", "").State()})
	if err != nil {
		t.Fatal(err)
	}
	if cloud[len(cloud)-1] != 0 {
		t.Fatal("a cloud frame does not end in its converted flag")
	}
	for name, frame := range map[string]func() error{
		"a long varint":          func() error { _, err := DecodeTreeState([]byte{wireVersion, 0x80, 0x00}); return err },
		"a byte after the frame": func() error { _, err := DecodeTreeState([]byte{wireVersion, 0, 0}); return err },
		"a delta flag of 2":      func() error { _, err := DecodeDeltaState([]byte{wireVersion, 2, 0, 0}); return err },
		"a converted flag of 2": func() error {
			_, err := DecodeObjectFrame(append(cloud[:len(cloud)-1:len(cloud)-1], 2))
			return err
		},
	} {
		if frame() == nil {
			t.Errorf("%s decoded", name)
		}
	}
}

// A frame that decodes can still describe an object no constructor
// accepts; restoring it fails instead of panicking or building a
// histogram whose bins do not match its axes.
func TestRestoreRejectsInconsistentStates(t *testing.T) {
	for i, s := range inconsistentStates() {
		b, err := AppendObjectState(nil, &s)
		if err != nil {
			t.Fatal(err)
		}
		d, err := DecodeObjectFrame(b)
		if err != nil {
			t.Fatalf("%d: %v", i, err)
		}
		if obj, err := d.Restore(); err == nil {
			t.Errorf("%d: restored %v", i, obj)
		}
	}
}

// inconsistentStates are well-formed object states that no object has:
// empty, inverted or NaN axes, and 2D bin counts whose cell count
// overflows to the number of cells given.
func inconsistentStates() []ObjectState {
	return []ObjectState{
		{H1: &H1DState{Name: "h", Bins: 2, Lo: 1, Hi: 1, Data: make([]BinState, 4)}},
		{H1: &H1DState{Name: "h", Bins: 2, Lo: math.NaN(), Hi: 1, Data: make([]BinState, 4)}},
		{P1: &P1DState{Name: "p", Bins: 2, Lo: 1, Hi: 0, Data: make([]ProfBinState, 4)}},
		{H2: &H2DState{Name: "h", NX: 1, NY: 1, XLo: 1, XHi: 0, YLo: 0, YHi: 1, Cells: make([]Bin2State, 9)}},
		{H2: &H2DState{Name: "h", NX: 1<<32 - 2, NY: 1<<32 - 2, XLo: 0, XHi: 1, YLo: 0, YHi: 1}},
		{C1: &C1DState{Name: "c", Converted: &H1DState{Name: "c", Bins: 1, Lo: 2, Hi: 2, Data: make([]BinState, 3)}}},
	}
}

// toFlate re-frames a plain (version 1) frame as a compressed (version
// 2) one with the encoder the adaptive policy path uses.
func toFlate(plain []byte, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	return appendFlateRaw(nil, plain[1:])
}

// TestFlateFrameRoundTrip: version-2 (compressed) frames decode to the
// same states as version-1, transparently via
// DecodeTreeState/DecodeDeltaState.
func TestFlateFrameRoundTrip(t *testing.T) {
	st, err := fullTree(t).State()
	if err != nil {
		t.Fatal(err)
	}
	buf, err := toFlate(AppendTreeState(nil, st))
	if err != nil {
		t.Fatal(err)
	}
	if buf[0] != wireVersionFlate {
		t.Fatalf("frame version = %d", buf[0])
	}
	back, err := DecodeTreeState(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st.Entries, back.Entries) {
		t.Fatal("compressed tree frame round trip mismatch")
	}

	tr := fullTree(t)
	if _, err := tr.FullDelta(); err != nil {
		t.Fatal(err)
	}
	tr.Get("/a/h1").(*Histogram1D).Fill(5)
	tr.Rm("/d/dps")
	d, err := tr.Delta()
	if err != nil {
		t.Fatal(err)
	}
	dbuf, err := toFlate(AppendDeltaState(nil, d))
	if err != nil {
		t.Fatal(err)
	}
	dback, err := DecodeDeltaState(dbuf)
	if err != nil {
		t.Fatal(err)
	}
	if dback.Full != d.Full || !reflect.DeepEqual(d.Entries, dback.Entries) ||
		!reflect.DeepEqual(d.Removed, dback.Removed) {
		t.Fatal("compressed delta frame round trip mismatch")
	}
}

// TestFlateFrameShrinksSparseSnapshots: the compression exists for WAN
// snapshots, which are dominated by runs of near-empty bins; such a
// frame must come out smaller compressed.
func TestFlateFrameShrinksSparseSnapshots(t *testing.T) {
	tr := NewTree()
	h, _ := tr.H1D("/a", "h", "", 5000, 0, 100)
	for i := 0; i < 50; i++ {
		h.Fill(float64(i % 100))
	}
	st, err := tr.State()
	if err != nil {
		t.Fatal(err)
	}
	plain, err := AppendTreeState(nil, st)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := toFlate(AppendTreeState(nil, st))
	if err != nil {
		t.Fatal(err)
	}
	if len(packed) >= len(plain) {
		t.Fatalf("compressed frame %d B not smaller than plain %d B", len(packed), len(plain))
	}
	t.Logf("plain %d B vs flate %d B (%.1fx)", len(plain), len(packed), float64(len(plain))/float64(len(packed)))
}

// TestFlateFrameCorrupt: malformed compressed frames fail cleanly.
func TestFlateFrameCorrupt(t *testing.T) {
	st, err := fullTree(t).State()
	if err != nil {
		t.Fatal(err)
	}
	buf, err := toFlate(AppendTreeState(nil, st))
	if err != nil {
		t.Fatal(err)
	}
	// Truncation must never yield a silently wrong result. (The very
	// last byte only terminates the DEFLATE stream; losing it can still
	// decode — to the complete, correct payload — so "must error" would
	// be too strong a property.)
	for n := 0; n < len(buf); n++ {
		back, err := DecodeTreeState(buf[:n])
		if err == nil && !reflect.DeepEqual(st.Entries, back.Entries) {
			t.Fatalf("truncation to %d bytes decoded to wrong entries", n)
		}
	}
	// A declared raw size wildly beyond what the compressed bytes could
	// expand to must be rejected before allocating.
	huge := []byte{wireVersionFlate, 0xff, 0xff, 0xff, 0xff, 0xff, 0x0f}
	if _, err := DecodeTreeState(huge); err == nil {
		t.Fatal("oversized declared length accepted")
	}
	// Garbage where the DEFLATE stream should be.
	junk := append([]byte{wireVersionFlate}, 200, 1, 2, 3, 4, 5)
	if _, err := DecodeTreeState(junk); err == nil {
		t.Fatal("corrupt compressed body accepted")
	}
}

// TestObjectFrameRoundTrip: pre-encoded frames (the poll cache unit)
// decode back to their states directly and via gob.
func TestObjectFrameRoundTrip(t *testing.T) {
	st, err := fullTree(t).State()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range st.Entries {
		e := e
		frame, err := EncodeObjectFrame(&e.Object)
		if err != nil {
			t.Fatal(err)
		}
		back, err := frame.Decode()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(e.Object, back) {
			t.Fatalf("%s: object frame round trip mismatch", e.Path)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(frame); err != nil {
			t.Fatal(err)
		}
		// The gob body must embed the frame verbatim (no re-encode).
		if !bytes.Contains(buf.Bytes(), frame) {
			t.Fatalf("%s: gob re-encoded the cached frame", e.Path)
		}
		var dec ObjectFrame
		if err := gob.NewDecoder(&buf).Decode(&dec); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dec, frame) {
			t.Fatalf("%s: frame gob round trip mismatch", e.Path)
		}
	}
}

func TestEncodedSizeBeatsReflectionGob(t *testing.T) {
	st, err := fullTree(t).State()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := AppendTreeState(nil, st)
	if err != nil {
		t.Fatal(err)
	}
	// Reflection-driven gob over the equivalent shape (custom codecs
	// stripped) for a like-for-like size comparison.
	type entry struct {
		Path string
		H1   *H1DState
		H2   *H2DState
		P1   *P1DState
		C1   *C1DState
		C2   *C2DState
		DP   *DPSState
	}
	var plain []entry
	for _, e := range st.Entries {
		plain = append(plain, entry{e.Path, e.Object.H1, e.Object.H2, e.Object.P1, e.Object.C1, e.Object.C2, e.Object.DP})
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(plain); err != nil {
		t.Fatal(err)
	}
	if len(bin) >= buf.Len() {
		t.Fatalf("binary frame (%d B) not smaller than reflection gob (%d B)", len(bin), buf.Len())
	}
	t.Logf("binary %d B vs gob %d B (%.1fx)", len(bin), buf.Len(), float64(buf.Len())/float64(len(bin)))
}
