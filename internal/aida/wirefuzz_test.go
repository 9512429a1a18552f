package aida

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// aidaAllocBound is what decoding a frame of n bytes, inflating to raw
// bytes, may allocate: the inflater's state, the inflated body, and a
// constant factor of the body for the decoded states — never a corrupt
// count's worth.
func aidaAllocBound(n, raw int) uint64 { return 1<<20 + 128*uint64(n) + 129*uint64(raw) }

// declaredRaw is the body length a compressed frame declares, when
// openFrame would believe it; 0 for any other frame.
func declaredRaw(b []byte) int {
	if len(b) == 0 || b[0] != wireVersionFlate {
		return 0
	}
	n, k := binary.Uvarint(b[1:])
	if k <= 0 || n > uint64(len(b)-1-k)*1040+64 {
		return 0
	}
	return int(n)
}

// decoder decodes a frame. encode re-encodes and restore restores what
// it returned; both are nil when it returned nothing.
type decoder func(b []byte) (encode func() ([]byte, error), restore func() error, err error)

// decoded runs decode over b and checks what every decoder owes arbitrary
// input: no panic, an error for every rejection, allocation bounded by
// the input, and for an accepted frame an encoding that gives back b's
// body (a compressed frame inflated) and a Restore that does not panic.
func decoded(t *testing.T, kind string, b []byte, decode decoder) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	encode, restore, err := decode(b)
	runtime.ReadMemStats(&ms)
	if alloc := ms.TotalAlloc - before; alloc > aidaAllocBound(len(b), declaredRaw(b)) {
		t.Fatalf("%s: decoding %d bytes allocated %d", kind, len(b), alloc)
	}
	switch {
	case err != nil && encode != nil:
		t.Fatalf("%s: rejected with %v but returned a value", kind, err)
	case err != nil:
		return
	case encode == nil:
		t.Fatalf("%s: accepted without a value", kind)
	}
	want := b
	if len(b) > 0 && b[0] == wireVersionFlate && kind != "object" {
		body, err := openFrame(b, kind)
		if err != nil {
			t.Fatalf("%s: decoded, but its body does not inflate: %v", kind, err)
		}
		want = append([]byte{wireVersion}, body...)
	}
	got, err := encode()
	if err != nil {
		t.Fatalf("%s: decoded, but does not re-encode: %v", kind, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: re-encodes to %x, decoded from %x", kind, got, want)
	}
	restore()
}

// checkAIDAFrames holds the tree, delta and object frame decoders to
// their contract on arbitrary input.
func checkAIDAFrames(t *testing.T, b []byte) {
	decoded(t, "tree", b, func(b []byte) (func() ([]byte, error), func() error, error) {
		st, err := DecodeTreeState(b)
		if st == nil {
			return nil, nil, err
		}
		return func() ([]byte, error) { return AppendTreeState(nil, st) },
			func() error { _, err := st.Restore(); return err }, err
	})
	decoded(t, "delta", b, func(b []byte) (func() ([]byte, error), func() error, error) {
		d, err := DecodeDeltaState(b)
		if d == nil {
			return nil, nil, err
		}
		return func() ([]byte, error) { return AppendDeltaState(nil, d) },
			func() error { _, err := d.Restore(); return err }, err
	})
	decoded(t, "object", b, func(b []byte) (func() ([]byte, error), func() error, error) {
		s, err := DecodeObjectFrame(b)
		if s == (ObjectState{}) {
			return nil, nil, err
		}
		return func() ([]byte, error) { return AppendObjectState(nil, &s) },
			func() error { _, err := s.Restore(); return err }, err
	})
}

// aidaFrameSeeds returns the seed corpus: the codec tests' frames — a
// tree holding every object kind, plain and compressed, a baseline and an
// incremental delta, each object's own frame, the frames of
// inconsistentStates, and the object frames of the seeded golden tree
// (scaled, merged, reset and NaN-bearing states of every binned kind,
// converted clouds) — cut at every length.
func aidaFrameSeeds(tb testing.TB) [][]byte {
	tr := fullTree(tb)
	st, err := tr.State()
	if err != nil {
		tb.Fatal(err)
	}
	tree, err := AppendTreeState(nil, st)
	if err != nil {
		tb.Fatal(err)
	}
	flate, err := toFlate(tree, nil)
	if err != nil {
		tb.Fatal(err)
	}
	frames := [][]byte{tree, flate}
	full, err := tr.FullDelta()
	if err != nil {
		tb.Fatal(err)
	}
	tr.Get("/a/h1").(*Histogram1D).Fill(5)
	tr.Rm("/d/dps")
	incr, err := tr.Delta()
	if err != nil {
		tb.Fatal(err)
	}
	for _, d := range []*DeltaState{full, incr} {
		b, err := AppendDeltaState(nil, d)
		if err != nil {
			tb.Fatal(err)
		}
		frames = append(frames, b)
	}
	objects := inconsistentStates()
	for _, e := range st.Entries {
		objects = append(objects, e.Object)
	}
	golden, err := goldenSeededTree(tb).State()
	if err != nil {
		tb.Fatal(err)
	}
	for _, e := range golden.Entries {
		objects = append(objects, e.Object)
	}
	for i := range objects {
		b, err := AppendObjectState(nil, &objects[i])
		if err != nil {
			tb.Fatal(err)
		}
		frames = append(frames, b)
	}
	var seeds [][]byte
	for _, f := range frames {
		for i := 0; i <= len(f); i++ {
			seeds = append(seeds, f[:i])
		}
	}
	return seeds
}

func FuzzAIDAFrames(f *testing.F) {
	for _, s := range aidaFrameSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(checkAIDAFrames)
}
