package dataset

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

// memFile adapts a bytes.Buffer into an io.ReaderAt.
type memFile struct{ b []byte }

func (m *memFile) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(m.b)) {
		return 0, io.EOF
	}
	n := copy(p, m.b[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// encode writes records into a container with the given index stride.
func encode(t testing.TB, records [][]byte, stride uint32) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriterStride(&buf, stride)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range records {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func build(t testing.TB, records [][]byte, stride uint32) *Reader {
	t.Helper()
	b := encode(t, records, stride)
	r, err := NewReader(&memFile{b}, int64(len(b)))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRoundTrip(t *testing.T) {
	recs := [][]byte{[]byte("alpha"), []byte(""), []byte("gamma gamma"), {0, 1, 2, 255}}
	r := build(t, recs, 2)
	if r.NumRecords() != int64(len(recs)) {
		t.Fatalf("NumRecords = %d, want %d", r.NumRecords(), len(recs))
	}
	for i, want := range recs {
		got, err := r.Record(int64(i))
		if err != nil {
			t.Fatalf("Record(%d): %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Record(%d) = %q, want %q", i, got, want)
		}
	}
	if err := r.VerifyChecksum(); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyContainer(t *testing.T) {
	r := build(t, nil, 64)
	if r.NumRecords() != 0 {
		t.Fatalf("NumRecords = %d, want 0", r.NumRecords())
	}
	it, err := r.Iter(0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := it.Next(); err != io.EOF {
		t.Fatalf("Next on empty = %v, want EOF", err)
	}
}

func TestIteratorRange(t *testing.T) {
	var recs [][]byte
	for i := 0; i < 100; i++ {
		recs = append(recs, []byte(fmt.Sprintf("record-%03d", i)))
	}
	r := build(t, recs, 7) // stride that doesn't divide the boundaries
	it, err := r.Iter(33, 66)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for i := 33; ; i++ {
		rec, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("record-%03d", i); string(rec) != want {
			t.Fatalf("record %d = %q, want %q", i, rec, want)
		}
		n++
	}
	if n != 33 {
		t.Fatalf("iterated %d records, want 33", n)
	}
}

func TestIterBadRanges(t *testing.T) {
	r := build(t, [][]byte{[]byte("x")}, 64)
	for _, c := range []struct{ from, to int64 }{{-1, 0}, {0, 2}, {1, 0}} {
		if _, err := r.Iter(c.from, c.to); err == nil {
			t.Fatalf("Iter(%d,%d) accepted", c.from, c.to)
		}
	}
}

func TestRecordOutOfRange(t *testing.T) {
	r := build(t, [][]byte{[]byte("x")}, 64)
	if _, err := r.Record(1); err == nil {
		t.Fatal("Record(1) of 1-record file accepted")
	}
	if _, err := r.Record(-1); err == nil {
		t.Fatal("Record(-1) accepted")
	}
}

func TestOffsetOfMonotonic(t *testing.T) {
	var recs [][]byte
	for i := 0; i < 50; i++ {
		recs = append(recs, bytes.Repeat([]byte{byte(i)}, i%17))
	}
	r := build(t, recs, 8)
	prev := int64(-1)
	for i := int64(0); i <= r.NumRecords(); i++ {
		off, err := r.OffsetOf(i)
		if err != nil {
			t.Fatal(err)
		}
		if off <= prev {
			t.Fatalf("OffsetOf(%d) = %d not monotonic (prev %d)", i, off, prev)
		}
		prev = off
	}
}

func TestCorruptMagic(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Append([]byte("hi"))
	w.Close()
	b := buf.Bytes()
	b[0] = 'X'
	if _, err := NewReader(&memFile{b}, int64(len(b))); err == nil {
		t.Fatal("corrupt magic accepted")
	}
}

func TestCorruptTrailer(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Append([]byte("hi"))
	w.Close()
	b := buf.Bytes()
	b[len(b)-1] ^= 0xff
	if _, err := NewReader(&memFile{b}, int64(len(b))); err == nil {
		t.Fatal("corrupt trailer accepted")
	}
}

// A length prefix that points past the last record must not read the
// index and trailer as payload.
func TestLengthPastRecordsIsCorrupt(t *testing.T) {
	b := encode(t, [][]byte{[]byte("aaaa"), []byte("bbbb"), []byte("cccc")}, 64)
	last := len(magic) + 2*5 // magic, then two 1+4-byte records
	if b[last] != 4 {
		t.Fatalf("byte %d = %d, want the last record's length 4", last, b[last])
	}
	b[last] = 12
	r, err := NewReader(&memFile{b}, int64(len(b)))
	if err != nil {
		t.Fatal(err)
	}
	it, err := r.Iter(0, -1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := it.Next(); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	if rec, err := it.Next(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("overlong last record: %q, %v; want ErrCorrupt", rec, err)
	}
	if rec, err := r.Record(2); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Record(2) = %q, %v; want ErrCorrupt", rec, err)
	}
}

// A trailer whose indexCount*8 wraps to the right size must be refused,
// not turned into a huge allocation.
func TestWrappingIndexCountIsCorrupt(t *testing.T) {
	var tr [trailerSize]byte
	binary.BigEndian.PutUint64(tr[0:8], uint64(len(magic))) // indexOff
	binary.BigEndian.PutUint64(tr[8:16], 1<<61)             // indexCount: ×8 wraps to 0
	binary.BigEndian.PutUint32(tr[16:20], 1)                // indexEvery
	binary.BigEndian.PutUint64(tr[20:28], 1<<61)            // recordCount
	copy(tr[40:48], trailerMagic[:])
	b := append(magic[:], tr[:]...)
	if _, err := NewReader(&memFile{b}, int64(len(b))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("NewReader = %v, want ErrCorrupt", err)
	}
}

func TestChecksumDetectsFlippedBit(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	payload := bytes.Repeat([]byte("data"), 100)
	w.Append(payload)
	w.Close()
	b := buf.Bytes()
	b[20] ^= 1 // flip a payload bit
	r, err := NewReader(&memFile{b}, int64(len(b)))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.VerifyChecksum(); err == nil {
		t.Fatal("flipped payload bit not detected")
	}
}

func TestTooSmall(t *testing.T) {
	if _, err := NewReader(&memFile{[]byte("tiny")}, 4); err == nil {
		t.Fatal("4-byte file accepted")
	}
}

func TestAppendAfterClose(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Close()
	if err := w.Append([]byte("late")); err == nil {
		t.Fatal("append after close accepted")
	}
}

func TestFileHelpers(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ds.ipa")
	w, closer, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := w.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := closer(); err != nil {
		t.Fatal(err)
	}
	r, f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if r.NumRecords() != 10 {
		t.Fatalf("NumRecords = %d", r.NumRecords())
	}
	rec, err := r.Record(7)
	if err != nil || rec[0] != 7 {
		t.Fatalf("Record(7) = %v, %v", rec, err)
	}
}

func TestOpenMissing(t *testing.T) {
	if _, _, err := Open(filepath.Join(t.TempDir(), "nope.ipa")); err == nil {
		t.Fatal("missing file opened")
	}
}

func TestOpenNotAContainer(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk")
	if err := os.WriteFile(path, bytes.Repeat([]byte("junk"), 100), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(path); err == nil {
		t.Fatal("junk file accepted as container")
	}
}

// Property: any slice of random records survives a round trip with every
// stride, in order, under both random and sequential access.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8, stride uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%60) + 1
		st := uint32(stride%16) + 1
		recs := make([][]byte, count)
		for i := range recs {
			recs[i] = make([]byte, rng.Intn(200))
			rng.Read(recs[i])
		}
		r := build(t, recs, st)
		if r.NumRecords() != int64(count) {
			return false
		}
		// Sequential.
		it, err := r.Iter(0, -1)
		if err != nil {
			return false
		}
		for i := 0; ; i++ {
			rec, err := it.Next()
			if err == io.EOF {
				if i != count {
					return false
				}
				break
			}
			if err != nil || !bytes.Equal(rec, recs[i]) {
				return false
			}
		}
		// Random access at a few indices.
		for _, i := range []int{0, count / 2, count - 1} {
			rec, err := r.Record(int64(i))
			if err != nil || !bytes.Equal(rec, recs[i]) {
				return false
			}
		}
		return r.VerifyChecksum() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
