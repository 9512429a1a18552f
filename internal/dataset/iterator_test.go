package dataset

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// patterned returns n records whose sizes cycle through sizes, each
// filled with bytes derived from its index.
func patterned(n int, sizes ...int) [][]byte {
	recs := make([][]byte, n)
	for i := range recs {
		recs[i] = make([]byte, sizes[i%len(sizes)])
		for j := range recs[i] {
			recs[i][j] = byte(i*7 + j)
		}
	}
	return recs
}

// checkIter reads [from, to) through Iter and compares it with want.
func checkIter(t *testing.T, r *Reader, want [][]byte, from, to int64) {
	t.Helper()
	it, err := r.Iter(from, to)
	if err != nil {
		t.Fatalf("Iter(%d,%d): %v", from, to, err)
	}
	for i := from; i < to; i++ {
		rec, err := it.Next()
		if err != nil {
			t.Fatalf("Iter(%d,%d) record %d: %v", from, to, i, err)
		}
		if !bytes.Equal(rec, want[i]) {
			t.Fatalf("Iter(%d,%d) record %d = %x, want %x", from, to, i, rec, want[i])
		}
		if cap(rec) != len(rec) {
			t.Fatalf("record %d has cap %d > len %d: an append would overwrite the next record", i, cap(rec), len(rec))
		}
	}
	if rec, err := it.Next(); err != io.EOF {
		t.Fatalf("Iter(%d,%d) past the range: %x, %v; want EOF", from, to, rec, err)
	}
}

// Every refill edge falls inside a length prefix (one- and two-byte
// varints), inside a payload, on a record boundary, and among empty
// records for some block size in the sweep.
func TestIterAcrossRefillEdges(t *testing.T) {
	sets := map[string][][]byte{
		"mixed": patterned(60, 0, 1, 5, 0, 127, 128, 3, 200, 0, 17, 300, 2),
		"empty": patterned(200, 0),
	}
	for name, recs := range sets {
		t.Run(name, func(t *testing.T) {
			r := build(t, recs, 5)
			for size := 1; size <= 70; size++ {
				setBlockSize(t, size)
				checkIter(t, r, recs, 0, int64(len(recs)))
			}
		})
	}
}

// A record larger than the block gets a buffer of its own; the block the
// iterator refills stays its configured size.
func TestIterRecordLargerThanBlock(t *testing.T) {
	setBlockSize(t, 32)
	recs := patterned(6, 3, 1000, 4, 5000, 0, 9)
	r := build(t, recs, 64)
	it, err := r.Iter(0, -1)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range recs {
		rec, err := it.Next()
		if err != nil || !bytes.Equal(rec, want) {
			t.Fatalf("record %d: %d bytes, %v; want %d bytes", i, len(rec), err, len(want))
		}
		if cap(it.block) != 32 {
			t.Fatalf("after record %d the block has cap %d, want 32", i, cap(it.block))
		}
	}
	if _, err := it.Next(); err != io.EOF {
		t.Fatalf("past the end: %v", err)
	}
}

// Iter at every start within a stride and beyond it, with records of
// four bytes so that refills begin on record boundaries.
func TestIterEveryStartInStride(t *testing.T) {
	const stride = 8
	recs := patterned(40, 3)
	r := build(t, recs, stride)
	for _, size := range []int{4, 12, 16} {
		setBlockSize(t, size)
		for from := int64(0); from <= 2*stride; from++ {
			for to := from; to <= int64(len(recs)); to++ {
				checkIter(t, r, recs, from, to)
			}
		}
	}
}

// countingFile counts the bytes each ReadAt asks for.
type countingFile struct {
	memFile
	read int
}

func (c *countingFile) ReadAt(p []byte, off int64) (int, error) {
	c.read += len(p)
	return c.memFile.ReadAt(p, off)
}

// Random access skips through a stride by length prefixes alone: it
// never reads a whole block.
func TestRandomAccessReadsOnlyPrefixes(t *testing.T) {
	const stride = 64
	recs := patterned(stride, 100)
	b := encode(t, recs, stride)
	f := &countingFile{memFile: memFile{b}}
	r, err := NewReader(f, int64(len(b)))
	if err != nil {
		t.Fatal(err)
	}
	f.read = 0
	if _, err := r.OffsetOf(stride - 1); err != nil {
		t.Fatal(err)
	}
	if max := (stride - 1) * binary.MaxVarintLen64; f.read > max {
		t.Fatalf("OffsetOf(%d) read %d bytes, want ≤ %d", stride-1, f.read, max)
	}
	f.read = 0
	rec, err := r.Record(stride - 1)
	if err != nil || !bytes.Equal(rec, recs[stride-1]) {
		t.Fatalf("Record(%d) = %x, %v", stride-1, rec, err)
	}
	if max := stride*binary.MaxVarintLen64 + len(rec); f.read > max {
		t.Fatalf("Record(%d) read %d bytes, want ≤ %d", stride-1, f.read, max)
	}
}

// Records a caller got from Record stay intact while others are read.
func TestRecordBytesAreTheCallers(t *testing.T) {
	recs := patterned(10, 5, 300)
	r := build(t, recs, 4)
	var got [][]byte
	for i := range recs {
		rec, err := r.Record(int64(i))
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, rec)
	}
	for i := range recs {
		if !bytes.Equal(got[i], recs[i]) {
			t.Fatalf("Record(%d) changed after later reads", i)
		}
	}
}

func TestNextAllocatesNothingPerRecord(t *testing.T) {
	recs := patterned(2000, 40, 90, 0)
	r := build(t, recs, DefaultIndexEvery)
	it, err := r.Iter(0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, err := it.Next(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Next allocates %.1f times per record", allocs)
	}
}

// A file that shrinks under an open reader ends iteration in ErrCorrupt at
// the first missing byte, wherever the cut falls.
func TestTruncatedFileIsCorrupt(t *testing.T) {
	setBlockSize(t, 16)
	recs := patterned(12, 0, 9, 130)
	b := encode(t, recs, 3)
	end, err := build(t, recs, 3).OffsetOf(int64(len(recs)))
	if err != nil {
		t.Fatal(err)
	}
	for cut := int64(len(magic)); cut < end; cut++ {
		f := &memFile{b}
		r, err := NewReader(f, int64(len(b)))
		if err != nil {
			t.Fatal(err)
		}
		f.b = b[:cut]
		it, err := r.Iter(0, -1)
		for err == nil {
			_, err = it.Next()
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("file cut at %d of %d: iteration ended with %v, want ErrCorrupt", cut, end, err)
		}
	}
}
