package dataset

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"
)

// fuzzBlock is the refill block during fuzzing: small, so that inputs of a
// few hundred bytes cross many refill edges.
const fuzzBlock = 64

// containerAllocBound is what opening and reading an n-byte container may
// allocate: the index twice (raw and decoded), at most every record
// again for each of the two sequential passes, one block per pass, and
// fixed overhead — never a corrupt length field's worth.
func containerAllocBound(n int) uint64 { return 64<<10 + 2*fuzzBlock + 16*uint64(n) }

// checkContainer holds the reader's contract on arbitrary bytes, read
// through a plain io.ReaderAt (the block path) and resident (the path Open
// takes over a mapping): no panic, every failure is ErrCorrupt, allocation
// is bounded by the input, and both paths return the same records and the
// same errors.
func checkContainer(t *testing.T, data []byte) {
	block := readContainer(t, "block", data, func() (*Reader, error) { return NewReader(&memFile{data}, int64(len(data))) })
	resident := readContainer(t, "resident", data, func() (*Reader, error) { return newResident(data) })
	if len(block) != len(resident) {
		t.Fatalf("block path logged %d steps, resident %d", len(block), len(resident))
	}
	for i := range block {
		if block[i] != resident[i] {
			t.Fatalf("step %d: block path %.60q, resident %.60q", i, block[i], resident[i])
		}
	}
}

// readContainer opens data with open, reads everything the reader
// offers, and returns a log of every record and every error it saw.
func readContainer(t *testing.T, path string, data []byte, open func() (*Reader, error)) []string {
	var log []string
	corrupt := func(op string, err error) {
		t.Helper()
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: %s: %v, want ErrCorrupt", path, op, err)
		}
		log = append(log, op+": "+err.Error())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	r, err := open()
	if err != nil {
		corrupt("open", err)
		return log
	}
	it, err := r.Iter(0, -1)
	if err != nil {
		corrupt("Iter", err)
		return log
	}
	for {
		rec, err := it.Next()
		if err == io.EOF {
			if it.Index() != r.NumRecords() {
				t.Fatalf("%s: EOF after %d of %d records", path, it.Index(), r.NumRecords())
			}
			break
		}
		if err != nil {
			corrupt("Next", err)
			break
		}
		log = append(log, string(rec))
	}
	for _, i := range []int64{0, it.Index(), r.NumRecords() / 2, r.NumRecords()} {
		if off, err := r.OffsetOf(i); err != nil {
			corrupt("OffsetOf", err)
		} else {
			log = append(log, fmt.Sprint("offset ", off))
		}
	}
	if err := r.VerifyChecksum(); err != nil {
		corrupt("VerifyChecksum", err)
	}
	// Re-framing all records either fails as corrupt or yields a container
	// that reads back with the same record count and a matching checksum.
	part, err := reframe(r, func(rr *RangeReader) ([]byte, error) { return io.ReadAll(rr) })
	if err != nil {
		corrupt("RangeReader", err)
	} else if pr, err := NewReader(&memFile{part}, int64(len(part))); err != nil {
		t.Fatalf("%s: re-framed container does not open: %v", path, err)
	} else if pr.NumRecords() != r.NumRecords() {
		t.Fatalf("%s: re-framed container holds %d records, want %d", path, pr.NumRecords(), r.NumRecords())
	} else if err := pr.VerifyChecksum(); err != nil {
		t.Fatalf("%s: re-framed container: %v", path, err)
	}
	runtime.ReadMemStats(&ms)
	if alloc := ms.TotalAlloc - before; alloc > containerAllocBound(len(data)) {
		t.Fatalf("%s: reading %d bytes allocated %d", path, len(data), alloc)
	}
	// WriteTo, resident or not, writes what the Read stream delivers.
	written, werr := reframe(r, func(rr *RangeReader) ([]byte, error) {
		var b bytes.Buffer
		_, err := rr.WriteTo(&b)
		return b.Bytes(), err
	})
	if fmt.Sprint(werr) != fmt.Sprint(err) || (err == nil && !bytes.Equal(written, part)) {
		t.Fatalf("%s: WriteTo gave %d bytes, %v; Read gave %d bytes, %v", path, len(written), werr, len(part), err)
	}
	return log
}

// reframe re-frames all of r's records and reads the container with read.
func reframe(r *Reader, read func(*RangeReader) ([]byte, error)) ([]byte, error) {
	rr, err := r.Range(0, r.NumRecords())
	if err != nil {
		return nil, err
	}
	return read(rr)
}

// containerSeeds returns a valid container cut at every offset, the same
// container with each length prefix and each trailer field set to edge
// values, and the wrapping-indexCount trailer on its own.
func containerSeeds(tb testing.TB) [][]byte {
	recs := patterned(9, 0, 3, 130, 1, 40)
	valid := encode(tb, recs, 4)
	var seeds [][]byte
	for i := 0; i <= len(valid); i++ {
		seeds = append(seeds, valid[:i])
	}
	mutated := func(at int, put func(b []byte)) {
		b := append([]byte(nil), valid...)
		put(b[at:])
		seeds = append(seeds, b)
	}
	off := len(magic)
	for _, rec := range recs {
		for _, v := range []byte{0, 1, 0x7f, 0x80, 0xff, byte(len(rec) + 8)} {
			mutated(off, func(b []byte) { b[0] = v })
		}
		off += len(binary.AppendUvarint(nil, uint64(len(rec)))) + len(rec)
	}
	tr := len(valid) - trailerSize
	for _, field := range []int{0, 8, 20, 28} {
		for _, v := range []uint64{0, 1, 8, 1 << 61, 1<<63 - 1, 1<<64 - 1} {
			mutated(tr+field, func(b []byte) { binary.BigEndian.PutUint64(b, v) })
		}
	}
	for _, v := range []uint32{0, 1, 3, 1<<32 - 1} {
		mutated(tr+16, func(b []byte) { binary.BigEndian.PutUint32(b, v) })
	}
	var wrap [trailerSize]byte
	binary.BigEndian.PutUint64(wrap[0:8], uint64(len(magic)))
	binary.BigEndian.PutUint64(wrap[8:16], 1<<61)
	binary.BigEndian.PutUint32(wrap[16:20], 1)
	binary.BigEndian.PutUint64(wrap[20:28], 1<<61)
	copy(wrap[40:48], trailerMagic[:])
	return append(seeds, append(magic[:], wrap[:]...))
}

func FuzzContainer(f *testing.F) {
	setBlockSize(f, fuzzBlock)
	for _, s := range containerSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(checkContainer)
}
