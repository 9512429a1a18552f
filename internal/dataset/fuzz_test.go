package dataset

import (
	"encoding/binary"
	"errors"
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

// checkContainer holds the reader's contract on arbitrary bytes: no panic,
// every failure is ErrCorrupt, and allocation is bounded by the input.
func checkContainer(t *testing.T, data []byte) {
	corrupt := func(op string, err error) {
		t.Helper()
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: %v, want ErrCorrupt", op, err)
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	r, err := NewReader(&memFile{data}, int64(len(data)))
	if err != nil {
		corrupt("NewReader", err)
		return
	}
	it, err := r.Iter(0, -1)
	if err != nil {
		corrupt("Iter", err)
		return
	}
	for {
		_, err := it.Next()
		if err == io.EOF {
			if it.Index() != r.NumRecords() {
				t.Fatalf("EOF after %d of %d records", it.Index(), r.NumRecords())
			}
			break
		}
		if err != nil {
			corrupt("Next", err)
			break
		}
	}
	for _, i := range []int64{0, it.Index(), r.NumRecords() / 2, r.NumRecords()} {
		if _, err := r.OffsetOf(i); err != nil {
			corrupt("OffsetOf", err)
		}
	}
	if err := r.VerifyChecksum(); err != nil {
		corrupt("VerifyChecksum", err)
	}
	runtime.ReadMemStats(&ms)
	if alloc := ms.TotalAlloc - before; alloc > containerAllocBound(len(data)) {
		t.Fatalf("reading %d bytes allocated %d", len(data), alloc)
	}
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
