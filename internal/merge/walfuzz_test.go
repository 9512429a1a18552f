package merge

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// scanRecords scans data as a log file and returns each complete
// record re-encoded in the v2 form (a canonical, NaN-stable identity
// for comparing records) plus the scanner's good offset.
func scanRecords(t *testing.T, data []byte) (recs [][]byte, good int64, err error) {
	_, good, err = scanFile(bytes.NewReader(data), func(rec *walRecord) error {
		b, err := appendRecord(nil, rec)
		if err != nil {
			t.Fatalf("record %d decoded but does not re-encode: %v", len(recs), err)
		}
		recs = append(recs, b)
		return nil
	})
	return recs, good, err
}

// walScanAllocBound is what one scan of n input bytes may allocate:
// the reader's fixed buffers, plus a constant factor of the input for
// the decoded records — never a corrupt length prefix's worth.
func walScanAllocBound(n int) uint64 { return 1<<20 + 256*uint64(n) }

// checkWALScan holds the record reader's contract on arbitrary input:
// no panic, allocation bounded by the input rather than by any
// declared length, and every prefix of the input scans to a prefix of
// the records the whole input yields.
func checkWALScan(t *testing.T, data []byte) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	recs, good, err := scanRecords(t, data)
	runtime.ReadMemStats(&ms)
	if alloc := ms.TotalAlloc - before; alloc > walScanAllocBound(len(data)) {
		t.Fatalf("scanning %d bytes allocated %d", len(data), alloc)
	}
	if err != nil {
		if len(recs) != 0 || good != 0 {
			t.Fatalf("header rejected (%v) after %d records to offset %d", err, len(recs), good)
		}
		return
	}
	if good < int64(len(walMagic)) || good > int64(len(data)) {
		t.Fatalf("good offset %d outside [%d, %d]", good, len(walMagic), len(data))
	}
	for _, cut := range []int64{good, good - 1, good / 2, int64(len(data)) - 1} {
		if cut < int64(len(walMagic)) {
			continue
		}
		sub, subGood, err := scanRecords(t, data[:cut])
		if err != nil {
			t.Fatalf("prefix %d lost the header: %v", cut, err)
		}
		if len(sub) > len(recs) || subGood > good {
			t.Fatalf("prefix %d scanned %d records to %d, whole input %d to %d", cut, len(sub), subGood, len(recs), good)
		}
		for i := range sub {
			if !bytes.Equal(sub[i], recs[i]) {
				t.Fatalf("prefix %d: record %d differs from the whole input's", cut, i)
			}
		}
		if cut == good && (len(sub) != len(recs) || subGood != good) {
			t.Fatalf("the good prefix scanned %d records to %d, want %d to %d", len(sub), subGood, len(recs), good)
		}
	}
}

// walScanSeeds returns the seed corpus: a v2 log of every record kind,
// the reserved fence and promotion kinds included, truncated at every
// offset; the v1 fixture truncated at every record
// edge, one byte either side of it, and every 64th byte (every offset
// of its 36 KB would make the seed run take half a minute); and both
// magics followed by random length prefixes, small to absurd.
func walScanSeeds(tb testing.TB) [][]byte {
	path := filepath.Join(tb.TempDir(), "seed.wal")
	w, err := OpenWAL(path, WALOptions{SyncEvery: 1 << 20})
	if err != nil {
		tb.Fatal(err)
	}
	m := NewManager()
	m.SetWAL(w)
	walFixtureOps(tb, m)
	for _, rec := range retiredRecords() {
		if _, err := w.append(rec); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	v2, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	v1, err := os.ReadFile(filepath.Join("testdata", "wal_v1.log"))
	if err != nil {
		tb.Fatal(err)
	}
	var seeds [][]byte
	for i := 0; i <= len(v2); i++ {
		seeds = append(seeds, v2[:i])
	}
	cuts := map[int]bool{len(v1): true}
	for i := 0; i < len(v1); i += 64 {
		cuts[i] = true
	}
	for off := len(walMagicV1); off < len(v1); {
		size, n := binary.Uvarint(v1[off:])
		if n <= 0 {
			break
		}
		for _, c := range []int{off - 1, off, off + 1, off + n} {
			cuts[c] = true
		}
		off += n + int(size)
	}
	for c := range cuts {
		if c >= 0 && c <= len(v1) {
			seeds = append(seeds, v1[:c])
		}
	}
	rng := rand.New(rand.NewSource(1))
	for _, magic := range []string{walMagic, walMagicV1} {
		for _, size := range []uint64{0, 1, 40, 4 << 10, 1 << 20, maxWALRecord, maxWALRecord + 1, 1<<64 - 1} {
			b := binary.AppendUvarint([]byte(magic), size)
			tail := make([]byte, rng.Intn(64))
			rng.Read(tail)
			seeds = append(seeds, append(b, tail...))
		}
	}
	return seeds
}

func FuzzWALScan(f *testing.F) {
	for _, s := range walScanSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(checkWALScan)
}
