// Package dataset implements the record container format used by IPA.
//
// The paper targets "record or event based" data where "the same analysis is
// to be performed on each event" (§1) and datasets "can be split and where
// the analysis results can be logically merged". The container is therefore
// a flat sequence of opaque, length-prefixed records plus a sparse offset
// index so a splitter can cut the file at exact record boundaries without
// scanning it (§3.4), and a CRC so staging can be verified end to end.
//
// Layout:
//
//	magic "IPADS1\x00\x00"                          (8 bytes)
//	records: uvarint length ‖ payload               (repeated)
//	index:   uint64 offset of record 0, K, 2K, …    (big endian)
//	trailer: indexOff, indexCount, indexEvery,
//	         recordCount, payloadBytes, crc32, magic (48 bytes)
//
// The trailer lives at the end so writers stream sequentially; readers need
// io.ReaderAt (a file) and start from the last 48 bytes.
//
// Sequential reads go through an Iterator, which refills one reusable
// block with a single ReadAt and hands out records as sub-slices of it. A
// record from Iterator.Next is therefore valid only until the next call
// to Next; a caller that keeps one copies it. Reader.Record returns bytes
// the caller owns.
package dataset

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
)

var (
	magic        = [8]byte{'I', 'P', 'A', 'D', 'S', '1', 0, 0}
	trailerMagic = [8]byte{'I', 'P', 'A', 'T', 'R', '1', 0, 0}
)

const (
	trailerSize = 8 + 8 + 4 + 8 + 8 + 4 + 8
	// DefaultIndexEvery is the sparse-index stride: one offset entry per
	// this many records. 64 keeps the index ~0.1% of typical event files
	// while bounding a seek's forward scan.
	DefaultIndexEvery = 64
	// MaxRecordSize guards readers against corrupt length prefixes.
	MaxRecordSize = 1 << 30
)

// blockSize is how many bytes one sequential refill reads: for ~1 KB
// event records, one ReadAt per ~250 records.
var blockSize = 256 << 10

// ErrCorrupt is returned when magic numbers, sizes, or checksums disagree.
var ErrCorrupt = errors.New("dataset: corrupt container")

// Writer streams records into a container.
type Writer struct {
	w          *bufio.Writer
	underlying io.Writer
	off        int64
	count      int64
	payload    int64
	indexEvery uint32
	index      []uint64
	crc        uint32
	closed     bool
	err        error
	varintBuf  [binary.MaxVarintLen64]byte
}

// NewWriter begins a container on w with the default index stride.
func NewWriter(w io.Writer) (*Writer, error) {
	return NewWriterStride(w, DefaultIndexEvery)
}

// NewWriterStride begins a container with an explicit index stride.
func NewWriterStride(w io.Writer, indexEvery uint32) (*Writer, error) {
	if indexEvery == 0 {
		return nil, errors.New("dataset: indexEvery must be ≥ 1")
	}
	dw := &Writer{w: bufio.NewWriterSize(w, 1<<16), underlying: w, indexEvery: indexEvery}
	if _, err := dw.w.Write(magic[:]); err != nil {
		return nil, err
	}
	dw.off = int64(len(magic))
	return dw, nil
}

// Append writes one record. Records may be empty but not nil-length-bounded.
func (w *Writer) Append(record []byte) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return errors.New("dataset: append after Close")
	}
	if len(record) > MaxRecordSize {
		return fmt.Errorf("dataset: record of %d bytes exceeds max %d", len(record), MaxRecordSize)
	}
	if w.count%int64(w.indexEvery) == 0 {
		w.index = append(w.index, uint64(w.off))
	}
	n := binary.PutUvarint(w.varintBuf[:], uint64(len(record)))
	if _, err := w.w.Write(w.varintBuf[:n]); err != nil {
		w.err = err
		return err
	}
	if _, err := w.w.Write(record); err != nil {
		w.err = err
		return err
	}
	w.crc = crc32.Update(w.crc, crc32.IEEETable, record)
	w.off += int64(n) + int64(len(record))
	w.count++
	w.payload += int64(len(record))
	return nil
}

// Count returns the number of records appended so far.
func (w *Writer) Count() int64 { return w.count }

// Close writes the index and trailer. The underlying writer is not closed.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return nil
	}
	w.closed = true
	indexOff := w.off
	var buf [8]byte
	for _, o := range w.index {
		binary.BigEndian.PutUint64(buf[:], o)
		if _, err := w.w.Write(buf[:]); err != nil {
			w.err = err
			return err
		}
	}
	var tr [trailerSize]byte
	binary.BigEndian.PutUint64(tr[0:8], uint64(indexOff))
	binary.BigEndian.PutUint64(tr[8:16], uint64(len(w.index)))
	binary.BigEndian.PutUint32(tr[16:20], w.indexEvery)
	binary.BigEndian.PutUint64(tr[20:28], uint64(w.count))
	binary.BigEndian.PutUint64(tr[28:36], uint64(w.payload))
	binary.BigEndian.PutUint32(tr[36:40], w.crc)
	copy(tr[40:48], trailerMagic[:])
	if _, err := w.w.Write(tr[:]); err != nil {
		w.err = err
		return err
	}
	return w.w.Flush()
}

// Reader provides random and sequential access to a container.
type Reader struct {
	ra         io.ReaderAt
	count      int64
	payload    int64
	crc        uint32
	indexEvery uint32
	index      []uint64
	indexOff   int64
}

// NewReader opens a container from a random-access byte source.
func NewReader(ra io.ReaderAt, size int64) (*Reader, error) {
	if size < int64(len(magic))+trailerSize {
		return nil, fmt.Errorf("%w: %d bytes is too small", ErrCorrupt, size)
	}
	var head [8]byte
	if _, err := ra.ReadAt(head[:], 0); err != nil {
		return nil, err
	}
	if head != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, head[:])
	}
	var tr [trailerSize]byte
	if _, err := ra.ReadAt(tr[:], size-trailerSize); err != nil {
		return nil, err
	}
	if *(*[8]byte)(tr[40:48]) != trailerMagic {
		return nil, fmt.Errorf("%w: bad trailer magic", ErrCorrupt)
	}
	indexOff := binary.BigEndian.Uint64(tr[0:8])
	indexCount := binary.BigEndian.Uint64(tr[8:16])
	indexEvery := binary.BigEndian.Uint32(tr[16:20])
	count := binary.BigEndian.Uint64(tr[20:28])
	// The index fills the bytes between indexOff and the trailer exactly.
	// Every field is bounded by the file size before it is multiplied or
	// used as an allocation size.
	end := uint64(size - trailerSize)
	if indexEvery == 0 || indexOff < uint64(len(magic)) || indexOff > end ||
		(end-indexOff)%8 != 0 || indexCount != (end-indexOff)/8 || count > math.MaxInt64 {
		return nil, fmt.Errorf("%w: inconsistent trailer", ErrCorrupt)
	}
	want := count / uint64(indexEvery)
	if count%uint64(indexEvery) != 0 {
		want++
	}
	if indexCount != want {
		return nil, fmt.Errorf("%w: index has %d entries, want %d", ErrCorrupt, indexCount, want)
	}
	r := &Reader{
		ra:         ra,
		indexOff:   int64(indexOff),
		count:      int64(count),
		payload:    int64(binary.BigEndian.Uint64(tr[28:36])),
		crc:        binary.BigEndian.Uint32(tr[36:40]),
		indexEvery: indexEvery,
	}
	raw := make([]byte, indexCount*8)
	if _, err := ra.ReadAt(raw, r.indexOff); err != nil {
		return nil, err
	}
	r.index = make([]uint64, indexCount)
	prev := uint64(len(magic)) - 1
	for i := range r.index {
		// Entries are record starts: strictly increasing, before the index.
		o := binary.BigEndian.Uint64(raw[i*8:])
		if o <= prev || o >= indexOff {
			return nil, fmt.Errorf("%w: index entry %d is offset %d", ErrCorrupt, i, o)
		}
		r.index[i], prev = o, o
	}
	return r, nil
}

// NumRecords returns the record count.
func (r *Reader) NumRecords() int64 { return r.count }

// PayloadBytes returns the sum of record payload sizes.
func (r *Reader) PayloadBytes() int64 { return r.payload }

// CRC32 returns the stored IEEE checksum over all payloads.
func (r *Reader) CRC32() uint32 { return r.crc }

// OffsetOf returns the byte offset where record i begins; i == NumRecords
// gives the end of the last record.
func (r *Reader) OffsetOf(i int64) (int64, error) {
	if i < 0 || i > r.count {
		return 0, fmt.Errorf("dataset: record %d out of range [0,%d]", i, r.count)
	}
	it, err := r.seek(i, binary.MaxVarintLen64)
	if err != nil {
		return 0, err
	}
	return it.offset(), nil
}

// Record reads record i into a slice the caller owns.
func (r *Reader) Record(i int64) ([]byte, error) {
	if i < 0 || i >= r.count {
		return nil, fmt.Errorf("dataset: record %d out of range [0,%d)", i, r.count)
	}
	it, err := r.seek(i, binary.MaxVarintLen64)
	if err != nil {
		return nil, err
	}
	// The iterator goes out of scope here, so its buffer is the caller's.
	return it.Next()
}

// Iter returns an iterator positioned at record from (inclusive),
// stopping before record to (exclusive). to == -1 means "to the end".
func (r *Reader) Iter(from, to int64) (*Iterator, error) {
	if to == -1 {
		to = r.count
	}
	if from < 0 || to > r.count || from > to {
		return nil, fmt.Errorf("dataset: bad range [%d,%d) of %d", from, to, r.count)
	}
	it, err := r.seek(from, blockSize)
	if err != nil {
		return nil, err
	}
	it.stop = to
	return it, nil
}

// seek returns an iterator at record i (0 ≤ i ≤ count) whose refills read
// at least window bytes. It starts at the nearest index entry and skips
// forward by length prefixes, so with a window of one varint a random
// access reads only the prefixes it crosses.
func (r *Reader) seek(i int64, window int) (*Iterator, error) {
	it := &Iterator{r: r, next: r.count, stop: r.count, base: r.indexOff, window: window}
	if i < r.count {
		slot := i / int64(r.indexEvery)
		it.next, it.base = slot*int64(r.indexEvery), int64(r.index[slot])
	}
	for it.next < i {
		if err := it.skip(); err != nil {
			return nil, err
		}
	}
	return it, nil
}

// VerifyChecksum re-reads every record and compares the running CRC with the
// trailer value.
func (r *Reader) VerifyChecksum() error {
	it, err := r.Iter(0, r.count)
	if err != nil {
		return err
	}
	var crc uint32
	for {
		rec, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		crc = crc32.Update(crc, crc32.IEEETable, rec)
	}
	if crc != r.crc {
		return fmt.Errorf("%w: checksum %08x, trailer says %08x", ErrCorrupt, crc, r.crc)
	}
	return nil
}

// Iterator walks records sequentially through one reusable block: a
// refill is a single ReadAt of at least the block size, and records are
// handed out as sub-slices of it. Records end at the index, never in it.
type Iterator struct {
	r      *Reader
	next   int64  // index of the record Next returns
	stop   int64  // Next returns io.EOF from this index on
	window int    // bytes one refill reads at least
	block  []byte // the reusable refill buffer, window bytes
	// buf holds the file bytes [base, base+len(buf)); pos is the read
	// position within it and may run past its end after a skip.
	buf  []byte
	base int64
	pos  int
}

// Index returns the index of the record that Next will return.
func (it *Iterator) Index() int64 { return it.next }

// Next returns the next record, or io.EOF past the end of the range. The
// slice aliases the iterator's block and is valid only until the next
// call to Next; copy it to keep it.
func (it *Iterator) Next() ([]byte, error) {
	if it.next >= it.stop {
		return nil, io.EOF
	}
	hdr, length, err := it.header()
	if err != nil {
		return nil, err
	}
	if err := it.fill(hdr + length); err != nil {
		return nil, err
	}
	start := it.pos + hdr
	it.pos = start + length
	it.next++
	return it.buf[start:it.pos:it.pos], nil
}

// skip advances past one record without reading its payload.
func (it *Iterator) skip() error {
	hdr, length, err := it.header()
	if err != nil {
		return err
	}
	it.pos += hdr + length
	it.next++
	return nil
}

func (it *Iterator) offset() int64 { return it.base + int64(it.pos) }

// header decodes the length prefix at the read position and checks that
// the record it announces ends before the index.
func (it *Iterator) header() (hdr, length int, err error) {
	off := it.offset()
	rest := it.r.indexOff - off
	if rest <= 0 {
		return 0, 0, fmt.Errorf("%w: record %d starts at offset %d, past the records' end %d",
			ErrCorrupt, it.next, off, it.r.indexOff)
	}
	if err := it.fill(int(min(rest, binary.MaxVarintLen64))); err != nil {
		return 0, 0, err
	}
	v, hdr := binary.Uvarint(it.buf[it.pos:])
	if hdr <= 0 {
		return 0, 0, fmt.Errorf("%w: bad varint at offset %d", ErrCorrupt, off)
	}
	if v > MaxRecordSize || int64(hdr)+int64(v) > rest {
		return 0, 0, fmt.Errorf("%w: record %d at offset %d has length %d, past the records' end %d",
			ErrCorrupt, it.next, off, v, it.r.indexOff)
	}
	return hdr, int(v), nil
}

// fill makes the n bytes at the read position resident, which the caller
// has checked end by the index. A refill keeps the unread tail and reads
// max(n, window) bytes, never past the index; a record larger than the
// block gets a buffer of its own that the next refill drops.
func (it *Iterator) fill(n int) error {
	if it.pos+n <= len(it.buf) {
		return nil
	}
	off := it.offset()
	size := int(min(int64(max(n, it.window)), it.r.indexOff-off))
	if it.block == nil {
		it.block = make([]byte, it.window)
	}
	buf := it.block
	if size > cap(buf) {
		buf = make([]byte, size)
	}
	kept := 0
	if it.pos < len(it.buf) {
		kept = copy(buf, it.buf[it.pos:])
	}
	it.buf, it.base, it.pos = buf[:kept], off, 0
	m, err := it.r.ra.ReadAt(buf[kept:size], off+int64(kept))
	if m < size-kept {
		if err == nil || err == io.EOF {
			return fmt.Errorf("%w: truncated at offset %d", ErrCorrupt, off+int64(kept+m))
		}
		return fmt.Errorf("dataset: reading at offset %d: %w", off+int64(kept), err)
	}
	it.buf = buf[:size]
	return nil
}

// Create opens path for writing and returns a container writer plus a
// closer that finalizes both the container and the file.
func Create(path string) (*Writer, func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	w, err := NewWriter(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	closer := func() error {
		if err := w.Close(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return w, closer, nil
}

// CreateRaw opens path as a plain byte sink with a closer — for callers
// (like the splitter) that drive their own container Writer over the file.
func CreateRaw(path string) (io.Writer, func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

// Open opens a container file for reading. Close the returned file when done.
func Open(path string) (*Reader, *os.File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	r, err := NewReader(f, st.Size())
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return r, f, nil
}
