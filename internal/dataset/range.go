package dataset

import (
	"fmt"
	"hash/crc32"
	"io"
)

// RangeReader reads a run of records cut out of another container — the
// bytes from one record's length prefix to the end of a later record — as
// a standalone container: the magic, the record bytes exactly as they
// arrive, then an index and a trailer rebuilt from the length prefixes
// that passed through. Nothing is decoded or re-encoded, so re-framing a
// range costs one read and one write of its bytes plus the CRC over its
// payloads. A range of a resident container (Open) is written by WriteTo
// straight from the mapping, once its framing and CRC have been checked.
//
// The source must deliver exactly the announced byte count, and those
// bytes must hold exactly the announced record count and end on a record
// boundary; a short, misframed or miscounted range is ErrCorrupt.
type RangeReader struct {
	src     io.Reader
	left    int64  // record bytes still to come from src
	records int64  // records the range must hold
	out     []byte // container bytes due before (magic) or after (tail) the records
	tailed  bool
	err     error
	scan    rangeScan
	// mem is the range's record bytes when they are resident and no Read
	// has started; WriteTo then writes them from where they lie.
	mem []byte
}

// NewRangeReader re-frames the n record bytes src delivers, which must
// hold exactly records records, as a standalone container.
func NewRangeReader(src io.Reader, n, records int64) *RangeReader {
	r := &RangeReader{src: src, left: n, records: records, out: magic[:]}
	r.scan.off = int64(len(magic))
	return r
}

// Range returns records [from, to) of r as a standalone container,
// re-framed from the byte range they occupy.
func (r *Reader) Range(from, to int64) (*RangeReader, error) {
	if from < 0 || to > r.count || from > to {
		return nil, fmt.Errorf("dataset: bad range [%d,%d) of %d", from, to, r.count)
	}
	start, err := r.OffsetOf(from)
	if err != nil {
		return nil, err
	}
	end, err := r.OffsetOf(to)
	if err != nil {
		return nil, err
	}
	rr := NewRangeReader(io.NewSectionReader(r.ra, start, end-start), end-start, to-from)
	if r.mem != nil {
		rr.mem = r.mem[start:end]
	}
	return rr, nil
}

// WriteTo writes the container to w. A resident range is scanned whole
// (framing checked, CRC computed) before any of it is written, and then
// written from the mapping in one Write; any other range is copied
// through Read.
func (r *RangeReader) WriteTo(w io.Writer) (int64, error) {
	body := r.mem
	if body == nil {
		return io.Copy(w, struct{ io.Reader }{r})
	}
	r.mem, r.left = nil, 0
	if r.err = r.scan.feed(body); r.err == nil {
		r.err = r.scan.finish(r.records)
	}
	if r.err != nil {
		return 0, r.err
	}
	var n int64
	for _, b := range [][]byte{r.out, body, r.scan.tail()} {
		m, err := w.Write(b)
		n += int64(m)
		if err != nil {
			r.err = err
			return n, err
		}
	}
	r.out, r.tailed = nil, true
	return n, nil
}

// Read reads record bytes straight from the source into p, noting their
// framing on the way.
func (r *RangeReader) Read(p []byte) (int, error) {
	r.mem = nil
	if len(p) == 0 {
		return 0, nil
	}
	for r.err == nil {
		if len(r.out) > 0 {
			n := copy(p, r.out)
			r.out = r.out[n:]
			return n, nil
		}
		if r.left > 0 {
			n, err := r.src.Read(p[:min(int64(len(p)), r.left)])
			r.left -= int64(n)
			switch {
			case err != nil && err != io.EOF:
				r.err = err
			case err == io.EOF && r.left > 0:
				r.err = fmt.Errorf("%w: range source ended %d bytes short", ErrCorrupt, r.left)
			default:
				r.err = r.scan.feed(p[:n])
			}
			if r.err == nil && n > 0 {
				return n, nil
			}
			continue
		}
		if r.tailed {
			return 0, io.EOF
		}
		if r.err = r.scan.finish(r.records); r.err == nil {
			r.out, r.tailed = r.scan.tail(), true
		}
	}
	return 0, r.err
}

// rangeScan follows the record framing of a byte stream as it passes: it
// notes the container offset of every DefaultIndexEvery-th record, counts
// records and payload bytes, and folds payloads into the CRC.
type rangeScan struct {
	off      int64  // container offset of the next byte
	left     int64  // payload bytes of the current record still to come
	v        uint64 // length prefix being decoded
	shift    uint
	inPrefix bool
	count    int64
	payload  int64
	crc      uint32
	index    []uint64
}

func (s *rangeScan) feed(b []byte) error {
	for len(b) > 0 {
		if s.left > 0 {
			k := min(s.left, int64(len(b)))
			s.crc = crc32.Update(s.crc, crc32.IEEETable, b[:k])
			s.left -= k
			s.off += k
			b = b[k:]
			continue
		}
		if !s.inPrefix {
			if s.count%DefaultIndexEvery == 0 {
				s.index = append(s.index, uint64(s.off))
			}
			s.inPrefix, s.v, s.shift = true, 0, 0
		}
		c := b[0]
		b = b[1:]
		s.off++
		// binary.Uvarint's overflow rule: a tenth byte holds one bit.
		if s.shift == 63 && c > 1 {
			return fmt.Errorf("%w: length prefix of record %d overflows", ErrCorrupt, s.count)
		}
		s.v |= uint64(c&0x7f) << s.shift
		if c >= 0x80 {
			s.shift += 7
			continue
		}
		if s.v > MaxRecordSize {
			return fmt.Errorf("%w: record %d has length %d", ErrCorrupt, s.count, s.v)
		}
		s.left, s.inPrefix = int64(s.v), false
		s.count++
		s.payload += s.left
	}
	return nil
}

// finish checks that the stream ended on a record boundary after exactly
// records records.
func (s *rangeScan) finish(records int64) error {
	if s.inPrefix || s.left > 0 {
		return fmt.Errorf("%w: range ends inside a record", ErrCorrupt)
	}
	if s.count != records {
		return fmt.Errorf("%w: range holds %d records, want %d", ErrCorrupt, s.count, records)
	}
	return nil
}

// tail returns the index and trailer that close the scanned records.
func (s *rangeScan) tail() []byte {
	return appendTail(nil, s.index, s.off, DefaultIndexEvery, s.count, s.payload, s.crc)
}
