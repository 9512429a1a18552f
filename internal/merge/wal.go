// Durability: an optional append-only snapshot/delta log per manager.
// Every state-changing call the manager accepts (publish, mirror,
// import, reset, drop) appends one record, and a replay feeds the log
// back through the same entry points.
//
// Record format (ipawal2): a uvarint length, then a kind byte, a flags
// byte, a fixed binary header (session, worker, seq, epoch, version,
// events done/total, log text, trace context) and the payload. Publish
// and mirror payloads are the delta's plain version-1 aida frame
// (aida.AppendDeltaState) — no gob, no DEFLATE, and no compression
// policy is consulted. The frame is encoded once per accepted publish:
// a replicating router hands the primary's bytes down the replica
// chain (PublishReply.Frame → MirrorArgs.SetFrame), so every copy logs
// the same bytes verbatim and nothing is decoded or re-encoded on the
// in-process path. A manager called without the bytes (direct callers,
// RMI-served shards) encodes them itself, once, outside its write
// section. Import and snapshot records are binary too: each worker's
// tree as a length-prefixed aida tree frame, then removed paths and
// logs — no per-record gob type descriptors to outweigh small deltas.
//
// Logs written by the older ipawal1 format (one gob record per entry,
// deltas DEFLATE-compressed by whatever policy the sender attached)
// still replay: the scanner dispatches on the file's magic. Replay
// rewrites a v1 live log as v2 by compacting it, so the writer only
// ever writes v2.
//
// Compaction rotates the live log aside and re-seeds a fresh one with
// a full snapshot per session (Import-shaped) every CompactEvery delta
// records (4096 by default), so replay cost and log size track live
// state plus at most that many uncompressed deltas — about 2.2× the
// bytes the compressed v1 records took for the same tail. A torn tail
// — the record an OS crash cut mid-write — is detected by its length
// prefix, truncated, and replay stops at the last complete record: the
// state that syncs is a consistent prefix, and clients behind the lost
// tail re-sync through the version-regression path they already honor.

package merge

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sync"

	"github.com/ipa-grid/ipa/internal/aida"
	"github.com/ipa-grid/ipa/internal/obs"
)

// walMagic heads every log this package writes; walMagicV1 heads logs
// of the older gob-record format, which replay still reads.
const (
	walMagic   = "ipawal2\n"
	walMagicV1 = "ipawal1\n"
)

// Record kinds. Snapshot records carry the same Import-shaped payload
// as imports; the separate kind only marks compaction re-seeds. Kinds 7
// and 8 are reserved: older writers logged replica fences and promotions
// under them. Nothing writes them now, replay skips them, and they are
// never reused.
const (
	walPublish = 1 + iota
	walMirror
	walImport
	walSnapshot
	walReset
	walDrop
	walFence
	walPromote
)

// Record header flags. Bit 1 marked a publish that was once a legacy
// whole-tree snapshot; its payload is a full delta frame like any other
// baseline, so the writer no longer sets it and replay ignores it.
const walFlagTombstone = 1 << 0 // drop: leave a sealed shell

// maxWALRecord bounds a record's declared length; anything larger is a
// corrupt prefix and ends the scan like a torn tail.
const maxWALRecord = 1 << 31

// walRecord is one logged state change. Exactly one payload field is
// set, selected by Kind.
type walRecord struct {
	Kind      uint8
	Publish   *PublishArgs
	Mirror    *MirrorArgs
	Import    *ImportArgs
	Session   string
	Tombstone bool
	Epoch     int64
}

// walBufPool recycles record and frame scratch buffers. Only scratch:
// a frame that outlives the call is always an exact-size copy.
var walBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

func putWALBuf(bp *[]byte, b []byte) {
	if cap(b) > 1<<20 {
		return // one huge snapshot must not pin its buffer forever
	}
	*bp = b[:0]
	walBufPool.Put(bp)
}

// encodeFrame returns d's plain binary frame as an exact-size slice the
// caller owns — the bytes a publish or mirror record logs, shared
// read-only by every copy that logs the same delta.
func encodeFrame(d *aida.DeltaState) ([]byte, error) {
	bp := walBufPool.Get().(*[]byte)
	buf, err := aida.AppendDeltaState((*bp)[:0], d)
	var out []byte
	if err == nil {
		out = make([]byte, len(buf))
		copy(out, buf)
	}
	putWALBuf(bp, buf)
	return out, err
}

func appendWALString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendRecord appends rec's record body (everything after the length
// prefix) to dst. A publish or mirror without a frame attached is
// encoded straight into dst.
func appendRecord(dst []byte, rec *walRecord) ([]byte, error) {
	var (
		flags                            byte
		session, worker, log             string
		seq, epoch, version, done, total int64
		trace                            obs.TraceContext
		frame                            []byte
		delta                            *aida.DeltaState
	)
	switch rec.Kind {
	case walPublish:
		p := rec.Publish
		session, worker, seq, done, total, log, trace = p.SessionID, p.WorkerID, p.Seq, p.EventsDone, p.EventsTotal, p.Log, p.Trace
		frame, delta = p.frame, p.Delta
	case walMirror:
		a := rec.Mirror
		session, worker, seq, epoch, version = a.SessionID, a.WorkerID, a.Seq, a.Epoch, a.Version
		done, total, log, trace = a.EventsDone, a.EventsTotal, a.Log, a.Trace
		frame, delta = a.frame, a.Delta
	case walImport, walSnapshot:
		a := rec.Import
		session, epoch, version, trace.TraceID = a.SessionID, a.Epoch, a.Version, a.LastTraceID
	default:
		session, epoch = rec.Session, rec.Epoch
		if rec.Tombstone {
			flags |= walFlagTombstone
		}
	}
	dst = append(dst, rec.Kind, flags)
	dst = appendWALString(dst, session)
	dst = appendWALString(dst, worker)
	for _, v := range [...]int64{seq, epoch, version, done, total} {
		dst = binary.AppendVarint(dst, v)
	}
	dst = appendWALString(dst, log)
	dst = binary.AppendUvarint(dst, trace.TraceID)
	dst = binary.AppendUvarint(dst, trace.SpanID)
	dst = binary.AppendUvarint(dst, uint64(trace.Hop))
	switch {
	case frame != nil:
		return append(dst, frame...), nil
	case delta != nil:
		return aida.AppendDeltaState(dst, delta)
	case rec.Import != nil:
		return appendImport(dst, rec.Import)
	}
	return dst, nil
}

// appendImport appends an import or snapshot record's payload — what
// the header does not already carry of a.
func appendImport(dst []byte, a *ImportArgs) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(a.Workers)))
	for i := range a.Workers {
		ws := &a.Workers[i]
		dst = appendWALString(dst, ws.WorkerID)
		dst = binary.AppendVarint(dst, ws.Seq)
		dst = binary.AppendVarint(dst, ws.Done)
		dst = binary.AppendVarint(dst, ws.Total)
		if !ws.HasTree {
			dst = append(dst, 0)
			continue
		}
		// A length-prefixed tree frame: reserve the worst-case prefix,
		// then close the gap once the frame's size is known.
		dst = append(dst, 1)
		mark := len(dst)
		dst = append(dst, make([]byte, binary.MaxVarintLen64)...)
		var err error
		if dst, err = aida.AppendTreeState(dst, &ws.Tree); err != nil {
			return dst, err
		}
		size := len(dst) - mark - binary.MaxVarintLen64
		n := binary.PutUvarint(dst[mark:], uint64(size))
		dst = append(dst[:mark+n], dst[mark+binary.MaxVarintLen64:]...)
	}
	dst = binary.AppendUvarint(dst, uint64(len(a.Removed)))
	for _, rp := range a.Removed {
		dst = appendWALString(dst, rp.Path)
		dst = binary.AppendVarint(dst, rp.Version)
	}
	dst = binary.AppendUvarint(dst, uint64(len(a.Logs)))
	for _, l := range a.Logs {
		dst = binary.AppendVarint(dst, l.Version)
		dst = appendWALString(dst, l.Text)
	}
	return dst, nil
}

// walReader is a cursor over one record body; the first malformed read
// latches err and turns every later read into a no-op.
type walReader struct {
	b   []byte
	err error
}

var errWALShort = errors.New("merge: truncated log record")

func (r *walReader) byte() byte {
	if r.err != nil || len(r.b) == 0 {
		r.err = errWALShort
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *walReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.err = errWALShort
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *walReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.err = errWALShort
		return 0
	}
	r.b = r.b[n:]
	return v
}

// bytes reads a length-prefixed byte string, aliasing the body.
func (r *walReader) bytes() []byte {
	n := r.uvarint()
	if r.err != nil || n > uint64(len(r.b)) {
		r.err = errWALShort
		return nil
	}
	b := r.b[:n:n]
	r.b = r.b[n:]
	return b
}

func (r *walReader) str() string { return string(r.bytes()) }

// count reads a collection length, bounded by the bytes left (each
// element takes at least minSize) so a corrupt count cannot drive a
// huge allocation.
func (r *walReader) count(minSize int) int {
	n := r.uvarint()
	if r.err == nil && n > uint64(len(r.b)/minSize) {
		r.err = errWALShort
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// importPayload parses appendImport's payload into a.
func (r *walReader) importPayload(a *ImportArgs) {
	if n := r.count(5); n > 0 { // ID length, three varints, tree flag
		a.Workers = make([]WorkerSnapshot, n)
	}
	for i := range a.Workers {
		ws := &a.Workers[i]
		ws.WorkerID = r.str()
		ws.Seq, ws.Done, ws.Total = r.varint(), r.varint(), r.varint()
		if ws.HasTree = r.byte() != 0; ws.HasTree {
			frame := r.bytes()
			if r.err != nil {
				return
			}
			st, err := aida.DecodeTreeState(frame)
			if err != nil {
				r.err = err
				return
			}
			ws.Tree = *st
		}
	}
	if n := r.count(2); n > 0 {
		a.Removed = make([]RemovedPath, n)
	}
	for i := range a.Removed {
		a.Removed[i] = RemovedPath{Path: r.str(), Version: r.varint()}
	}
	if n := r.count(2); n > 0 {
		a.Logs = make([]LogLine, n)
	}
	for i := range a.Logs {
		a.Logs[i].Version = r.varint()
		a.Logs[i].Text = r.str()
	}
}

// decodeRecord parses one ipawal2 record body. Publish and mirror
// records keep their payload as the attached frame, so re-logging a
// replayed record copies the bytes verbatim. body must be a fresh slice
// the record may keep.
func decodeRecord(body []byte) (*walRecord, error) {
	r := &walReader{b: body}
	rec := &walRecord{Kind: r.byte()}
	flags := r.byte()
	session, worker := r.str(), r.str()
	seq, epoch, version, done, total := r.varint(), r.varint(), r.varint(), r.varint(), r.varint()
	log := r.str()
	trace := obs.TraceContext{TraceID: r.uvarint(), SpanID: r.uvarint()}
	if hop := r.uvarint(); hop > math.MaxUint32 {
		r.err = errWALShort
	} else {
		trace.Hop = uint32(hop)
	}
	if r.err != nil {
		return nil, r.err
	}
	payload := r.b
	switch rec.Kind {
	case walPublish, walMirror:
		d, err := aida.DecodeDeltaState(payload)
		if err != nil {
			return nil, err
		}
		if rec.Kind == walMirror {
			rec.Mirror = &MirrorArgs{
				SessionID: session, WorkerID: worker, Seq: seq, Epoch: epoch, Version: version,
				Delta: d, EventsDone: done, EventsTotal: total, Log: log, Trace: trace, frame: payload,
			}
			break
		}
		rec.Publish = &PublishArgs{
			SessionID: session, WorkerID: worker, Seq: seq, Delta: d,
			EventsDone: done, EventsTotal: total, Log: log, Trace: trace, frame: payload,
		}
	case walImport, walSnapshot:
		rec.Import = &ImportArgs{SessionID: session, Version: version, Epoch: epoch, LastTraceID: trace.TraceID}
		if r.importPayload(rec.Import); r.err != nil {
			return nil, r.err
		}
	default:
		rec.Session, rec.Epoch, rec.Tombstone = session, epoch, flags&walFlagTombstone != 0
	}
	return rec, nil
}

// walRecordV1 is an ipawal1 record as its gob writer laid it out. Its
// publish keeps the legacy Tree field: gob drops fields the target type
// lacks, so decoding a whole-tree publish into PublishArgs would replay
// it as an empty one.
type walRecordV1 struct {
	Kind      uint8
	Publish   *publishArgsV1
	Mirror    *MirrorArgs
	Import    *ImportArgs
	Session   string
	Tombstone bool
	Epoch     int64
}

// publishArgsV1 is PublishArgs as ipawal1 logged it: a delta, or a
// legacy whole-tree snapshot when Delta is nil.
type publishArgsV1 struct {
	SessionID   string
	WorkerID    string
	Seq         int64
	Delta       *aida.DeltaState
	Tree        aida.TreeState
	EventsDone  int64
	EventsTotal int64
	Log         string
	Trace       obs.TraceContext
}

// decodeRecordV1 parses one ipawal1 record: a self-contained gob value
// (fresh encoder per record, so a torn tail never corrupted its
// predecessors). A record missing its kind's payload is corrupt. A
// whole-tree publish becomes the full delta baseline it amounts to.
func decodeRecordV1(body []byte) (*walRecord, error) {
	if !gobFramesFit(body) {
		return nil, errWALShort
	}
	var v1 walRecordV1
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&v1); err != nil {
		return nil, err
	}
	if (v1.Kind == walPublish && v1.Publish == nil) || (v1.Kind == walMirror && v1.Mirror == nil) ||
		((v1.Kind == walImport || v1.Kind == walSnapshot) && v1.Import == nil) {
		return nil, errWALShort
	}
	rec := &walRecord{
		Kind: v1.Kind, Mirror: v1.Mirror, Import: v1.Import,
		Session: v1.Session, Tombstone: v1.Tombstone, Epoch: v1.Epoch,
	}
	if p := v1.Publish; p != nil {
		d := p.Delta
		if d == nil {
			d = &aida.DeltaState{Full: true, Entries: p.Tree.Entries}
		}
		rec.Publish = &PublishArgs{
			SessionID: p.SessionID, WorkerID: p.WorkerID, Seq: p.Seq, Delta: d,
			EventsDone: p.EventsDone, EventsTotal: p.EventsTotal, Log: p.Log, Trace: p.Trace,
		}
	}
	return rec, nil
}

// gobFramesFit reports whether body splits exactly into gob messages,
// each a gob-encoded unsigned byte count and that many bytes. gob
// allocates a message's declared size before reading it, so a corrupt
// count must be caught here, against the bytes actually present.
func gobFramesFit(body []byte) bool {
	for len(body) > 0 {
		n := uint64(body[0])
		body = body[1:]
		if n >= 0x80 {
			// Not a small count: the byte is the negated length of a
			// big-endian count that follows.
			k := int(-int8(n))
			if k < 1 || k > 8 || k > len(body) {
				return false
			}
			n = 0
			for _, b := range body[:k] {
				n = n<<8 | uint64(b)
			}
			body = body[k:]
		}
		if n > uint64(len(body)) {
			return false
		}
		body = body[n:]
	}
	return true
}

// WALOptions tune the log.
type WALOptions struct {
	// SyncEvery fsyncs after this many appended records (<=1 = every
	// record, the durable default; larger values trade the tail for
	// throughput).
	SyncEvery int
	// CompactEvery rotates and re-snapshots after this many delta
	// records since the last compaction (<=0 selects 4096).
	CompactEvery int
}

// WAL is the append-only log. Open it, Replay it into a fresh Manager,
// then attach it with Manager.SetWAL; appends happen inside the
// manager's per-session write sections, so record order matches apply
// order per session.
type WAL struct {
	path string
	opts WALOptions

	mu       sync.Mutex
	f        *os.File
	unsynced int
	deltas   int
	closed   bool
	// legacy marks a live log still in the ipawal1 format: it takes no
	// appends until Replay has rewritten it as v2.
	legacy bool
}

// OpenWAL opens (or creates) the log at path.
func OpenWAL(path string, opts WALOptions) (*WAL, error) {
	if opts.CompactEvery <= 0 {
		opts.CompactEvery = 4096
	}
	w := &WAL{path: path, opts: opts}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() == 0 {
		if _, err := f.WriteString(walMagic); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
	} else {
		hdr := make([]byte, len(walMagic))
		if _, err := io.ReadFull(f, hdr); err != nil || (string(hdr) != walMagic && string(hdr) != walMagicV1) {
			f.Close()
			return nil, fmt.Errorf("merge: %s is not a manager log", path)
		}
		w.legacy = string(hdr) == walMagicV1
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	w.f = f
	return w, nil
}

// Close syncs and closes the log.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed || w.f == nil {
		return nil
	}
	w.closed = true
	w.f.Sync()
	return w.f.Close()
}

// Path reports the log's file path.
func (w *WAL) Path() string { return w.path }

// append writes one record and reports whether the delta tail crossed
// the compaction threshold.
func (w *WAL) append(rec *walRecord) (compact bool, err error) {
	// Encode outside the log mutex, leaving room in front for the length
	// prefix so the whole record goes out in one write.
	bp := walBufPool.Get().(*[]byte)
	buf := append((*bp)[:0], make([]byte, binary.MaxVarintLen64)...)
	buf, err = appendRecord(buf, rec)
	defer func() { putWALBuf(bp, buf) }()
	if err != nil {
		return false, err
	}
	size := uint64(len(buf) - binary.MaxVarintLen64)
	start := binary.MaxVarintLen64 - uvarintLen(size)
	binary.PutUvarint(buf[start:], size)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed || w.f == nil {
		return false, nil
	}
	if w.legacy {
		return false, fmt.Errorf("merge: %s is an ipawal1 log; replay it before appending", w.path)
	}
	if _, err := w.f.Write(buf[start:]); err != nil {
		return false, err
	}
	w.unsynced++
	if w.opts.SyncEvery <= 1 || w.unsynced >= w.opts.SyncEvery {
		t0 := obs.Now()
		if err := w.f.Sync(); err != nil {
			return false, err
		}
		obsWALFsyncSeconds.ObserveSince(t0)
		w.unsynced = 0
	}
	obsWALUnsynced.Set(int64(w.unsynced))
	switch rec.Kind {
	case walSnapshot:
	default:
		w.deltas++
	}
	if w.deltas >= w.opts.CompactEvery {
		w.deltas = 0
		return true, nil
	}
	return false, nil
}

// rotate moves the live log aside (path → path.old) and starts a fresh
// one; the compactor then re-seeds the fresh log with session
// snapshots and drops the rotation. Replay reads path.old first, so a
// crash anywhere inside compaction loses nothing.
func (w *WAL) rotate() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed || w.f == nil {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	if err := os.Rename(w.path, w.path+".old"); err != nil {
		// Reopen the live log: compaction failed but appends must go on.
		f, oerr := os.OpenFile(w.path, os.O_RDWR|os.O_APPEND, 0o644)
		if oerr == nil {
			w.f = f
		}
		return err
	}
	f, err := os.OpenFile(w.path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteString(walMagic); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	w.f = f
	w.unsynced = 0
	w.legacy = false
	return nil
}

func (w *WAL) isClosed() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.closed
}

// dropOld removes a completed compaction's rotation file.
func (w *WAL) dropOld() error {
	if err := os.Remove(w.path + ".old"); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// Replay feeds every logged record through the manager's normal entry
// points — imports restore baselines, publishes and mirrors re-apply
// deltas with their original seq stamps — so the rebuilt trees are
// byte-identical to what the log covered. Reads the rotation file
// first if a compaction was interrupted. Returns the record count
// applied. A torn tail on the live log is truncated so later appends
// follow the last complete record, and a live log in the ipawal1
// format is then compacted into m, which rewrites it as v2.
func (w *WAL) Replay(m *Manager) (int, error) {
	total := 0
	if old, err := os.Open(w.path + ".old"); err == nil {
		n, _, rerr := replayFile(old, m)
		old.Close()
		total += n
		if rerr != nil {
			return total, fmt.Errorf("merge: replaying %s.old: %w", w.path, rerr)
		}
	}
	n, legacy, err := w.replayLive(m)
	total += n
	if err != nil || !legacy {
		return total, err
	}
	return total, m.compact(w)
}

// replayLive replays the live log into m, cuts any torn tail and
// positions the file for appends; legacy reports an ipawal1 log.
func (w *WAL) replayLive(m *Manager) (n int, legacy bool, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return 0, false, nil
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return 0, false, err
	}
	n, good, err := replayFile(w.f, m)
	if err != nil {
		return n, false, err
	}
	if err := w.f.Truncate(good); err != nil {
		return n, false, err
	}
	if _, err := w.f.Seek(0, io.SeekEnd); err != nil {
		return n, false, err
	}
	return n, w.legacy, nil
}

// replayFile applies every complete record in r and returns how many
// applied plus the offset just past the last complete one. A torn or
// corrupt tail ends the replay without error (the crash case this log
// exists for); a record that decodes but fails to apply is an error.
func replayFile(f io.Reader, m *Manager) (n int, good int64, err error) {
	return scanFile(f, func(rec *walRecord) error { return applyRecord(m, rec) })
}

// scanFile decodes every complete record in f and hands each to apply,
// returning how many were handed over plus the offset just past the
// last complete record. A torn or corrupt tail ends the scan without
// error; an apply error stops it.
// The file's magic selects the record decoder: ipawal2 or ipawal1.
func scanFile(f io.Reader, apply func(*walRecord) error) (n int, good int64, err error) {
	br := bufio.NewReaderSize(f, 1<<16)
	hdr := make([]byte, len(walMagic))
	if _, err := io.ReadFull(br, hdr); err != nil {
		return 0, 0, fmt.Errorf("merge: log header mismatch")
	}
	decode := decodeRecord
	switch string(hdr) {
	case walMagic:
	case walMagicV1:
		decode = decodeRecordV1
	default:
		return 0, 0, fmt.Errorf("merge: log header mismatch")
	}
	good = int64(len(walMagic))
	cr := &countingByteReader{r: br}
	for {
		cr.n = 0
		size, err := binary.ReadUvarint(cr)
		if err != nil {
			return n, good, nil // clean EOF or torn length prefix
		}
		if size > maxWALRecord {
			return n, good, nil // garbage length: treat as torn tail
		}
		body, err := readRecord(br, size)
		if err != nil {
			return n, good, nil // torn payload
		}
		rec, err := decode(body)
		if err != nil {
			return n, good, nil // corrupt tail record
		}
		if err := apply(rec); err != nil {
			return n, good, err
		}
		// The prefix's own byte count, not its canonical length: an
		// overlong varint must not shift the truncation point.
		good += int64(cr.n) + int64(size)
		n++
	}
}

// countingByteReader counts the bytes a varint read consumed.
type countingByteReader struct {
	r *bufio.Reader
	n int
}

func (c *countingByteReader) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err == nil {
		c.n++
	}
	return b, err
}

// readRecord reads exactly size bytes into a fresh slice. Small records
// are read in one allocation; larger ones grow with the bytes that
// actually arrive, so a corrupt length prefix cannot allocate far past
// the end of the input.
func readRecord(r io.Reader, size uint64) ([]byte, error) {
	const direct = 4 << 10
	if size <= direct {
		b := make([]byte, size)
		_, err := io.ReadFull(r, b)
		return b, err
	}
	var buf bytes.Buffer
	got, err := buf.ReadFrom(io.LimitReader(r, int64(size)))
	if err != nil {
		return nil, err
	}
	if uint64(got) != size {
		return nil, io.ErrUnexpectedEOF
	}
	b := buf.Bytes()
	return b[:len(b):len(b)], nil
}

func uvarintLen(v uint64) int {
	var b [binary.MaxVarintLen64]byte
	return binary.PutUvarint(b[:], v)
}

func applyRecord(m *Manager, rec *walRecord) error {
	switch rec.Kind {
	case walPublish:
		var pr PublishReply
		// A refused replayed publish (stale seq after a later snapshot
		// record) is the log converging, not an error.
		return m.Publish(*rec.Publish, &pr)
	case walMirror:
		var mr MirrorReply
		return m.Mirror(*rec.Mirror, &mr)
	case walImport, walSnapshot:
		var ir ImportReply
		return m.Import(*rec.Import, &ir)
	case walReset:
		var rr ResetReply
		if err := m.Reset(ResetArgs{SessionID: rec.Session}, &rr); err != nil && err != ErrSealed {
			return err
		}
		return nil
	case walDrop:
		var dr DropReply
		return m.DropSession(DropArgs{SessionID: rec.Session, Tombstone: rec.Tombstone}, &dr)
	case walFence, walPromote:
		// A replica fence or promotion an older writer logged. Replay
		// drops every session it brings back, and nothing can create a
		// deposed incarnation any more, so there is nothing to restore.
		return nil
	default:
		return fmt.Errorf("merge: unknown log record kind %d", rec.Kind)
	}
}

// SetWAL attaches the log: every subsequent state-changing call appends
// to it. Attach after Replay, never before (replayed records must not
// re-log themselves).
func (m *Manager) SetWAL(w *WAL) { m.wal = w }

// WAL reports the attached log (nil when durability is off).
func (m *Manager) WAL() *WAL { return m.wal }

// walAppend logs one record if a WAL is attached, kicking off an async
// compaction when the delta tail crosses the threshold. Callers hold
// the session write lock, so per-session record order matches apply
// order; the WAL's own mutex orders records across sessions.
func (m *Manager) walAppend(rec *walRecord) error {
	w := m.wal
	if w == nil {
		return nil
	}
	compact, err := w.append(rec)
	if err != nil {
		return fmt.Errorf("merge: manager log append: %w", err)
	}
	if compact {
		go m.CompactWAL()
	}
	return nil
}

// CompactWAL rotates the log aside and re-seeds a fresh one with a full
// Import-shaped snapshot per live session, then drops the rotation.
// Single-flight; concurrent triggers are no-ops. Safe against crashes
// at any point: replay reads the rotation first, and records appended
// to the fresh log before a session's snapshot landed are simply
// superseded by it.
func (m *Manager) CompactWAL() error {
	if m.wal == nil {
		return nil
	}
	return m.compact(m.wal)
}

// compact is CompactWAL against w, which need not be attached yet (the
// ipawal1 rewrite at the end of Replay).
func (m *Manager) compact(w *WAL) error {
	if !m.walCompacting.CompareAndSwap(false, true) {
		return nil
	}
	defer m.walCompacting.Store(false)
	if err := w.rotate(); err != nil {
		return err
	}
	var firstErr error
	m.sessions.Range(func(k, _ any) bool {
		if err := m.logSnapshot(k.(string), w); err != nil {
			firstErr = err
			return false
		}
		return true
	})
	if firstErr != nil {
		// Keep the rotation: replay still covers everything.
		return firstErr
	}
	if w.isClosed() {
		// A Close raced the re-seed and appends after it were dropped:
		// the rotation file is still the only complete history.
		return nil
	}
	return w.dropOld()
}

// logSnapshot appends one session's full state as a snapshot record.
// Takes the session write lock, then the log mutex — the same order
// every logged write uses.
func (m *Manager) logSnapshot(sessionID string, w *WAL) error {
	s := m.lookup(sessionID)
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.version == 0 && len(s.workers) == 0 {
		return nil
	}
	for _, id := range s.workerIDs {
		if err := s.workers[id].materialize(); err != nil {
			return err
		}
	}
	imp := &ImportArgs{SessionID: sessionID, Version: s.version, Epoch: s.epoch.Load(), LastTraceID: s.lastTrace.Load()}
	for _, id := range s.workerIDs {
		wk := s.workers[id]
		ws := WorkerSnapshot{WorkerID: id, Seq: wk.seq, Done: wk.done, Total: wk.total}
		if wk.tree != nil {
			st, err := wk.tree.State()
			if err != nil {
				return err
			}
			ws.HasTree, ws.Tree = true, *st
		}
		imp.Workers = append(imp.Workers, ws)
	}
	for path, ver := range s.gone {
		imp.Removed = append(imp.Removed, RemovedPath{Path: path, Version: ver})
	}
	for _, l := range s.logs {
		imp.Logs = append(imp.Logs, LogLine{Version: l.version, Text: l.text})
	}
	_, err := w.append(&walRecord{Kind: walSnapshot, Import: imp})
	return err
}
