// The envelope: a hand-rolled length-prefixed binary header around each
// call. The payloads (args and replies) ride a persistent per-connection
// gob stream — the big states inside them already use the aida binary
// codec via their GobEncode hooks — while the per-call header is a
// dozen appended bytes, and every payload is length prefixed, so error
// responses need no body and a receiver can skip a frame without
// decoding it.
//
// Negotiation: a dialing client sends the 4-byte magic "IPA2" before
// anything else and the server echoes it back. A server disconnects a
// peer that does not lead with the magic; a client whose ack does not
// arrive fails the dial (WithRetry retries it like any other).
//
// Frame layout (uvarint = unsigned varint, str = uvarint len + bytes):
//
//	request:  'Q' seq(uvarint) object(str) method(str) token(str)
//	          n(uvarint) payload(n)
//	response: 'S' seq(uvarint) status(1B; 0=ok 1=err)
//	          status 1: msg(str)          — no payload
//	          status 0: n(uvarint) payload(n)
package rmi

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"sync"
	"time"

	"github.com/ipa-grid/ipa/internal/obs"
)

var envMagic = [4]byte{'I', 'P', 'A', '2'}

const (
	frameRequest = 'Q'
	frameReply   = 'S'

	// maxHeaderString bounds object/method/token/error strings; a
	// corrupt length must not drive an allocation.
	maxHeaderString = 1 << 16
	// maxPayloadBytes bounds one call's payload.
	maxPayloadBytes = 1 << 30
	// maxPooledWire caps the per-connection reusable payload read
	// buffer: a one-off giant frame must not pin memory for the
	// connection's lifetime (same rule as the aida encode pools).
	maxPooledWire = 1 << 20
)

// ackTimeout bounds the client's TLS handshake and the wait for the
// server's negotiation ack; a peer that goes silent fails the dial
// instead of hanging it.
const ackTimeout = 3 * time.Second

// negotiate runs the dial-time handshake on a fresh connection. On a TLS
// connection the first write runs the TLS handshake, and a server that
// refuses the client's certificate fails the ack read.
func negotiate(conn net.Conn) error {
	conn.SetDeadline(time.Now().Add(ackTimeout))
	defer conn.SetDeadline(time.Time{})
	if _, err := conn.Write(envMagic[:]); err != nil {
		return err
	}
	var ack [4]byte
	if _, err := io.ReadFull(conn, ack[:]); err != nil {
		return err
	}
	if ack != envMagic {
		return errors.New("rmi: bad envelope ack")
	}
	return nil
}

// byteFeeder hands a persistent gob decoder exactly one frame's
// payload at a time. It implements io.ByteReader so gob does not wrap
// it in a bufio.Reader (which could hoard bytes across frames).
type byteFeeder struct{ b []byte }

func (f *byteFeeder) set(b []byte) { f.b = b }

func (f *byteFeeder) remaining() int { return len(f.b) }

func (f *byteFeeder) Read(p []byte) (int, error) {
	if len(f.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p, f.b)
	f.b = f.b[n:]
	return n, nil
}

func (f *byteFeeder) ReadByte() (byte, error) {
	if len(f.b) == 0 {
		return 0, io.EOF
	}
	c := f.b[0]
	f.b = f.b[1:]
	return c, nil
}

func appendWireString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func readWireString(br *bufio.Reader) (string, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return "", err
	}
	if n > maxHeaderString {
		return "", fmt.Errorf("rmi: header string of %d bytes", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(br, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// readPayload reads one length-prefixed payload into a reusable
// buffer, growing (and retaining, up to maxPooledWire) as needed. A
// payload past maxPooledWire grows with the bytes that actually arrive,
// so a corrupt or hostile length cannot allocate far past the end of
// the stream. A payload that is not a run of whole gob messages is
// refused before the gob decoder sees it.
func readPayload(br *bufio.Reader, buf *[]byte) ([]byte, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if n > maxPayloadBytes {
		return nil, fmt.Errorf("rmi: payload of %d bytes", n)
	}
	var b []byte
	if n > maxPooledWire {
		var big bytes.Buffer
		got, err := big.ReadFrom(io.LimitReader(br, int64(n)))
		if err != nil {
			return nil, err
		}
		if uint64(got) != n {
			return nil, io.ErrUnexpectedEOF
		}
		b = big.Bytes()
	} else {
		if int(n) <= cap(*buf) {
			b = (*buf)[:n]
		} else {
			b = make([]byte, n)
			*buf = b
		}
		if _, err := io.ReadFull(br, b); err != nil {
			return nil, err
		}
	}
	if !gobFramed(b) {
		return nil, errors.New("rmi: payload is not whole gob messages")
	}
	return b, nil
}

// gobFramed reports whether b is a run of whole gob messages, each a
// gob-encoded byte count and that many bytes. The gob decoder sizes its
// buffer from a message's count before reading it, so a payload of a
// few bytes declaring a large message would otherwise allocate that
// much.
func gobFramed(b []byte) bool {
	for len(b) > 0 {
		n := uint64(b[0])
		b = b[1:]
		if n >= 0x80 {
			k := 0x100 - int(n) // the count's big-endian byte length
			if k > 8 || k > len(b) {
				return false
			}
			n = 0
			for _, c := range b[:k] {
				n = n<<8 | uint64(c)
			}
			b = b[k:]
		}
		if n > uint64(len(b)) {
			return false
		}
		b = b[n:]
	}
	return true
}

// --- server side ---

// serveLoop reads request frames off one connection. Argument decode
// stays inline (the loop owns the payload gob stream); handlers run in
// their own goroutines.
func (s *Server) serveLoop(br *bufio.Reader, w *connWriter, handlers *sync.WaitGroup, p peer) {
	slots := make(chan struct{}, maxInFlightPerConn)
	feed := &byteFeeder{}
	pdec := gob.NewDecoder(feed)
	var payload []byte
	for {
		t, err := br.ReadByte()
		if err != nil || t != frameRequest {
			return
		}
		seq, err := binary.ReadUvarint(br)
		if err != nil {
			return
		}
		object, err := readWireString(br)
		if err != nil {
			return
		}
		method, err := readWireString(br)
		if err != nil {
			return
		}
		token, err := readWireString(br)
		if err != nil {
			return
		}
		body, err := readPayload(br, &payload)
		if err != nil {
			return
		}
		if !s.dispatch(seq, object, method, token, p, body, feed, pdec, w, handlers, slots) {
			return
		}
	}
}

// dispatch resolves and launches one request. The payload is already
// consumed off the wire, so a rejected call cannot desynchronize the
// stream. The handler runs in its own goroutine so a slow method never
// blocks the next request on the same connection. Returns false when
// the connection must drop (payload gob state poisoned, the peer's
// credential expired, or an injected crash).
func (s *Server) dispatch(seq uint64, object, method, token string, p peer, payload []byte,
	feed *byteFeeder, pdec *gob.Decoder, w *connWriter, handlers *sync.WaitGroup, slots chan struct{}) bool {
	fail := func(msg string) bool {
		// The payload still carries this call's share of the persistent
		// gob stream's type definitions; run it through the decoder (into
		// a throwaway) so later calls reusing those types still decode.
		feed.set(payload)
		var discard any
		pdec.Decode(&discard)
		ok := feed.remaining() == 0
		feed.set(nil)
		w.writeError(seq, msg)
		return ok
	}
	if !p.expires.IsZero() && time.Now().After(p.expires) {
		// Verified once per connection, so the validity window is
		// re-checked per call: a connection outliving its proxy drops.
		fail("rmi: peer credential expired")
		return false
	}
	s.mu.RLock()
	obj := s.objects[object]
	s.mu.RUnlock()
	if obj == nil {
		return fail(fmt.Sprintf("rmi: no object %q", object))
	}
	m := obj.methods[method]
	if m == nil {
		return fail(fmt.Sprintf("rmi: %s has no method %q", object, method))
	}
	if s.validate != nil {
		if err := s.validate(token, object, method); err != nil {
			return fail(err.Error())
		}
	}
	if fs := s.faults.Load(); fs != nil {
		switch fs.decide() {
		case faultError:
			faultErrors.Inc()
			return fail(ErrInjected)
		case faultDrop:
			// Sever without answering: the caller sees a broken
			// transport, like a crash mid-call.
			faultDrops.Inc()
			return false
		case faultDelay:
			faultDelays.Inc()
			time.Sleep(fs.f.Delay)
		}
	}
	feed.set(payload)
	argp := reflect.New(m.argType)
	if err := pdec.DecodeValue(argp); err != nil || feed.remaining() != 0 {
		// The persistent payload gob stream may hold partial type state;
		// drop the connection rather than trust it.
		w.writeError(seq, "rmi: decoding argument")
		return false
	}
	arg := argp.Interface()
	if ps, ok := arg.(PeerSetter); ok {
		ps.SetPeer(p.dn)
	}
	if s.check != nil {
		if err := s.check(token, object, arg); err != nil {
			w.writeError(seq, err.Error())
			return true
		}
	}
	slots <- struct{}{} // blocks past maxInFlightPerConn
	handlers.Add(1)
	go func() {
		defer func() {
			<-slots
			handlers.Done()
		}()
		t0 := obs.Now()
		reply := reflect.New(m.replyType)
		out := m.fn.Call([]reflect.Value{argp.Elem(), reply})
		m.hist.ObserveSince(t0)
		if errv := out[0].Interface(); errv != nil {
			w.writeError(seq, errv.(error).Error())
			return
		}
		w.writeReply(seq, reply)
	}()
	return true
}

// writeError emits an error response frame.
func (w *connWriter) writeError(seq uint64, msg string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	hdr := w.scratch[:0]
	hdr = append(hdr, frameReply)
	hdr = binary.AppendUvarint(hdr, seq)
	hdr = append(hdr, 1)
	hdr = appendWireString(hdr, msg)
	w.scratch = hdr
	if _, err := w.bw.Write(hdr); err != nil {
		w.fail()
		return
	}
	if w.bw.Flush() != nil {
		w.fail()
	}
}

// writeReply emits a success response frame: the reply value is gob
// encoded into the connection's persistent payload stream (scratch
// buffer), then shipped behind a binary header with its length.
func (w *connWriter) writeReply(seq uint64, reply reflect.Value) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.pbuf.Reset()
	if w.penc.EncodeValue(reply) != nil {
		w.fail()
		return
	}
	hdr := w.scratch[:0]
	hdr = append(hdr, frameReply)
	hdr = binary.AppendUvarint(hdr, seq)
	hdr = append(hdr, 0)
	hdr = binary.AppendUvarint(hdr, uint64(w.pbuf.Len()))
	w.scratch = hdr
	if _, err := w.bw.Write(hdr); err != nil {
		w.fail()
		return
	}
	if _, err := w.bw.Write(w.pbuf.Bytes()); err != nil {
		w.fail()
		return
	}
	if w.bw.Flush() != nil {
		w.fail()
	}
}

// --- client side ---

// writeRequest encodes args into the connection's persistent payload
// gob stream and ships them behind a binary request header. Caller
// holds cc.wmu.
func (cc *clientConn) writeRequest(seq uint64, object, method, token string, args any) error {
	cc.pbuf.Reset()
	if err := cc.penc.Encode(args); err != nil {
		return err
	}
	hdr := cc.hdr[:0]
	hdr = append(hdr, frameRequest)
	hdr = binary.AppendUvarint(hdr, seq)
	hdr = appendWireString(hdr, object)
	hdr = appendWireString(hdr, method)
	hdr = appendWireString(hdr, token)
	hdr = binary.AppendUvarint(hdr, uint64(cc.pbuf.Len()))
	cc.hdr = hdr
	if _, err := cc.bw.Write(hdr); err != nil {
		return err
	}
	if _, err := cc.bw.Write(cc.pbuf.Bytes()); err != nil {
		return err
	}
	return cc.bw.Flush()
}

// readLoop owns cc's read side: it parses response headers, matches
// them to pending calls by sequence number, and decodes each reply
// payload through the connection's persistent gob stream straight into
// the caller's reply value. Any decode failure poisons the connection —
// the payload gob stream cannot be resynchronized.
func (c *Client) readLoop(cc *clientConn) {
	feed := &byteFeeder{}
	pdec := gob.NewDecoder(feed)
	var payload []byte
	die := func(err error) {
		c.drop(cc)
		cc.fail(err)
	}
	for {
		t, err := cc.br.ReadByte()
		if err != nil {
			die(fmt.Errorf("rmi: reading response: %w", err))
			return
		}
		if t != frameReply {
			die(fmt.Errorf("rmi: bad response frame 0x%02x", t))
			return
		}
		seq, err := binary.ReadUvarint(cc.br)
		if err != nil {
			die(fmt.Errorf("rmi: reading response: %w", err))
			return
		}
		status, err := cc.br.ReadByte()
		if err != nil {
			die(fmt.Errorf("rmi: reading response: %w", err))
			return
		}
		if status != 0 {
			msg, err := readWireString(cc.br)
			if err != nil {
				die(fmt.Errorf("rmi: reading response: %w", err))
				return
			}
			pc := cc.take(seq)
			if pc == nil {
				die(fmt.Errorf("rmi: unmatched response seq %d", seq))
				return
			}
			pc.done <- RemoteError(msg)
			continue
		}
		body, err := readPayload(cc.br, &payload)
		if err != nil {
			die(fmt.Errorf("rmi: reading response: %w", err))
			return
		}
		pc := cc.take(seq)
		if pc == nil {
			die(fmt.Errorf("rmi: unmatched response seq %d", seq))
			return
		}
		feed.set(body)
		if err := pdec.Decode(pc.reply); err != nil || feed.remaining() != 0 {
			if err == nil {
				err = errors.New("rmi: reply payload not fully consumed")
			}
			err = fmt.Errorf("rmi: reading reply: %w", err)
			pc.done <- err
			die(err)
			return
		}
		pc.done <- nil
	}
}
