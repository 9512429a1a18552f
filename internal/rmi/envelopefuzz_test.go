package rmi

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// probeService counts the calls dispatched to it.
type probeService struct{ hits atomic.Int64 }

func (p *probeService) Hit(arg int, reply *int) error {
	p.hits.Add(1)
	*reply = arg
	return nil
}

// wellFormedHits parses data with the request grammar envelope.go
// documents and counts the frames addressed to Probe.Hit before the
// first malformed one — the most calls the server may dispatch. A
// frame's payload has to be present and a run of whole gob messages,
// not decodable: an undecodable argument fails the call after its
// header was read.
func wellFormedHits(data []byte) int {
	uvarint := func() (uint64, bool) {
		v, n := binary.Uvarint(data)
		if n <= 0 {
			return 0, false
		}
		data = data[n:]
		return v, true
	}
	str := func() (string, bool) {
		n, ok := uvarint()
		if !ok || n > maxHeaderString || n > uint64(len(data)) {
			return "", false
		}
		s := string(data[:n])
		data = data[n:]
		return s, true
	}
	hits := 0
	for len(data) > 0 && data[0] == frameRequest {
		data = data[1:]
		if _, ok := uvarint(); !ok {
			break
		}
		object, ok1 := str()
		method, ok2 := str()
		_, ok3 := str()
		if !ok1 || !ok2 || !ok3 {
			break
		}
		n, ok := uvarint()
		if !ok || n > maxPayloadBytes || n > uint64(len(data)) || !gobFramed(data[:n]) {
			break
		}
		data = data[n:]
		if object == "Probe" && method == "Hit" {
			hits++
		}
	}
	return hits
}

// requestFrame builds one request frame as a client writes it.
func requestFrame(seq uint64, object, method, token string, payload []byte) []byte {
	b := []byte{frameRequest}
	b = binary.AppendUvarint(b, seq)
	b = appendWireString(b, object)
	b = appendWireString(b, method)
	b = appendWireString(b, token)
	b = binary.AppendUvarint(b, uint64(len(payload)))
	return append(b, payload...)
}

// oldLayoutFrame builds a request frame as clients of the earlier
// envelope wrote it, with a trace flag byte after the token and, when
// traced, a 16-byte trace ID and a uvarint hop count. The server reads
// the flag as the payload length.
func oldLayoutFrame(seq uint64, object, method, token string, traced bool, payload []byte) []byte {
	b := []byte{frameRequest}
	b = binary.AppendUvarint(b, seq)
	b = appendWireString(b, object)
	b = appendWireString(b, method)
	b = appendWireString(b, token)
	if traced {
		b = append(b, 1)
		b = binary.BigEndian.AppendUint64(b, 0x1122334455667788)
		b = binary.BigEndian.AppendUint64(b, 0x99aabbccddeeff00)
		b = binary.AppendUvarint(b, 3)
	} else {
		b = append(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(payload)))
	return append(b, payload...)
}

// rmiEnvelopeSeeds returns request streams as a client writes them: one
// call, two calls sharing the payload gob stream, calls to an unknown
// object and method, and a traced call in the earlier envelope layout —
// each cut at every offset — plus headers with edge lengths, a frame
// with a stray byte before its payload length, untraced frames in the
// earlier layout with a good and a bad flag, and malformed frames
// followed by a well-formed call.
func rmiEnvelopeSeeds() [][]byte {
	var pbuf bytes.Buffer
	enc := gob.NewEncoder(&pbuf)
	payload := func(v int) []byte {
		pbuf.Reset()
		if err := enc.Encode(v); err != nil {
			panic(err)
		}
		return bytes.Clone(pbuf.Bytes())
	}
	first, second := payload(7), payload(8)
	streams := [][]byte{
		requestFrame(1, "Probe", "Hit", "tok", first),
		append(requestFrame(1, "Probe", "Hit", "tok", first), requestFrame(2, "Probe", "Hit", "tok", second)...),
		append(requestFrame(1, "Nobody", "Hit", "", first), requestFrame(2, "Probe", "Miss", "", second)...),
		oldLayoutFrame(1, "Probe", "Hit", "tok", true, first),
	}
	var seeds [][]byte
	for _, s := range streams {
		for i := 0; i <= len(s); i++ {
			seeds = append(seeds, s[:i])
		}
	}
	head := requestFrame(1, "Probe", "Hit", "tok", nil)
	head = head[:len(head)-1] // up to the payload length
	for _, n := range []uint64{maxHeaderString, maxHeaderString + 1, maxPayloadBytes, maxPayloadBytes + 1, 1<<64 - 1} {
		seeds = append(seeds,
			binary.AppendUvarint([]byte{frameRequest, 1}, n),
			binary.AppendUvarint(bytes.Clone(head), n))
	}
	// A stray byte before the payload length: the server reads it as
	// the length, and the real length and payload as a short payload.
	bad := requestFrame(1, "Probe", "Hit", "tok", first)
	at := len(bad) - len(first) - 1
	bad = append(bad[:at:at], append([]byte{2}, bad[at:]...)...)
	oldBadFlag := oldLayoutFrame(1, "Probe", "Hit", "tok", false, first)
	oldBadFlag[len(oldBadFlag)-len(first)-2] = 2
	seeds = append(seeds, bad, oldLayoutFrame(1, "Probe", "Hit", "tok", false, first), oldBadFlag)
	// A malformed frame followed by a well-formed call: the server must
	// not dispatch the call.
	next := requestFrame(2, "Probe", "Hit", "tok", second)
	for _, m := range [][]byte{bad, oldLayoutFrame(1, "Probe", "Hit", "tok", true, first), oldLayoutFrame(1, "Probe", "Hit", "tok", false, first)} {
		seeds = append(seeds, append(bytes.Clone(m), next...))
	}
	return append(seeds, []byte{frameReply, 0, 0})
}

// rmiServeAllocBound is what serving n input bytes may allocate: the
// connection's fixed buffers and gob state, plus a constant factor of
// the input — never a declared payload length's worth.
func rmiServeAllocBound(n int) uint64 { return 8<<20 + 256*uint64(n) }

// FuzzRMIEnvelope feeds arbitrary bytes, after the handshake, into a
// server connection: request header strings, token and payload length.
// The server must not panic, must dispatch no call whose header is
// malformed, must allocate no more than the input
// bounds, and must close the connection once the peer has gone.
func FuzzRMIEnvelope(f *testing.F) {
	for _, s := range rmiEnvelopeSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewServer(nil)
		probe := &probeService{}
		if err := s.Register("Probe", probe); err != nil {
			t.Fatal(err)
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		srv, cli := net.Pipe()
		served := make(chan struct{})
		go func() {
			defer close(served)
			s.serveConn(srv, nil)
		}()
		// The handshake: lead with the magic and wait for its echo.
		if err := negotiate(cli); err != nil {
			t.Fatalf("handshake: %v", err)
		}
		// net.Pipe is synchronous: drain the server's replies so it never
		// blocks on them.
		go io.Copy(io.Discard, cli)
		cli.Write(data)
		cli.Close()
		select {
		case <-served:
		case <-time.After(10 * time.Second):
			t.Fatal("server connection still open after the peer closed")
		}
		runtime.ReadMemStats(&ms)
		if alloc := ms.TotalAlloc - before; alloc > rmiServeAllocBound(len(data)) {
			t.Fatalf("serving %d bytes allocated %d", len(data), alloc)
		}
		if got, max := probe.hits.Load(), wellFormedHits(data); got > int64(max) {
			t.Fatalf("%d calls dispatched from a stream with %d well-formed Probe.Hit headers", got, max)
		}
		// A closed server connection refuses further I/O.
		if _, err := srv.Write([]byte{0}); err == nil {
			t.Fatal("server side of the connection still accepts writes")
		}
	})
}
