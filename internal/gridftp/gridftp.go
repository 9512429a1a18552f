// Package gridftp implements the data movement protocol of the framework —
// the "thick green arrows" of Figure 2. It reproduces the GridFTP design
// as far as staging uses it: a text control channel granting transfers,
// and block-framed data flowing over parallel TCP streams (the striped
// transfer mode that made GridFTP fast over 2006 WANs). The paper's
// splitter pushed dataset parts to the worker nodes by third-party
// transfers (§3.4); here each worker's part streams straight from the
// replica by one ranged retrieve, so uploads, third-party pushes,
// whole-file retrieves and checksums are not part of the protocol.
//
// Control protocol (one line per message, space separated):
//
//	C: AUTH <token>                          S: 230 ok
//	C: SIZE <path>                           S: 213 <bytes>
//	C: ERET <path> <offset> <length>         S: 150 <xfer-id> <port> <length>
//	C: QUIT                                  S: 221 bye
//
// Data connections open to <port> and introduce themselves with one line
// "DATA <xfer-id> <stream>\n", then exchange length-prefixed blocks:
// offset uint64, length uint32, payload. A zero-length block ends a stream.
// An ERET (a byte range of the file) moves over exactly parallelism data
// streams and sends block j of the range on stream j mod parallelism, so
// a client that reads one block from each stream in turn receives the
// bytes in order.
package gridftp

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/ipa-grid/ipa/internal/storage"
)

// parallelism is the data-stream count of every transfer. Client and
// server ship together, so nothing negotiates it.
const parallelism = 4

// blockSize is the data-channel block payload size.
const blockSize = 256 * 1024

// maxLine caps a control line or a data hello, line break included. The
// longest line staging sends, an ERET of a storage path and two decimal
// int64s, is far shorter.
const maxLine = 4096

// errLineTooLong rejects a line of more than maxLine bytes.
var errLineTooLong = fmt.Errorf("gridftp: line longer than %d bytes", maxLine)

// authWait is how long a connection behind a token check has to
// authenticate. An authenticated connection gets no read deadline, so
// none cuts off a transfer.
var authWait = 30 * time.Second

// newLineReader buffers exactly one maximal line, so that readLine
// never holds more than maxLine bytes of a peer's input.
func newLineReader(conn net.Conn) *bufio.Reader { return bufio.NewReaderSize(conn, maxLine) }

// readLine reads one line through a newLineReader.
func readLine(r *bufio.Reader) (string, error) {
	line, err := r.ReadSlice('\n')
	if errors.Is(err, bufio.ErrBufferFull) {
		return "", errLineTooLong
	}
	return string(line), err
}

// TokenChecker authorizes control connections; nil accepts everything.
type TokenChecker func(token string) error

// Server serves one storage element.
type Server struct {
	store *storage.Element
	check TokenChecker

	mu     sync.Mutex
	xfers  map[string]*serverXfer
	nextID int64
	ln     net.Listener
	closed bool
}

// serverXfer is one ERET: size bytes of the open file f from off. Its
// streams close f.
type serverXfer struct {
	id   string
	f    io.ReadSeekCloser
	path string
	off  int64
	size int64
	ln   net.Listener
	done chan error
	once sync.Once
}

// NewServer creates a GridFTP server for a storage element.
func NewServer(store *storage.Element, check TokenChecker) *Server {
	return &Server{store: store, check: check, xfers: make(map[string]*serverXfer)}
}

// Listen starts the control listener and returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go s.serveControl(conn)
		}
	}()
	return ln.Addr().String(), nil
}

// Close stops the server.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	xfers := make([]*serverXfer, 0, len(s.xfers))
	for _, x := range s.xfers {
		xfers = append(xfers, x)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, x := range xfers {
		if x.ln != nil {
			x.ln.Close()
		}
	}
}

func reply(w *bufio.Writer, format string, args ...any) {
	fmt.Fprintf(w, format+"\r\n", args...)
	w.Flush()
}

func (s *Server) serveControl(conn net.Conn) {
	defer conn.Close()
	r := newLineReader(conn)
	w := bufio.NewWriter(conn)
	authed := s.check == nil
	if !authed {
		conn.SetReadDeadline(time.Now().Add(authWait))
	}
	reply(w, "220 IPA GridFTP ready")
	for {
		line, err := readLine(r)
		if errors.Is(err, errLineTooLong) {
			// One refusal, then the connection goes: the rest of the
			// line cannot be told from the next command. Before AUTH it
			// is refused as every other line but AUTH and QUIT is.
			code := 500
			if !authed {
				code = 530
			}
			reply(w, "%d %v", code, err)
			return
		}
		if err != nil {
			return
		}
		fields := strings.Fields(strings.TrimSpace(line))
		if len(fields) == 0 {
			continue
		}
		cmd := strings.ToUpper(fields[0])
		args := fields[1:]
		if cmd == "QUIT" {
			reply(w, "221 bye")
			return
		}
		if cmd == "AUTH" {
			token := ""
			if len(args) > 0 {
				token = args[0]
			}
			if s.check != nil {
				if err := s.check(token); err != nil {
					reply(w, "530 auth failed: %v", err)
					continue
				}
			}
			authed = true
			conn.SetReadDeadline(time.Time{})
			reply(w, "230 ok")
			continue
		}
		if !authed {
			reply(w, "530 please AUTH first")
			continue
		}
		switch cmd {
		case "SIZE":
			if len(args) != 1 {
				reply(w, "501 SIZE <path>")
				continue
			}
			size, err := s.store.Size(args[0])
			if err != nil {
				reply(w, "550 %v", err)
				continue
			}
			reply(w, "213 %d", size)
		case "ERET":
			if len(args) != 3 {
				reply(w, "501 ERET <path> <offset> <length>")
				continue
			}
			// Open before granting: a path that names no readable file
			// (a directory, say) is refused here, not by a transfer
			// whose streams nobody serves.
			f, size, err := s.store.Open(args[0])
			if err != nil {
				reply(w, "550 %v", err)
				continue
			}
			off, err := strconv.ParseInt(args[1], 10, 64)
			var n int64
			if err == nil {
				n, err = strconv.ParseInt(args[2], 10, 64)
			}
			if err != nil || off < 0 || n < 0 || off > size || n > size-off {
				f.Close()
				reply(w, "501 bad range")
				continue
			}
			x, err := s.newXfer(f, args[0], off, n)
			if err != nil {
				f.Close()
				reply(w, "550 %v", err)
				continue
			}
			reply(w, "150 %s %d %d", x.id, dataPort(x.ln), n)
			if err := <-x.done; err != nil {
				reply(w, "451 transfer failed: %v", err)
			} else {
				reply(w, "226 %d", n)
			}
			s.dropXfer(x)
		default:
			reply(w, "500 unknown command %s", cmd)
		}
	}
}

func dataPort(ln net.Listener) int { return ln.Addr().(*net.TCPAddr).Port }

func (s *Server) newXfer(f io.ReadSeekCloser, path string, off, size int64) (*serverXfer, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errors.New("gridftp: server closed")
	}
	s.nextID++
	id := fmt.Sprintf("x%d", s.nextID)
	s.mu.Unlock()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	x := &serverXfer{
		id: id, f: f, path: path, off: off, size: size, ln: ln,
		done: make(chan error, 1),
	}
	s.mu.Lock()
	s.xfers[id] = x
	s.mu.Unlock()
	go x.acceptStreams()
	return x, nil
}

func (s *Server) dropXfer(x *serverXfer) {
	x.ln.Close()
	s.mu.Lock()
	delete(s.xfers, x.id)
	s.mu.Unlock()
}

func (x *serverXfer) finish(err error) {
	x.once.Do(func() { x.done <- err })
}

// acceptStreams handles the data side of one transfer: the client opens
// exactly parallelism connections, each naming its stream number.
func (x *serverXfer) acceptStreams() {
	defer x.f.Close()
	x.ln.(*net.TCPListener).SetDeadline(time.Now().Add(60 * time.Second))
	ra := x.f.(io.ReaderAt)
	conns := make([]net.Conn, parallelism)
	for accepted := 0; accepted < parallelism; {
		conn, err := x.ln.Accept()
		if err != nil {
			for _, c := range conns {
				if c != nil {
					c.Close()
				}
			}
			x.finish(fmt.Errorf("gridftp: accepting data stream: %w", err))
			return
		}
		k, err := readDataHello(conn, x.id)
		if err != nil || k < 0 || k >= parallelism || conns[k] != nil {
			conn.Close()
			continue
		}
		conns[k] = conn
		accepted++
	}
	var wg sync.WaitGroup
	var streamErr error
	var errMu sync.Mutex
	fail := func(err error) {
		errMu.Lock()
		if streamErr == nil {
			streamErr = err
		}
		errMu.Unlock()
	}
	// Stream k sends blocks k, k+S, k+2S, … of the range.
	for k, conn := range conns {
		wg.Add(1)
		go func(k int, conn net.Conn) {
			defer wg.Done()
			defer conn.Close()
			w := bufio.NewWriterSize(conn, blockSize+16)
			buf := make([]byte, blockSize)
			for rel := int64(k) * blockSize; rel < x.size; rel += parallelism * blockSize {
				n := min(blockSize, x.size-rel)
				if m, err := ra.ReadAt(buf[:n], x.off+rel); int64(m) < n {
					fail(fmt.Errorf("gridftp: reading %s at %d: %v", x.path, x.off+rel, err))
					return
				}
				if err := writeBlock(w, uint64(x.off+rel), buf[:n]); err != nil {
					fail(err)
					return
				}
			}
			err := writeBlock(w, 0, nil) // EOF block
			if err == nil {
				err = w.Flush()
			}
			if err != nil {
				fail(err)
			}
		}(k, conn)
	}
	wg.Wait()
	x.finish(streamErr)
}

// Data-channel framing.

func writeBlock(w *bufio.Writer, off uint64, payload []byte) error {
	var hdr [12]byte
	binary.BigEndian.PutUint64(hdr[0:], off)
	binary.BigEndian.PutUint32(hdr[8:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// readBlock returns (offset, payload, err); payload nil signals stream EOF.
func readBlock(r *bufio.Reader) (uint64, []byte, error) {
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	off := binary.BigEndian.Uint64(hdr[0:])
	length := binary.BigEndian.Uint32(hdr[8:])
	if length == 0 {
		return off, nil, nil
	}
	if length > blockSize*4 {
		return 0, nil, fmt.Errorf("gridftp: oversized block %d", length)
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return off, payload, nil
}

// readDataHello consumes the introduction line of a data connection and
// returns the stream it names. Only writes follow on a data connection,
// so nothing the reader buffers past the line is lost.
func readDataHello(conn net.Conn, wantID string) (int, error) {
	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	line, err := readLine(newLineReader(conn))
	if err != nil {
		return 0, err
	}
	fields := strings.Fields(strings.TrimSpace(line))
	if len(fields) != 3 || fields[0] != "DATA" || fields[1] != wantID {
		return 0, fmt.Errorf("gridftp: bad data hello %q", line)
	}
	n, err := strconv.Atoi(fields[2])
	if err != nil {
		return 0, err
	}
	conn.SetReadDeadline(time.Time{})
	return n, nil
}
