// Package gridftp implements the data movement protocol of the framework —
// the "thick green arrows" of Figure 2. It reproduces the GridFTP design:
// a text control channel negotiating transfers, block-framed data flowing
// over K parallel TCP streams (the striped transfer mode that made GridFTP
// fast over 2006 WANs), third-party transfers (server → server, how the
// splitter pushes dataset parts from the shared disk to the worker nodes,
// §3.4), sizes, and CRC checksums for end-to-end verification.
//
// Control protocol (one line per message, space separated):
//
//	C: AUTH <token>                          S: 230 ok
//	C: SIZE <path>                           S: 213 <bytes>
//	C: CKSM <path>                           S: 213 <crc32-hex>
//	C: PARALLEL <n>                          S: 200 ok
//	C: STOR <path> <bytes>                   S: 150 <xfer-id> <port>
//	C: RETR <path>                           S: 150 <xfer-id> <port> <bytes>
//	C: XFER <src-path> <host:port> <dst-path> <token>   S: 226 <bytes>
//	C: QUIT                                  S: 221 bye
//
// Data connections open to <port> and introduce themselves with one line
// "DATA <xfer-id> <stream>\n", then exchange length-prefixed blocks:
// offset uint64, length uint32, payload. A zero-length block ends a stream.
package gridftp

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/ipa-grid/ipa/internal/storage"
)

// DefaultParallelism is the stream count when the client does not negotiate.
const DefaultParallelism = 4

// blockSize is the data-channel block payload size.
const blockSize = 256 * 1024

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

type serverXfer struct {
	id       string
	path     string
	size     int64
	incoming bool
	streams  int
	ln       net.Listener
	srv      *Server

	mu       sync.Mutex
	chunks   map[int64][]byte // offset → payload (STOR reassembly)
	received int64
	done     chan error
	once     sync.Once
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

// Addr returns the control address.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
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
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	authed := s.check == nil
	parallel := DefaultParallelism
	reply(w, "220 IPA GridFTP ready")
	for {
		line, err := r.ReadString('\n')
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
			reply(w, "230 ok")
			continue
		}
		if !authed {
			reply(w, "530 please AUTH first")
			continue
		}
		switch cmd {
		case "PARALLEL":
			if len(args) != 1 {
				reply(w, "501 PARALLEL <n>")
				continue
			}
			n, err := strconv.Atoi(args[0])
			if err != nil || n < 1 || n > 64 {
				reply(w, "501 bad stream count")
				continue
			}
			parallel = n
			reply(w, "200 ok")
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
		case "CKSM":
			if len(args) != 1 {
				reply(w, "501 CKSM <path>")
				continue
			}
			sum, err := s.checksum(args[0])
			if err != nil {
				reply(w, "550 %v", err)
				continue
			}
			reply(w, "213 %08x", sum)
		case "STOR":
			if len(args) != 2 {
				reply(w, "501 STOR <path> <bytes>")
				continue
			}
			size, err := strconv.ParseInt(args[1], 10, 64)
			if err != nil || size < 0 {
				reply(w, "501 bad size")
				continue
			}
			x, err := s.newXfer(args[0], size, true, parallel)
			if err != nil {
				reply(w, "550 %v", err)
				continue
			}
			reply(w, "150 %s %d", x.id, dataPort(x.ln))
			// Completion is reported on the control channel.
			if err := <-x.done; err != nil {
				reply(w, "451 transfer failed: %v", err)
			} else {
				reply(w, "226 %d", x.received)
			}
			s.dropXfer(x)
		case "RETR":
			if len(args) != 1 {
				reply(w, "501 RETR <path>")
				continue
			}
			size, err := s.store.Size(args[0])
			if err != nil {
				reply(w, "550 %v", err)
				continue
			}
			x, err := s.newXfer(args[0], size, false, parallel)
			if err != nil {
				reply(w, "550 %v", err)
				continue
			}
			reply(w, "150 %s %d %d", x.id, dataPort(x.ln), size)
			if err := <-x.done; err != nil {
				reply(w, "451 transfer failed: %v", err)
			} else {
				reply(w, "226 %d", size)
			}
			s.dropXfer(x)
		case "XFER":
			// Third-party: push a local file to a remote GridFTP server.
			if len(args) != 4 {
				reply(w, "501 XFER <src> <host:port> <dst> <token>")
				continue
			}
			token := args[3]
			if token == "-" {
				token = ""
			}
			n, err := s.thirdParty(args[0], args[1], args[2], token, parallel)
			if err != nil {
				reply(w, "451 %v", err)
				continue
			}
			reply(w, "226 %d", n)
		default:
			reply(w, "500 unknown command %s", cmd)
		}
	}
}

func dataPort(ln net.Listener) int { return ln.Addr().(*net.TCPAddr).Port }

func (s *Server) checksum(path string) (uint32, error) {
	f, _, err := s.store.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	h := crc32.NewIEEE()
	if _, err := io.Copy(h, f); err != nil {
		return 0, err
	}
	return h.Sum32(), nil
}

func (s *Server) newXfer(path string, size int64, incoming bool, streams int) (*serverXfer, error) {
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
		id: id, path: path, size: size, incoming: incoming,
		streams: streams, ln: ln, srv: s,
		chunks: make(map[int64][]byte),
		done:   make(chan error, 1),
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

// acceptStreams handles the data side of one transfer.
func (x *serverXfer) acceptStreams() {
	deadline := time.Now().Add(60 * time.Second)
	x.ln.(*net.TCPListener).SetDeadline(deadline)
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
	if !x.incoming {
		// RETR: split the file across streams by round-robin blocks.
		f, _, err := x.srv.store.Open(x.path)
		if err != nil {
			x.finish(err)
			return
		}
		defer f.Close()
		// Accept exactly x.streams connections (the client opens them).
		conns := make([]net.Conn, 0, x.streams)
		for len(conns) < x.streams {
			conn, err := x.ln.Accept()
			if err != nil {
				for _, c := range conns {
					c.Close()
				}
				x.finish(fmt.Errorf("gridftp: accepting data stream: %w", err))
				return
			}
			if _, _, err := readDataHello(conn, x.id); err != nil {
				conn.Close()
				continue
			}
			conns = append(conns, conn) // RETR only writes; buffered reader unused
		}
		var offMu sync.Mutex
		var off int64
		for _, conn := range conns {
			wg.Add(1)
			go func(conn net.Conn) {
				defer wg.Done()
				defer conn.Close()
				w := bufio.NewWriterSize(conn, blockSize+16)
				buf := make([]byte, blockSize)
				for {
					offMu.Lock()
					myOff := off
					if myOff >= x.size {
						offMu.Unlock()
						break
					}
					off += blockSize
					offMu.Unlock()
					n := blockSize
					if myOff+int64(n) > x.size {
						n = int(x.size - myOff)
					}
					if _, err := f.(io.ReaderAt).ReadAt(buf[:n], myOff); err != nil && err != io.EOF {
						fail(err)
						break
					}
					if err := writeBlock(w, uint64(myOff), buf[:n]); err != nil {
						fail(err)
						break
					}
				}
				writeBlock(w, 0, nil) // EOF block
				w.Flush()
			}(conn)
		}
		wg.Wait()
		x.finish(streamErr)
		return
	}
	// STOR: the client opens exactly x.streams data connections and ends
	// each with an EOF block — including streams that carry no data, when
	// the file has fewer blocks than streams. Accept and drain every one
	// before completing: the control reply that follows closes the
	// listener, and a stream still dialling would be refused.
	if x.size > 0 {
		for accepted := 0; accepted < x.streams; {
			conn, err := x.ln.Accept()
			if err != nil {
				fail(fmt.Errorf("gridftp: accepting data stream: %w", err))
				break
			}
			_, r, err := readDataHello(conn, x.id)
			if err != nil {
				conn.Close()
				continue
			}
			accepted++
			conn.SetReadDeadline(deadline)
			wg.Add(1)
			go func(conn net.Conn, r *bufio.Reader) {
				defer wg.Done()
				defer conn.Close()
				for {
					off, payload, err := readBlock(r)
					if err != nil {
						if err != io.EOF {
							fail(err)
						}
						return
					}
					if payload == nil {
						return // stream EOF
					}
					x.mu.Lock()
					x.chunks[int64(off)] = payload
					x.received += int64(len(payload))
					x.mu.Unlock()
				}
			}(conn, r)
		}
		wg.Wait()
	}
	if streamErr == nil && x.received != x.size {
		streamErr = fmt.Errorf("gridftp: received %d of %d bytes", x.received, x.size)
	}
	if streamErr != nil {
		x.finish(streamErr)
		return
	}
	// Reassemble in offset order and store.
	x.mu.Lock()
	offsets := make([]int64, 0, len(x.chunks))
	for off := range x.chunks {
		offsets = append(offsets, off)
	}
	x.mu.Unlock()
	sortInt64s(offsets)
	pr, pw := io.Pipe()
	go func() {
		for _, off := range offsets {
			x.mu.Lock()
			chunk := x.chunks[off]
			x.mu.Unlock()
			if _, err := pw.Write(chunk); err != nil {
				pw.CloseWithError(err)
				return
			}
		}
		pw.Close()
	}()
	_, err := x.srv.store.Put(x.path, pr)
	x.finish(err)
}

func sortInt64s(a []int64) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// thirdParty pushes a local file to another GridFTP server (server-side
// copy: data never touches the orchestrating client).
func (s *Server) thirdParty(src, remoteAddr, dst, token string, parallel int) (int64, error) {
	f, size, err := s.store.Open(src)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	c, err := Dial(remoteAddr, token)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	if err := c.SetParallel(parallel); err != nil {
		return 0, err
	}
	if err := c.StoreFrom(dst, f.(io.ReaderAt), size); err != nil {
		return 0, err
	}
	return size, nil
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
// returns the buffered reader wrapping conn. Callers MUST keep reading
// through the returned reader: it may already hold buffered payload bytes
// that arrived in the same TCP segment as the hello.
func readDataHello(conn net.Conn, wantID string) (stream int, r *bufio.Reader, err error) {
	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	r = bufio.NewReaderSize(conn, blockSize+16)
	line, err := r.ReadString('\n')
	if err != nil {
		return 0, nil, err
	}
	fields := strings.Fields(strings.TrimSpace(line))
	if len(fields) != 3 || fields[0] != "DATA" || fields[1] != wantID {
		return 0, nil, fmt.Errorf("gridftp: bad data hello %q", line)
	}
	n, err := strconv.Atoi(fields[2])
	if err != nil {
		return 0, nil, err
	}
	conn.SetReadDeadline(time.Time{})
	return n, r, nil
}
