package gridftp

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Client drives one GridFTP control connection.
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
	host string
}

// Dial connects and authenticates with the session token.
func Dial(addr, token string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 30*time.Second)
	if err != nil {
		return nil, fmt.Errorf("gridftp: dialing %s: %w", addr, err)
	}
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		host = "127.0.0.1"
	}
	c := &Client{
		conn: conn, host: host,
		r: bufio.NewReader(conn), w: bufio.NewWriter(conn),
	}
	if _, _, err := c.readReply(); err != nil { // 220 banner
		conn.Close()
		return nil, err
	}
	if code, msg, err := c.cmd("AUTH %s", token); err != nil || code != 230 {
		conn.Close()
		if err == nil {
			err = fmt.Errorf("gridftp: auth rejected: %s", msg)
		}
		return nil, err
	}
	return c, nil
}

// Close sends QUIT and closes the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	fmt.Fprintf(c.w, "QUIT\r\n")
	c.w.Flush()
	err := c.conn.Close()
	c.conn = nil
	return err
}

func (c *Client) cmd(format string, args ...any) (int, string, error) {
	fmt.Fprintf(c.w, format+"\r\n", args...)
	if err := c.w.Flush(); err != nil {
		return 0, "", err
	}
	return c.readReply()
}

func (c *Client) readReply() (int, string, error) {
	line, err := c.r.ReadString('\n')
	if err != nil {
		return 0, "", fmt.Errorf("gridftp: reading reply: %w", err)
	}
	line = strings.TrimSpace(line)
	if len(line) < 3 {
		return 0, "", fmt.Errorf("gridftp: short reply %q", line)
	}
	code, err := strconv.Atoi(line[:3])
	if err != nil {
		return 0, "", fmt.Errorf("gridftp: bad reply %q", line)
	}
	msg := strings.TrimSpace(line[3:])
	return code, msg, nil
}

// Size queries a remote file's size.
func (c *Client) Size(path string) (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	code, msg, err := c.cmd("SIZE %s", path)
	if err != nil {
		return 0, err
	}
	if code != 213 {
		return 0, fmt.Errorf("gridftp: SIZE %s: %s", path, msg)
	}
	return strconv.ParseInt(msg, 10, 64)
}

// OpenRange streams bytes [off, off+n) of a remote file in order (ERET).
// Block j of the range arrives on data stream j mod parallelism, so the
// stream reads one block from each connection in turn and needs no
// reassembly buffer. The control connection is busy until Close.
func (c *Client) OpenRange(path string, off, n int64) (io.ReadCloser, error) {
	c.mu.Lock()
	code, msg, err := c.cmd("ERET %s %d %d", path, off, n)
	if err == nil && code != 150 {
		err = fmt.Errorf("gridftp: ERET %s: %s", path, msg)
	}
	fields := strings.Fields(msg)
	if err == nil && len(fields) != 3 {
		err = fmt.Errorf("gridftp: malformed ERET grant %q", msg)
	}
	if err != nil {
		c.mu.Unlock()
		return nil, err
	}
	s := &rangeStream{c: c, next: off, end: off + n}
	for k := 0; k < parallelism; k++ {
		conn, err := net.DialTimeout("tcp", net.JoinHostPort(c.host, fields[1]), 30*time.Second)
		if err != nil {
			s.err = fmt.Errorf("gridftp: data stream: %w", err)
			s.Close()
			return nil, s.err
		}
		fmt.Fprintf(conn, "DATA %s %d\n", fields[0], k)
		s.conns = append(s.conns, conn)
		s.rs = append(s.rs, bufio.NewReaderSize(conn, blockSize+16))
	}
	return s, nil
}

// rangeStream is an ERET transfer read in order.
type rangeStream struct {
	c     *Client // nil once closed
	conns []net.Conn
	rs    []*bufio.Reader
	next  int64 // file offset of the next block
	end   int64
	blk   int    // blocks received
	cur   []byte // unread bytes of the current block
	err   error
}

func (s *rangeStream) Read(p []byte) (int, error) {
	if len(s.cur) == 0 {
		if s.err != nil {
			return 0, s.err
		}
		if s.next >= s.end {
			return 0, io.EOF
		}
		want := min(blockSize, s.end-s.next)
		off, payload, err := readBlock(s.rs[s.blk%len(s.rs)])
		switch {
		case err == io.EOF:
			err = io.ErrUnexpectedEOF
		case err == nil && (int64(off) != s.next || int64(len(payload)) != want):
			err = fmt.Errorf("got %d bytes at %d, want %d at %d", len(payload), off, want, s.next)
		}
		if err != nil {
			s.err = fmt.Errorf("gridftp: ERET stream: %w", err)
			return 0, s.err
		}
		s.cur, s.next = payload, s.next+want
		s.blk++
	}
	n := copy(p, s.cur)
	s.cur = s.cur[n:]
	return n, nil
}

// Close ends the transfer and frees the control connection. After the
// last byte it consumes each stream's EOF block and the completion reply;
// before it, it abandons the transfer, which the server reports failed.
func (s *rangeStream) Close() error {
	c := s.c
	if c == nil {
		return nil
	}
	s.c = nil
	defer c.mu.Unlock()
	complete := s.err == nil && s.next >= s.end
	for _, r := range s.rs {
		if !complete {
			break
		}
		if _, payload, err := readBlock(r); err != nil || payload != nil {
			s.err, complete = errors.New("gridftp: ERET stream did not end with its range"), false
		}
	}
	for _, conn := range s.conns {
		conn.Close()
	}
	code, msg, err := c.readReply()
	switch {
	case err != nil:
		return err
	case !complete:
		return s.err
	case code != 226:
		return fmt.Errorf("gridftp: ERET failed: %s", msg)
	}
	return nil
}

// ReaderAt gives random access to the size-byte remote file at path over
// this client's control connection. A read the last transfer does not
// cover fetches at least one block from its offset and keeps it for the
// reads that follow, so the small reads of a container's trailer, index
// and record-boundary lookups cost a handful of transfers.
func (c *Client) ReaderAt(path string, size int64) io.ReaderAt {
	return &remoteFile{c: c, path: path, size: size}
}

type remoteFile struct {
	c    *Client
	path string
	size int64

	mu   sync.Mutex
	base int64 // file offset of buf
	buf  []byte
}

func (f *remoteFile) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, errors.New("gridftp: negative offset")
	}
	if off >= f.size {
		return 0, io.EOF
	}
	end := min(off+int64(len(p)), f.size)
	f.mu.Lock()
	defer f.mu.Unlock()
	if off < f.base || end > f.base+int64(len(f.buf)) {
		rc, err := f.c.OpenRange(f.path, off, max(end-off, min(blockSize, f.size-off)))
		if err != nil {
			return 0, err
		}
		buf, err := io.ReadAll(rc)
		if cerr := rc.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return 0, err
		}
		f.base, f.buf = off, buf
	}
	n := copy(p, f.buf[off-f.base:end-f.base])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}
