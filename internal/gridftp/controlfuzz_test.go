package gridftp

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/ipa-grid/ipa/internal/storage"
)

// fuzzFile is the one file of the fuzzed storage element, at /f.
var fuzzFile = randBytes(1000, 3)

// controlConn is the server's end of a net.Pipe whose reads come from
// the fuzz input instead: the control stream ends where the input does,
// while replies still reach the harness over the pipe.
type controlConn struct {
	net.Conn
	in io.Reader
}

func (c controlConn) Read(p []byte) (int, error) { return c.in.Read(p) }

// controlSeeds returns control streams as a client writes them, cut at
// every length, plus ranges at edge offsets and lengths, commands
// refused before AUTH, and lines at and past maxLine.
func controlSeeds() [][]byte {
	size := int64(len(fuzzFile))
	streams := []string{
		"AUTH tok\r\nSIZE /f\r\nERET /f 0 1000\r\nERET /f 10 20\r\nQUIT\r\n",
		"SIZE /f\r\nERET /f 0 1\r\nAUTH bad\r\nAUTH tok\r\neret /f 999 1\r\n",
		"AUTH tok\r\nSIZE /missing\r\nERET / 0 0\r\nERET /f 1\r\nSTOR /f 1\r\nRETR /f\r\nSIZE ../../f\r\n",
	}
	var seeds [][]byte
	for _, s := range streams {
		for i := 0; i <= len(s); i++ {
			seeds = append(seeds, []byte(s[:i]))
		}
	}
	edges := []int64{-1, 0, 1, size - 1, size, size + 1, math.MaxInt64}
	for _, off := range edges {
		for _, n := range edges {
			seeds = append(seeds, []byte(fmt.Sprintf("AUTH tok\nERET /f %d %d\n", off, n)))
		}
	}
	seeds = append(seeds, []byte("AUTH tok\nERET /f 0 18446744073709551616\n"))
	// Lines of maxLine bytes and one more, before and after AUTH: the
	// longer ones are refused and end the connection.
	long := strings.Repeat("x", maxLine)
	for _, s := range []string{long[:maxLine-2] + "\r\nQUIT\r\n", long + "\nQUIT\r\n", "AUTH tok\r\nSIZE /f" + long + "\r\n"} {
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

// FuzzGridFTPControl feeds arbitrary bytes as the control stream of one
// connection to a server holding one small file, behind a token check.
// The harness answers every ERET grant by opening its data streams and
// draining them. Every reply must be one line with a 3-digit code, no
// command but AUTH and QUIT may succeed before AUTH does, every granted
// range must lie inside the file and arrive as the file's bytes, and the
// server must return once the input ends.
func FuzzGridFTPControl(f *testing.F) {
	for _, s := range controlSeeds() {
		f.Add(s)
	}
	store, err := storage.New("se-fuzz", f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	if err := store.PutBytes("/f", fuzzFile); err != nil {
		f.Fatal(err)
	}
	srv := NewServer(store, func(token string) error {
		if token != "tok" {
			return errors.New("wrong token")
		}
		return nil
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		end, cli := net.Pipe()
		defer cli.Close()
		served := make(chan struct{})
		go func() {
			defer close(served)
			srv.serveControl(controlConn{end, bytes.NewReader(data)})
		}()
		cli.SetReadDeadline(time.Now().Add(10 * time.Second))
		r := bufio.NewReader(cli)
		authed := false
		for {
			line, err := r.ReadString('\n')
			if errors.Is(err, io.EOF) && line == "" {
				break
			}
			if err != nil {
				t.Fatalf("reading replies: %q, %v", line, err)
			}
			body, ok := strings.CutSuffix(line, "\r\n")
			if !ok || len(body) < 3 || len(body) > 3 && body[3] != ' ' || strings.ContainsAny(body, "\r\n") {
				t.Fatalf("malformed reply %q", line)
			}
			code, err := strconv.Atoi(body[:3])
			if err != nil || code < 100 {
				t.Fatalf("reply %q has no 3-digit code", line)
			}
			switch {
			case code == 230:
				authed = true
			case !authed && code != 220 && code != 221 && code != 530:
				t.Fatalf("reply %q before AUTH succeeded", line)
			}
			if code == 150 {
				serveGrant(t, srv, body)
			}
		}
		select {
		case <-served:
		case <-time.After(10 * time.Second):
			t.Fatal("server still serving after the control stream ended")
		}
	})
}

// serveGrant checks the transfer a "150 <id> <port> <n>" grant names
// and reads its data streams as a client does.
func serveGrant(t *testing.T, srv *Server, grant string) {
	t.Helper()
	fields := strings.Fields(grant)
	if len(fields) != 4 {
		t.Fatalf("malformed grant %q", grant)
	}
	n, err := strconv.ParseInt(fields[3], 10, 64)
	if err != nil {
		t.Fatalf("grant %q: %v", grant, err)
	}
	srv.mu.Lock()
	x := srv.xfers[fields[1]]
	srv.mu.Unlock()
	size := int64(len(fuzzFile))
	if x == nil || x.size != n || x.off < 0 || x.size < 0 || x.off > size || x.size > size-x.off {
		t.Fatalf("grant %q outside the %d-byte file", grant, size)
	}
	// The server sends nothing until all its streams are open.
	var streams []*bufio.Reader
	for k := 0; k < parallelism; k++ {
		conn, err := net.DialTimeout("tcp", net.JoinHostPort("127.0.0.1", fields[2]), 10*time.Second)
		if err != nil {
			t.Fatalf("grant %q: %v", grant, err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		fmt.Fprintf(conn, "DATA %s %d\n", fields[1], k)
		streams = append(streams, bufio.NewReader(conn))
	}
	var got int64
	for k, br := range streams {
		for {
			off, payload, err := readBlock(br)
			if err != nil {
				t.Fatalf("grant %q stream %d: %v", grant, k, err)
			}
			if payload == nil {
				break
			}
			o := int64(off)
			if o < x.off || o > x.off+x.size-int64(len(payload)) || !bytes.Equal(payload, fuzzFile[o:o+int64(len(payload))]) {
				t.Fatalf("grant %q stream %d: %d bytes at %d are not the file's", grant, k, len(payload), o)
			}
			got += int64(len(payload))
		}
	}
	if got != n {
		t.Fatalf("grant %q: streams carried %d bytes", grant, got)
	}
}
