package gridftp

import (
	"bufio"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"
)

// byteRun reads as n copies of one byte without holding them.
type byteRun struct {
	n int64
	b byte
}

func (r *byteRun) Read(p []byte) (int, error) {
	if r.n == 0 {
		return 0, io.EOF
	}
	p = p[:min(int64(len(p)), r.n)]
	for i := range p {
		p[i] = r.b
	}
	r.n -= int64(len(p))
	return len(p), nil
}

// replies runs one control connection over in and returns the server's
// replies in order, up to the connection's close.
func replies(t *testing.T, srv *Server, in io.Reader) []string {
	t.Helper()
	end, cli := net.Pipe()
	defer cli.Close()
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.serveControl(controlConn{end, in})
	}()
	cli.SetReadDeadline(time.Now().Add(10 * time.Second))
	var out []string
	r := bufio.NewReader(cli)
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			if !errors.Is(err, io.EOF) {
				t.Fatalf("reading replies after %q: %v", out, err)
			}
			break
		}
		out = append(out, strings.TrimSuffix(line, "\r\n"))
	}
	select {
	case <-served:
	case <-time.After(10 * time.Second):
		t.Fatal("server still serving after refusing the line")
	}
	return out
}

// TestOverlongControlLineRefused: 32 MiB without a line break is refused
// by one reply once maxLine bytes are in, and the connection closes; the
// server holds no more of the line than that. Before AUTH the refusal is
// the 530 every other line but AUTH and QUIT draws there.
func TestOverlongControlLineRefused(t *testing.T) {
	srv := NewServer(nil, func(token string) error {
		if token != "tok" {
			return errors.New("wrong token")
		}
		return nil
	})
	const n = 32 << 20
	for _, tc := range []struct {
		name, prefix string
		want         []string
	}{
		{"unauthenticated", "", []string{"220", "530"}},
		{"authenticated", "AUTH tok\r\nSIZE", []string{"220", "230", "500"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := io.MultiReader(strings.NewReader(tc.prefix), &byteRun{n: n, b: 'x'})
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			got := replies(t, srv, in)
			runtime.ReadMemStats(&after)
			if len(got) != len(tc.want) {
				t.Fatalf("replies %q, want codes %q", got, tc.want)
			}
			for i, code := range tc.want {
				if !strings.HasPrefix(got[i], code+" ") {
					t.Fatalf("reply %d is %q, want code %s", i, got[i], code)
				}
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
				t.Fatalf("a %d-byte line allocated %d bytes", n, grew)
			}
		})
	}
}

// TestUnauthenticatedConnectionTimesOut: a connection behind a token
// check that never sends AUTH is closed once authWait passes, and one
// that authenticates is not.
func TestUnauthenticatedConnectionTimesOut(t *testing.T) {
	defer func(d time.Duration) { authWait = d }(authWait)
	authWait = 100 * time.Millisecond
	_, store, addr := newServer(t, func(string) error { return nil })
	if err := store.PutBytes("/f", []byte("abc")); err != nil {
		t.Fatal(err)
	}

	idle, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	idle.SetReadDeadline(time.Now().Add(10 * time.Second))
	r := bufio.NewReader(idle)
	if line, err := r.ReadString('\n'); err != nil || !strings.HasPrefix(line, "220 ") {
		t.Fatalf("greeting %q, %v", line, err)
	}
	if line, err := r.ReadString('\n'); !errors.Is(err, io.EOF) {
		t.Fatalf("a silent connection read %q, %v; want it closed", line, err)
	}

	c, err := Dial(addr, "tok")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	time.Sleep(3 * authWait)
	if n, err := c.Size("/f"); err != nil || n != 3 {
		t.Fatalf("SIZE on an authenticated connection after authWait = %d, %v", n, err)
	}
}

// TestDataHelloBounded: a data connection's hello longer than maxLine is
// refused without reading on.
func TestDataHelloBounded(t *testing.T) {
	end, peer := net.Pipe()
	defer end.Close()
	go func() {
		io.Copy(peer, &byteRun{n: 1 << 20, b: 'x'})
		peer.Close()
	}()
	if _, err := readDataHello(end, "x1"); !errors.Is(err, errLineTooLong) {
		t.Fatalf("readDataHello = %v, want errLineTooLong", err)
	}
}
