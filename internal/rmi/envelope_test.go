// Envelope coverage: the binary header negotiated at dial must be
// transparent to callers — same results, same error surface, same
// pipelining — and a peer that does not negotiate is turned away.
package rmi

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestV2IsTheNegotiatedDefault(t *testing.T) {
	_, addr := startServer(t, nil)
	// The server acks the magic a dialing client leads with.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if err := negotiate(raw); err != nil {
		t.Fatalf("server did not ack the envelope magic: %v", err)
	}
	c, err := Dial(addr, "tok")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var sum float64
	if err := c.Call("Calc.Add", addArgs{A: 2, B: 3}, &sum); err != nil || sum != 5 {
		t.Fatalf("Add over v2 = %v, %v", sum, err)
	}
}

// TestPeerWithoutMagicIsDisconnected: a peer that does not lead with the
// magic (an old gob client, or anything else) is dropped unanswered.
func TestPeerWithoutMagicIsDisconnected(t *testing.T) {
	_, addr := startServer(t, nil)
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Write([]byte("GET / HTTP/1.0\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := raw.Read(make([]byte, 16))
	if n != 0 || !errors.Is(err, io.EOF) {
		t.Fatalf("server answered a peer without the magic: %d bytes, err %v", n, err)
	}
}

// TestFailedNegotiationIsDialError: a listener that never acks the magic
// fails the dial — after every WithRetry attempt — instead of yielding
// a client.
func TestFailedNegotiationIsDialError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var accepted sync.WaitGroup
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			go func() {
				defer accepted.Done()
				// Read the magic, answer with something else, hang up.
				io.ReadFull(conn, make([]byte, len(envMagic)))
				conn.Write([]byte("NOPE"))
				conn.Close()
			}()
		}
	}()
	c, err := Dial(ln.Addr().String(), "tok", WithRetry(RetryPolicy{Attempts: 2, Base: time.Millisecond}))
	if err == nil {
		c.Close()
		t.Fatal("dial against a peer that never acks the magic succeeded")
	}
	if !strings.Contains(err.Error(), "negotiation") {
		t.Fatalf("dial error %v does not name the negotiation", err)
	}
	ln.Close()
	accepted.Wait()
}

// TestV2ErrorSurfaceMatchesGob: remote failures surface exactly as the
// original gob envelope surfaced them — a RemoteError carrying the
// message — and leave the connection usable.
func TestV2ErrorSurfaceMatchesGob(t *testing.T) {
	_, addr := startServer(t, nil)
	c, err := Dial(addr, "tok")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var out string
	err = c.Call("Calc.Fail", struct{}{}, &out)
	var re RemoteError
	if !errors.As(err, &re) || !strings.Contains(err.Error(), "deliberate failure") {
		t.Fatalf("Fail error = %v, want RemoteError with message", err)
	}
	if err := c.Call("NoSuch.Method", struct{}{}, &out); err == nil || !strings.Contains(err.Error(), "no object") {
		t.Fatalf("unknown object error = %v", err)
	}
	if err := c.Call("Calc.NoSuch", struct{}{}, &out); err == nil || !strings.Contains(err.Error(), "no method") {
		t.Fatalf("unknown method error = %v", err)
	}
	// The connection must stay usable after every rejection — the
	// persistent payload codec may not desync.
	var sum float64
	if err := c.Call("Calc.Add", addArgs{A: 1, B: 2}, &sum); err != nil || sum != 3 {
		t.Fatalf("Add after rejections = %v, %v", sum, err)
	}
}

func TestV2ConcurrentPipelinedCalls(t *testing.T) {
	_, addr := startServer(t, nil)
	c, err := Dial(addr, "tok")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const callers, calls = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				var sum float64
				a, b := float64(g), float64(i)
				if err := c.Call("Calc.Add", addArgs{A: a, B: b}, &sum); err != nil {
					errs <- err
					return
				}
				if sum != a+b {
					errs <- fmt.Errorf("caller %d call %d: reply %v, want %v", g, i, sum, a+b)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestV2ComplexPayloadRoundTrip(t *testing.T) {
	_, addr := startServer(t, nil)
	c, err := Dial(addr, "tok")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	in := echoArgs{Msg: strings.Repeat("x", 4096), Nums: []int{1, 2, 3}, Map: map[string]string{"k": "v"}}
	var out echoArgs
	if err := c.Call("Echo.Echo", in, &out); err != nil {
		t.Fatal(err)
	}
	if out.Msg != in.Msg || len(out.Nums) != 3 || out.Map["k"] != "v" {
		t.Fatalf("echo mangled the payload: %+v", out)
	}
}
