// Fault injection: a server can be told to error, drop, or delay a
// configurable fraction of dispatched calls, driven by a seeded
// deterministic stream — so retry tests exercise real
// partial failures (lost replies, hung calls, broken connections)
// reproducibly instead of only clean process kills.

package rmi

import (
	"sync/atomic"
	"time"
)

// Faults configures injected failures on a server. Fractions are in
// [0,1] and evaluated per dispatched call, in order: error, then drop,
// then delay (one fault per call).
type Faults struct {
	// Seed drives the deterministic per-call stream; the same seed and
	// call order reproduce the same faults.
	Seed uint64
	// ErrorFrac answers the call with an injected RemoteError.
	ErrorFrac float64
	// DropFrac severs the connection without answering — the caller
	// sees a broken transport, exactly like a mid-call crash.
	DropFrac float64
	// DelayFrac stalls the connection's read loop for Delay before the
	// call proceeds — pipelined requests behind it queue, like a
	// congested or flaky link.
	DelayFrac float64
	Delay     time.Duration
	// KillAfter, when > 0, arms a deterministic crash: the first
	// KillAfter dispatched calls proceed normally (modulo the fractions
	// above), then every later call severs its connection unanswered —
	// the server is "dead" from a precise point in the call stream on.
	// Tests use this to kill a server mid-call-stream instead of at a
	// tidy boundary.
	KillAfter uint64
}

// ErrInjected is the message injected error replies carry.
const ErrInjected = "rmi: injected fault"

type faultKind int

const (
	faultNone faultKind = iota
	faultError
	faultDrop
	faultDelay
)

// faultState pairs the config with the call counter feeding the stream.
type faultState struct {
	f Faults
	n atomic.Uint64
}

// decide rolls the next value of the seeded stream into a fault kind.
func (fs *faultState) decide() faultKind {
	n := fs.n.Add(1)
	if fs.f.KillAfter > 0 && n > fs.f.KillAfter {
		return faultDrop // armed kill: dead from this point in the stream on
	}
	// splitmix64 over seed+counter: stateless, race-free, reproducible.
	x := fs.f.Seed + 0x9e3779b97f4a7c15*n
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	r := float64(x>>11) / float64(1<<53)
	switch {
	case r < fs.f.ErrorFrac:
		return faultError
	case r < fs.f.ErrorFrac+fs.f.DropFrac:
		return faultDrop
	case r < fs.f.ErrorFrac+fs.f.DropFrac+fs.f.DelayFrac:
		return faultDelay
	default:
		return faultNone
	}
}

// SetFaults installs (or, with nil, clears) fault injection. Takes
// effect on the next dispatched call; connections stay up.
func (s *Server) SetFaults(f *Faults) {
	if f == nil {
		s.faults.Store(nil)
		return
	}
	s.faults.Store(&faultState{f: *f})
}
