// Trace propagation: a compact trace context (trace ID, span ID, hop
// count) that rides the publish/mirror argument structs in process, so
// one engine publish can be followed through router → owning shard →
// mirror replica → WAL. The context is
// deliberately tiny (two IDs and a hop counter, no baggage): injecting
// it costs two atomic random draws and copying it across a hop costs a
// struct assignment.

package obs

import (
	"fmt"
	randv2 "math/rand/v2"
)

// TraceContext identifies one traced operation as it crosses the
// fabric. The zero value means "untraced".
type TraceContext struct {
	// TraceID groups every span of one logical operation (an engine
	// publish and all its downstream mirrors share it).
	TraceID uint64
	// SpanID identifies this hop's span within the trace.
	SpanID uint64
	// Hop counts forwarding hops from the origin (0 at injection).
	Hop uint32
}

// Valid reports whether the context carries a trace.
func (t TraceContext) Valid() bool { return t.TraceID != 0 }

// String renders the context for logs and event details.
func (t TraceContext) String() string {
	return fmt.Sprintf("%016x/%016x@%d", t.TraceID, t.SpanID, t.Hop)
}

// NewTrace mints a fresh root context (hop 0). Returns the zero
// (untraced) context while recording is disabled, so the ablation
// baseline pays nothing — not even the random draws.
func NewTrace() TraceContext {
	if disabled.Load() {
		return TraceContext{}
	}
	return TraceContext{TraceID: nonzero64(), SpanID: nonzero64()}
}

// NextHop derives the context for the next hop: same trace, fresh span,
// hop count advanced. The zero context stays zero.
func (t TraceContext) NextHop() TraceContext {
	if !t.Valid() {
		return t
	}
	return TraceContext{TraceID: t.TraceID, SpanID: nonzero64(), Hop: t.Hop + 1}
}

// nonzero64 draws a nonzero random ID (the zero ID means "untraced").
func nonzero64() uint64 {
	for {
		if v := randv2.Uint64(); v != 0 {
			return v
		}
	}
}
