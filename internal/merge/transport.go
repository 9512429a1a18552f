// Snapshot transport: the one delta-native uplink every tier of the
// merge hierarchy publishes through. Engines send their result trees to
// a manager, SubMergers (the §2.5 hierarchy of ablation A2) forward
// their group totals upstream, and relays republish into their local
// copy, all via the same generation-stamped protocol: incremental
// DeltaState snapshots by default, a full baseline on the first send,
// after a transport failure, and whenever the receiver asks for a
// resync (NeedFull). Centralizing the seq/re-baseline state machine
// here is what lets multi-level hierarchies compose: each hop speaks
// exactly the protocol the next hop's Publish expects.
package merge

import (
	"errors"
	"fmt"
	"sync"

	"github.com/ipa-grid/ipa/internal/aida"
	"github.com/ipa-grid/ipa/internal/obs"
	"github.com/ipa-grid/ipa/internal/rmi"
)

// Publisher abstracts where a transport sends snapshots: the root
// manager directly, a SubMerger, or an RMI connection in a
// remote-worker deployment.
type Publisher interface {
	Publish(args PublishArgs, reply *PublishReply) error
}

// Snapshot is one transport send's payload: a delta plus the progress
// and log lines that ride along.
type Snapshot struct {
	// Delta is the incremental snapshot. The builder must honor the
	// full flag it was given: when asked for a baseline, Delta.Full
	// must be set and Entries must carry the producer's entire state.
	Delta *aida.DeltaState
	// Done / Total drive the receiver's progress display.
	Done, Total int64
	// Log carries accumulated analysis output since the last send.
	Log string
}

// Transport is the delta-native snapshot uplink for one producer
// (engine or SubMerger). It owns the generation stamp (PublishArgs.Seq)
// and the re-baseline state machine, and hands outgoing states its
// adaptive wire-compression policy. Safe for concurrent use; sends are
// serialized, which the generation ordering requires anyway.
type Transport struct {
	mu       sync.Mutex
	session  string
	worker   string
	upstream Publisher
	// policy makes the per-frame wire-compression choice: small or
	// incompressible frames ship plain.
	policy      *aida.CompressionPolicy
	gen         int64
	needFull    bool
	rebaselines int64
}

// NewTransport creates a transport publishing to upstream as workerID
// within sessionID.
func NewTransport(sessionID, workerID string, upstream Publisher) *Transport {
	return &Transport{
		session: sessionID, worker: workerID, upstream: upstream,
		policy: aida.NewCompressionPolicy(),
	}
}

// CompressionStats reports how many frames the transport's adaptive
// policy compressed and skipped.
func (t *Transport) CompressionStats() (compressed, skipped int64) {
	return t.policy.Stats()
}

// Generation returns the stamp of the last send (0 before the first).
func (t *Transport) Generation() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.gen
}

// Rebaselines counts the sends after the first that were forced to
// carry a full baseline (receiver NeedFull or a transport failure) — a
// shard handoff surfaces here as exactly one re-baseline per producer.
func (t *Transport) Rebaselines() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rebaselines
}

var errEmptySnapshot = errors.New("merge: transport snapshot carries no delta")

// Send builds and publishes one snapshot. The builder receives whether
// this send must be a full baseline (first send, post-failure, or
// receiver-requested resync) and returns the payload; a builder error
// aborts the send without consuming a generation. On a transport
// failure the next send re-baselines, because the delta's dirty bits
// are already consumed and its changes would otherwise be lost.
func (t *Transport) Send(build func(full bool) (Snapshot, error)) (PublishReply, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	full := t.needFull || t.gen == 0
	snap, err := build(full)
	if err != nil {
		return PublishReply{}, err
	}
	if snap.Delta == nil {
		return PublishReply{}, errEmptySnapshot
	}
	if t.needFull && t.gen > 0 {
		t.rebaselines++
	}
	t.gen++
	args := PublishArgs{
		SessionID: t.session, WorkerID: t.worker, Seq: t.gen,
		EventsDone: snap.Done, EventsTotal: snap.Total, Log: snap.Log,
		// Every publish originates a trace here (free while obs is
		// disabled: NewTrace returns the untraced zero context), so one
		// engine snapshot is followable through router, owner shard,
		// mirror replica, and WAL.
		Trace: obs.NewTrace(),
		Delta: snap.Delta,
	}
	snap.Delta.SetCompressionPolicy(t.policy)
	var reply PublishReply
	if err := t.upstream.Publish(args, &reply); err != nil {
		t.needFull = true
		return PublishReply{}, fmt.Errorf("merge: publishing snapshot %d: %w", t.gen, err)
	}
	t.needFull = reply.NeedFull || !reply.Accepted
	return reply, nil
}

// RemotePublisher adapts an RMI connection into a Publisher for
// deployments where the next merge tier lives on another node.
type RemotePublisher struct {
	client *rmi.Client
	object string
	target string
}

// RMIObjectName is the registration name of the AIDA manager on the
// RMI server (see core.Manager).
const RMIObjectName = "AIDAManager"

// NewRemotePublisher wraps an RMI connection. object is the remote
// registration name ("" = RMIObjectName).
func NewRemotePublisher(client *rmi.Client, object string) *RemotePublisher {
	if object == "" {
		object = RMIObjectName
	}
	return &RemotePublisher{client: client, object: object, target: object + ".Publish"}
}

// Publish implements Publisher over the wire.
func (p *RemotePublisher) Publish(args PublishArgs, reply *PublishReply) error {
	return p.client.Call(p.target, args, reply)
}

var (
	_ Publisher = (*Manager)(nil)
	_ Publisher = (*SubMerger)(nil)
	_ Publisher = (*RemotePublisher)(nil)
	_ Service   = (*Manager)(nil)
)
