package shard

import (
	"github.com/ipa-grid/ipa/internal/merge"
	"github.com/ipa-grid/ipa/internal/rmi"
)

// ObjectName is the RMI registration name of one shard's manager on its
// node — "AIDAShard:" + the shard's fabric name. Shard-aware clients
// poll the owning shard directly under it; engines keep publishing to
// the fabric's front door (merge.RMIObjectName).
func ObjectName(shard string) string { return "AIDAShard:" + shard }

// Remote adapts an RMI connection into a Backend for shards hosted on
// other nodes. All Backend calls are RMI-shaped Manager methods, so the
// remote side must register the whole *merge.Manager; a manager node's
// token-gated data endpoint exposes only Poll under ObjectName.
type Remote struct {
	client *rmi.Client
	object string
	pub    *merge.RemotePublisher
}

// NewRemote wraps an RMI connection to a shard's manager. object is the
// remote registration name ("" = merge.RMIObjectName).
func NewRemote(client *rmi.Client, object string) *Remote {
	if object == "" {
		object = merge.RMIObjectName
	}
	return &Remote{client: client, object: object, pub: merge.NewRemotePublisher(client, object)}
}

// Publish implements Backend over the wire.
func (r *Remote) Publish(args merge.PublishArgs, reply *merge.PublishReply) error {
	return r.pub.Publish(args, reply)
}

// Poll implements Backend over the wire.
func (r *Remote) Poll(args merge.PollArgs, reply *merge.PollReply) error {
	return r.client.Call(r.object+".Poll", args, reply)
}

// Reset implements Backend over the wire.
func (r *Remote) Reset(args merge.ResetArgs, reply *merge.ResetReply) error {
	return r.client.Call(r.object+".Reset", args, reply)
}

// Export implements Backend over the wire.
func (r *Remote) Export(args merge.ExportArgs, reply *merge.ExportReply) error {
	return r.client.Call(r.object+".Export", args, reply)
}

// Import implements Backend over the wire.
func (r *Remote) Import(args merge.ImportArgs, reply *merge.ImportReply) error {
	return r.client.Call(r.object+".Import", args, reply)
}

// Stats implements Backend over the wire.
func (r *Remote) Stats(args merge.StatsArgs, reply *merge.StatsReply) error {
	return r.client.Call(r.object+".Stats", args, reply)
}

// Seal implements Backend over the wire.
func (r *Remote) Seal(args merge.SealArgs, reply *merge.SealReply) error {
	return r.client.Call(r.object+".Seal", args, reply)
}

// DropSession implements Backend over the wire.
func (r *Remote) DropSession(args merge.DropArgs, reply *merge.DropReply) error {
	return r.client.Call(r.object+".DropSession", args, reply)
}

// SessionList implements Backend over the wire.
func (r *Remote) SessionList(args merge.SessionsArgs, reply *merge.SessionsReply) error {
	return r.client.Call(r.object+".SessionList", args, reply)
}

// Mirror implements Backend over the wire.
func (r *Remote) Mirror(args merge.MirrorArgs, reply *merge.MirrorReply) error {
	return r.client.Call(r.object+".Mirror", args, reply)
}

// Promote implements Backend over the wire.
func (r *Remote) Promote(args merge.PromoteArgs, reply *merge.PromoteReply) error {
	return r.client.Call(r.object+".Promote", args, reply)
}

// Fence implements Backend over the wire.
func (r *Remote) Fence(args merge.FenceArgs, reply *merge.FenceReply) error {
	return r.client.Call(r.object+".Fence", args, reply)
}

var _ Backend = (*Remote)(nil)
