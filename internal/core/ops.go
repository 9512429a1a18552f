// Package core assembles the IPA framework: the manager node that hosts
// every service of Figure 2, the client the scientist drives (the JAS3
// analogue), and an in-process LocalGrid that stands up a complete Grid
// site — CA, VO, scheduler, storage elements, GridFTP, manager — on
// loopback TCP with real protocols.
package core

// Wire payloads for the operations of the manager's control object
// (ControlObject), carried over RMI. One request/response struct pair per
// operation.

// Caller carries the caller's verified grid identity into a control
// operation. The RMI server overwrites it on every call with the DN its
// TLS connection verified ("" on plain TCP), so a client cannot forge it.
type Caller struct{ DN string }

// SetPeer implements rmi.PeerSetter.
func (c *Caller) SetPeer(dn string) { c.DN = dn }

// CreateSessionRequest starts a session (CreateSession).
type CreateSessionRequest struct{ Caller }

// CreateSessionResponse returns the session "pointer" (§3.2) and the
// token guarding RMI and GridFTP access.
type CreateSessionResponse struct {
	SessionID string
	Token     string
	Engines   int
	RMIAddr   string
}

// CatalogListRequest browses one catalog directory (ListCatalog).
type CatalogListRequest struct {
	Caller
	Path string
}

// CatalogQueryRequest searches the catalog (QueryCatalog).
type CatalogQueryRequest struct {
	Caller
	Query string
}

// CatalogEntry is one browse/search row.
type CatalogEntry struct {
	Path    string
	IsDir   bool
	ID      string
	Name    string
	SizeMB  float64
	Records int64
	Format  string
	Attrs   []KV
}

// KV is one metadata pair on the wire.
type KV struct {
	Key   string
	Value string
}

// CatalogListResponse returns browse rows.
type CatalogListResponse struct {
	Entries []CatalogEntry
}

// SessionRequest addresses one session (Status, CloseSession); the
// other session operations embed it.
type SessionRequest struct {
	Caller
	SessionID string
}

// AttachRequest stages a dataset into the session (AttachDataset).
type AttachRequest struct {
	SessionRequest
	DatasetID string
}

// AttachResponse reports staging phase timings (Table 2's columns).
type AttachResponse struct {
	SizeMB      float64
	Parts       int
	MoveWholeMS int64
	SplitMS     int64
	MovePartsMS int64
	Imbalance   float64
	Replica     string
}

// LoadCodeRequest ships an analysis bundle (LoadCode).
type LoadCodeRequest struct {
	SessionRequest
	Name     string
	Language string
	Source   string
	Analysis string
	Decoder  string
	Params   []KV
}

// LoadCodeResponse acknowledges with the assigned version.
type LoadCodeResponse struct {
	Version int
	Hash    string
	Bytes   int
}

// ControlRequest drives the run (Control).
type ControlRequest struct {
	SessionRequest
	Action string
	N      int64
}

// EngineStatusRow is one engine row in a status report.
type EngineStatusRow struct {
	Node  string
	State string
	Err   string
	Done  int64
	Total int64
}

// StatusResponse summarizes the session.
type StatusResponse struct {
	State   string
	Dataset string
	Bundle  string
	// Shard names the merge-fabric shard serving this session's results
	// (empty on an unsharded deployment).
	Shard string
	// ShardAddr is the RMI endpoint serving that shard directly (empty
	// when unadvertised); polling clients may dial it to skip the
	// router hop.
	ShardAddr string
	// RelayName names the read relay assigned to this session's polls
	// (empty when the fabric has no relay tier or relay reads are off).
	RelayName string
	// RelayAddr is the RMI endpoint serving that relay (empty when
	// unadvertised); polling clients should prefer it for reads and keep
	// writes on the owning shard.
	RelayAddr string
	// PlacementGen is the fabric's placement-table generation — it bumps
	// on every topology edit, rebalance move, or fault eviction (0 when
	// unsharded).
	PlacementGen uint64
	// DeadShards lists fabric shards currently marked unreachable by the
	// health prober.
	DeadShards []string
	// ResultEpoch stamps the session's merge-state incarnation: it
	// changes when the state is rebuilt (failover promotion or
	// post-fault re-baseline), telling incremental pollers to discard
	// their mirror and full-resync.
	ResultEpoch int64
	// Replica names the shard holding the session's first standby copy
	// (empty when replication is off); ReplicaChain lists the whole
	// replica chain in order for depth-K fabrics.
	Replica      string
	ReplicaChain []string
	// Publishes / Polls are the session's cumulative merge-traffic
	// counters; FastPolls is the subset of polls served on the lock-free
	// quiescent path (fast-path poll ratio = FastPolls/Polls).
	Publishes int64
	Polls     int64
	FastPolls int64
	// ReplicaLag is how many merged-result versions the standby trails
	// the owner (0 when unreplicated or caught up).
	ReplicaLag int64
	Engines    []EngineStatusRow
}

// OK is the empty acknowledgement.
type OK struct{}
