package core

import (
	"crypto/tls"
	"errors"
	"fmt"
	"time"

	"github.com/ipa-grid/ipa/internal/catalog"
	"github.com/ipa-grid/ipa/internal/codeloader"
	"github.com/ipa-grid/ipa/internal/gsi"
	"github.com/ipa-grid/ipa/internal/merge"
	"github.com/ipa-grid/ipa/internal/relay"
	"github.com/ipa-grid/ipa/internal/rmi"
	"github.com/ipa-grid/ipa/internal/session"
	"github.com/ipa-grid/ipa/internal/shard"
)

// ManagerConfig wires a manager node.
type ManagerConfig struct {
	// Sessions is the composed session service.
	Sessions *session.Service
	// Catalog backs the Dataset Catalog Service.
	Catalog *catalog.Catalog
	// Merge is the AIDA result fabric: a single merge.Manager or a
	// shard.Router. Engines publish to it and the session service resets
	// it in process; over RMI its front door ("AIDAManager") serves Poll
	// only.
	Merge merge.Service
	// ShardManagers are the fabric's member shards, each additionally
	// registered under shard.ObjectName(name) (Poll only) so clients can
	// poll the owning shard directly. Empty for an unsharded deployment.
	ShardManagers map[string]*merge.Manager
	// Relays are the locally-hosted read relays, each registered under
	// relay.ObjectName(name) so clients can dial their assigned relay
	// directly for reads. Empty when the fabric has no relay tier.
	Relays map[string]*relay.Relay
	// VO authorizes operations (nil = allow all authenticated users;
	// an insecure manager then allows everyone — test mode only).
	VO *gsi.VO
	// Host credential + CA pool put the control object on a GSI
	// mutual-TLS listener.
	Host  *gsi.Credential
	Roots *gsi.CA
	// EngineCount reported to clients.
	EngineCount int
}

// ControlObject is the RMI name of the manager's control object: session
// creation, catalog browsing and every per-session operation (§3.2–3.6).
const ControlObject = "Manager"

// unauthenticated is the identity an insecure manager serves callers as.
const unauthenticated = "(unauthenticated)"

// Manager is the running manager node — the "IPA Service Element" box of
// Figure 2. One RMI server carries the control object and the AIDA result
// fabric. It listens twice: on Addr() for the control plane — GSI mutual
// TLS when Host/Roots are set, the peer verified once per connection — and
// on RMIAddr() for the data plane, plain TCP where every call is a Poll
// of the live session whose token it carries (§3.7).
type Manager struct {
	cfg     ManagerConfig
	RMI     *rmi.Server
	secure  bool
	addr    string
	rmiAddr string
}

// NewManager assembles the services and starts the control listener on
// controlAddr and the data listener on rmiAddr. Pass ":0" style addresses
// to pick free ports.
func NewManager(cfg ManagerConfig, controlAddr, rmiAddr string) (*Manager, error) {
	if cfg.Sessions == nil || cfg.Catalog == nil || cfg.Merge == nil {
		return nil, fmt.Errorf("core: incomplete manager configuration")
	}
	m := &Manager{cfg: cfg, secure: cfg.Host != nil && cfg.Roots != nil}
	m.RMI = rmi.NewServer(nil)
	// The data plane serves reads only, and a token reads only its own
	// session: every data-plane call must be a Poll of the live session
	// the token opens (so an unknown session is refused too).
	m.RMI.SetCallCheck(func(token, object string, arg any) error {
		if object == ControlObject {
			return nil // authenticated by grid identity, authorized per operation
		}
		sid, err := cfg.Sessions.ValidateToken(token)
		if err != nil {
			return err
		}
		if p, ok := arg.(*merge.PollArgs); !ok || p.SessionID != sid {
			return errors.New("core: a session token reads only its own session")
		}
		return nil
	})
	// The wrappers expose Poll alone: rmi.Register would otherwise serve
	// every RMI-shaped method, the fabric's writes and admin calls
	// (Publish, Reset, SessionList, Export, DropSession, ...) included.
	objects := map[string]any{
		ControlObject:       &control{m},
		merge.RMIObjectName: struct{ relay.Poller }{cfg.Merge},
	}
	for name, mgr := range cfg.ShardManagers {
		objects[shard.ObjectName(name)] = struct{ relay.Poller }{mgr}
	}
	for name, rel := range cfg.Relays {
		objects[relay.ObjectName(name)] = struct{ relay.Poller }{rel}
	}
	for name, obj := range objects {
		if err := m.RMI.Register(name, obj); err != nil {
			return nil, err
		}
	}
	addr, err := m.RMI.ListenAndServe(rmiAddr)
	if err != nil {
		return nil, fmt.Errorf("core: rmi listener: %w", err)
	}
	m.rmiAddr = addr.String()
	if m.secure {
		roots := cfg.Roots.Pool()
		addr, err = m.RMI.ListenAndServeTLS(controlAddr, gsi.ServerTLSConfig(cfg.Host, roots),
			func(cs tls.ConnectionState) (string, time.Time, error) {
				id, err := gsi.PeerIdentity(cs, roots)
				if err != nil {
					return "", time.Time{}, err
				}
				return id.DN, id.Expires, nil
			})
	} else {
		addr, err = m.RMI.ListenAndServe(controlAddr)
	}
	if err != nil {
		m.RMI.Close()
		return nil, fmt.Errorf("core: control listener: %w", err)
	}
	m.addr = addr.String()
	// Advertise the locally-hosted shards' endpoint so clients can learn
	// it from Placement and poll the owning shard directly. Shards
	// served by other nodes are advertised by the operator through
	// Router.SetShardAddr.
	if router, ok := cfg.Merge.(*shard.Router); ok {
		for name := range cfg.ShardManagers {
			router.SetShardAddr(name, m.rmiAddr)
		}
		for name := range cfg.Relays {
			router.SetRelayAddr(name, m.rmiAddr)
		}
	}
	return m, nil
}

// Addr returns the control endpoint address.
func (m *Manager) Addr() string { return m.addr }

// RMIAddr returns the AIDA manager RMI address.
func (m *Manager) RMIAddr() string { return m.rmiAddr }

// Close stops both listeners.
func (m *Manager) Close() { m.RMI.Close() }

// control is the manager's control object. Every operation runs the VO
// check for its gsi.Operation against the caller's verified identity;
// session operations also require the caller to own the session.
type control struct{ m *Manager }

// caller authorizes op for the identity an RMI call carried and returns
// the DN to act as. A secure manager refuses a call without a verified
// identity (one that arrived over plain TCP); an insecure one serves
// everyone as "(unauthenticated)".
func (c *control) caller(dn string, op gsi.Operation) (string, error) {
	if c.m.secure && dn == "" {
		return "", errors.New("core: control call without a verified grid identity")
	}
	if vo := c.m.cfg.VO; vo != nil {
		var id *gsi.Identity
		if dn != "" {
			id = &gsi.Identity{DN: dn}
		}
		if err := vo.Authorize(id, op); err != nil {
			return "", err
		}
	}
	if dn == "" {
		dn = unauthenticated
	}
	return dn, nil
}

// owner authorizes op like caller, then requires the caller to own the
// session the request addresses.
func (c *control) owner(r SessionRequest, op gsi.Operation) error {
	dn, err := c.caller(r.DN, op)
	if err != nil {
		return err
	}
	sess, err := c.m.cfg.Sessions.Get(r.SessionID)
	if err != nil {
		return err
	}
	if sess.OwnerDN != dn {
		return fmt.Errorf("core: %s does not own session %s", dn, r.SessionID)
	}
	return nil
}

// CreateSession starts a session owned by the caller.
func (c *control) CreateSession(args CreateSessionRequest, reply *CreateSessionResponse) error {
	dn, err := c.caller(args.DN, gsi.OpCreateSession)
	if err != nil {
		return err
	}
	sess, err := c.m.cfg.Sessions.Create(dn)
	if err != nil {
		return err
	}
	*reply = CreateSessionResponse{
		SessionID: sess.ID, Token: sess.Token,
		Engines: c.m.cfg.EngineCount, RMIAddr: c.m.rmiAddr,
	}
	return nil
}

// ListCatalog browses one catalog directory.
func (c *control) ListCatalog(args CatalogListRequest, reply *CatalogListResponse) error {
	if _, err := c.caller(args.DN, gsi.OpReadCatalog); err != nil {
		return err
	}
	if args.Path == "" {
		args.Path = "/"
	}
	infos, err := c.m.cfg.Catalog.List(args.Path)
	if err != nil {
		return err
	}
	*reply = catalogEntries(infos)
	return nil
}

// QueryCatalog searches datasets by metadata.
func (c *control) QueryCatalog(args CatalogQueryRequest, reply *CatalogListResponse) error {
	if _, err := c.caller(args.DN, gsi.OpReadCatalog); err != nil {
		return err
	}
	infos, err := c.m.cfg.Catalog.Query(args.Query)
	if err != nil {
		return err
	}
	*reply = catalogEntries(infos)
	return nil
}

// AttachDataset stages a dataset into the session.
func (c *control) AttachDataset(args AttachRequest, reply *AttachResponse) error {
	if err := c.owner(args.SessionRequest, gsi.OpStageData); err != nil {
		return err
	}
	rep, err := c.m.cfg.Sessions.AttachDataset(args.SessionID, args.DatasetID)
	if err != nil {
		return err
	}
	*reply = AttachResponse{
		SizeMB: rep.SizeMB, Parts: rep.Parts,
		MoveWholeMS: rep.MoveWhole.Milliseconds(),
		SplitMS:     rep.Split.Milliseconds(),
		MovePartsMS: rep.MoveParts.Milliseconds(),
		Imbalance:   rep.Imbalance,
		Replica:     rep.ReplicaURL,
	}
	return nil
}

// LoadCode ships an analysis bundle to every engine of the session.
func (c *control) LoadCode(args LoadCodeRequest, reply *LoadCodeResponse) error {
	if err := c.owner(args.SessionRequest, gsi.OpControlRun); err != nil {
		return err
	}
	params := map[string]string{}
	for _, kv := range args.Params {
		params[kv.Key] = kv.Value
	}
	stored, err := c.m.cfg.Sessions.LoadCode(args.SessionID, codeloader.Bundle{
		Name:     args.Name,
		Language: codeloader.Language(args.Language),
		Source:   args.Source,
		Analysis: args.Analysis,
		Decoder:  args.Decoder,
		Params:   params,
	})
	if err != nil {
		return err
	}
	*reply = LoadCodeResponse{Version: stored.Version, Hash: stored.Hash, Bytes: stored.SizeBytes()}
	return nil
}

// Control applies a run-control verb to every engine of the session.
func (c *control) Control(args ControlRequest, reply *OK) error {
	if err := c.owner(args.SessionRequest, gsi.OpControlRun); err != nil {
		return err
	}
	return c.m.cfg.Sessions.Control(args.SessionID, session.Action(args.Action), args.N)
}

// Status reports the session and its engines.
func (c *control) Status(args SessionRequest, reply *StatusResponse) error {
	if err := c.owner(args, gsi.OpPollResults); err != nil {
		return err
	}
	st, err := c.m.cfg.Sessions.Status(args.SessionID)
	if err != nil {
		return err
	}
	*reply = StatusResponse{
		State: string(st.State), Dataset: st.Dataset, Bundle: st.Bundle,
		Shard: st.Shard, ShardAddr: st.ShardAddr,
		RelayName: st.RelayName, RelayAddr: st.RelayAddr,
		PlacementGen: st.PlacementGen, ResultEpoch: st.ResultEpoch,
		Replica: st.Replica, ReplicaChain: st.ReplicaChain,
		Publishes: st.Publishes, Polls: st.Polls, FastPolls: st.FastPolls,
		ReplicaLag: st.ReplicaLag,
	}
	for _, e := range st.Engines {
		reply.Engines = append(reply.Engines, EngineStatusRow{
			Node: e.Node, State: string(e.State), Err: e.Err, Done: e.Done, Total: e.Total,
		})
	}
	return nil
}

// CloseSession tears the session down.
func (c *control) CloseSession(args SessionRequest, reply *OK) error {
	if err := c.owner(args, gsi.OpControlRun); err != nil {
		return err
	}
	c.m.cfg.Sessions.Close(args.SessionID)
	return nil
}

func catalogEntries(infos []catalog.Info) CatalogListResponse {
	var resp CatalogListResponse
	for _, info := range infos {
		e := CatalogEntry{Path: info.Path, IsDir: info.IsDir}
		for k, v := range info.Attrs {
			e.Attrs = append(e.Attrs, KV{k, v})
		}
		if info.Dataset != nil {
			e.ID = info.Dataset.ID
			e.Name = info.Dataset.Name
			e.SizeMB = info.Dataset.SizeMB
			e.Records = info.Dataset.Records
			e.Format = info.Dataset.Format
		}
		resp.Entries = append(resp.Entries, e)
	}
	return resp
}

// sweepLoop keeps session lifetimes honest; started by LocalGrid.
func (m *Manager) sweepLoop(interval time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			m.cfg.Sessions.Sweep(time.Now())
		case <-stop:
			return
		}
	}
}
