package core

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/ipa-grid/ipa/internal/catalog"
	"github.com/ipa-grid/ipa/internal/codeloader"
	"github.com/ipa-grid/ipa/internal/engine"
	"github.com/ipa-grid/ipa/internal/events"
	"github.com/ipa-grid/ipa/internal/gsi"
	"github.com/ipa-grid/ipa/internal/locator"
	"github.com/ipa-grid/ipa/internal/merge"
	"github.com/ipa-grid/ipa/internal/relay"
	"github.com/ipa-grid/ipa/internal/scheduler"
	"github.com/ipa-grid/ipa/internal/session"
	"github.com/ipa-grid/ipa/internal/shard"
	"github.com/ipa-grid/ipa/internal/storage"
)

// GridOptions size a LocalGrid.
type GridOptions struct {
	// Nodes is the worker-node count (default 4).
	Nodes int
	// EnginesPerSession is the site policy (default = Nodes).
	EnginesPerSession int
	// BaseDir hosts storage elements (default: a temp dir).
	BaseDir string
	// Insecure serves the manager's control object over plain TCP
	// instead of GSI mutual TLS, skipping authentication — only for
	// focused tests.
	Insecure bool
	// SnapshotEvery tunes engine snapshot frequency (default 500).
	SnapshotEvery int
	// Shards selects the merge fabric width: 1 (default) serves results
	// from a single manager, >1 spreads sessions across that many
	// manager shards behind a consistent-hash router.
	Shards int
	// RebalanceInterval starts a load balancer on the sharded fabric
	// that probes per-session publish+poll rates and migrates the
	// hottest sessions off overloaded shards (0 = no balancer; ignored
	// when unsharded).
	RebalanceInterval time.Duration
	// RebalanceMaxMoves / RebalanceBand tune the balancer policy (0
	// selects the defaults: 2 moves per round, 0.25 hysteresis band).
	RebalanceMaxMoves int
	RebalanceBand     float64
	// HealthInterval starts a shard health prober (0 = none; ignored
	// when unsharded); HealthFails is the consecutive-failure threshold
	// before a shard is marked dead (0 = 3).
	HealthInterval time.Duration
	HealthFails    int
	// Replicate mirrors every accepted publish to a per-session replica
	// chain, so a shard death promotes the deepest caught-up replica
	// (epoch-fenced) instead of evicting the sessions to empty. Needs
	// Shards > 1; off by default (the DisableReplication ablation
	// baseline).
	Replicate bool
	// ReplicaDepth is the replica chain length K per session (0 = 1, the
	// single-standby default). Ignored unless Replicate is on.
	ReplicaDepth int
	// AntiEntropyInterval starts the chain-repair loop: every interval
	// each session's replica chain is compared against the owner by
	// (epoch, version) and drifted or stalled copies are re-baselined
	// (0 = no loop; ignored unless Replicate is on).
	AntiEntropyInterval time.Duration
	// WALDir, when set, gives every shard manager an append-only
	// snapshot/delta log under this directory, replayed on startup — a
	// restarted manager rejoins with its sessions intact. WALSyncEvery
	// batches fsyncs (0 = every record).
	WALDir       string
	WALSyncEvery int
	// Relays starts that many read relays on the sharded fabric: each
	// follows the owning shard once per session, waking on every commit,
	// and re-serves any number of client polls from its local mirrored
	// copy (0 = none; needs Shards > 1).
	Relays int
}

// LocalGrid is a complete single-process Grid site on loopback TCP:
// CA + VO, an N-node scheduler with interactive and batch queues,
// shared-disk and per-node scratch storage elements, the merge manager,
// and a manager node serving RMI (control over GSI mutual TLS) —
// everything the paper's Figure 2 shows, with real protocols end to end.
type LocalGrid struct {
	CA      *gsi.CA
	VO      *gsi.VO
	Cluster *scheduler.Cluster
	Catalog *catalog.Catalog
	Locator *locator.Service
	// Merge is the result fabric engines publish into: a bare manager,
	// or (Shards > 1) the Router over ShardMgrs.
	Merge merge.Service
	// Router is non-nil on a sharded grid (== Merge).
	Router *shard.Router
	// Balancer / Health / AntiEntropy are the placement policy loops,
	// non-nil when the corresponding interval option enabled them on a
	// sharded grid.
	Balancer    *shard.Balancer
	Health      *shard.Health
	AntiEntropy *shard.AntiEntropy
	// ShardMgrs are the fabric's member managers by shard name.
	ShardMgrs map[string]*merge.Manager
	// Relays are the read fan-out tier's mirrors by relay name,
	// non-empty when GridOptions.Relays asked for them.
	Relays  map[string]*relay.Relay
	Loader  *codeloader.Loader
	Shared  *storage.Element
	Manager *Manager
	Session *session.Service

	baseDir string
	opts    GridOptions
	wals    []*merge.WAL

	mu      sync.Mutex
	scratch map[string]*storage.Element
	users   map[string]*gsi.Credential
	stop    chan struct{}
}

// NewLocalGrid stands the site up.
func NewLocalGrid(opts GridOptions) (*LocalGrid, error) {
	if opts.Nodes <= 0 {
		opts.Nodes = 4
	}
	if opts.EnginesPerSession <= 0 {
		opts.EnginesPerSession = opts.Nodes
	}
	if opts.BaseDir == "" {
		dir, err := os.MkdirTemp("", "ipa-grid-*")
		if err != nil {
			return nil, err
		}
		opts.BaseDir = dir
	}
	if opts.SnapshotEvery <= 0 {
		opts.SnapshotEvery = 500
	}
	g := &LocalGrid{
		opts: opts, baseDir: opts.BaseDir,
		scratch: make(map[string]*storage.Element),
		users:   make(map[string]*gsi.Credential),
		stop:    make(chan struct{}),
	}

	// Security fabric.
	ca, err := gsi.NewCA("IPA LocalGrid CA")
	if err != nil {
		return nil, err
	}
	g.CA = ca
	g.VO = gsi.NewVO("lc-vo")

	// Compute element: nodes + the dedicated interactive queue (§2.3).
	var nodes []scheduler.NodeConfig
	for i := 0; i < opts.Nodes; i++ {
		nodes = append(nodes, scheduler.NodeConfig{Name: fmt.Sprintf("node%02d", i), Slots: 1})
	}
	cluster, err := scheduler.New(nodes, []scheduler.QueueConfig{
		{Name: "interactive", Priority: 10, Preempting: true},
		{Name: "batch", Priority: 1, Preemptible: true},
	})
	if err != nil {
		return nil, err
	}
	g.Cluster = cluster

	// Storage: shared disk + per-node scratch.
	g.Shared, err = storage.New("shared", filepath.Join(opts.BaseDir, "shared"))
	if err != nil {
		return nil, err
	}
	for i := 0; i < opts.Nodes; i++ {
		name := fmt.Sprintf("node%02d", i)
		el, err := storage.New(name, filepath.Join(opts.BaseDir, "scratch", name))
		if err != nil {
			return nil, err
		}
		g.scratch[name] = el
	}

	// Services.
	g.Catalog = catalog.New()
	g.Locator = locator.New()
	if opts.Shards > 1 {
		// Sharded merge fabric: sessions spread across managers by
		// consistent hashing; everything publishes/polls via the router.
		g.Router = shard.NewRouter(0)
		g.Router.Replicate = opts.Replicate
		g.Router.ReplicaDepth = opts.ReplicaDepth
		g.ShardMgrs = make(map[string]*merge.Manager, opts.Shards)
		for i := 0; i < opts.Shards; i++ {
			name := fmt.Sprintf("shard%02d", i)
			mgr := merge.NewManager()
			if opts.WALDir != "" {
				w, err := attachWAL(mgr, opts.WALDir, name, opts.WALSyncEvery)
				if err != nil {
					return nil, err
				}
				g.wals = append(g.wals, w)
			}
			g.ShardMgrs[name] = mgr
			if err := g.Router.AddShard(name, mgr); err != nil {
				return nil, err
			}
		}
		g.Merge = g.Router
		if opts.RebalanceInterval > 0 {
			g.Balancer = shard.NewBalancer(g.Router)
			g.Balancer.Interval = opts.RebalanceInterval
			g.Balancer.MaxMoves = opts.RebalanceMaxMoves
			g.Balancer.Band = opts.RebalanceBand
			g.Balancer.Start()
		}
		if opts.HealthInterval > 0 {
			g.Health = shard.NewHealth(g.Router)
			g.Health.Interval = opts.HealthInterval
			g.Health.Threshold = opts.HealthFails
			g.Health.Start()
		}
		if opts.Replicate && opts.WALDir != "" {
			// WAL-backed replica handoff: a promoted copy inherits the
			// dead primary's durable log tail for its session before the
			// promotion stamps the new epoch.
			walDir := opts.WALDir
			g.Router.WALTail = func(deadShard, sessionID, targetShard string) (int, error) {
				target, ok := g.ShardMgrs[targetShard]
				if !ok {
					return 0, fmt.Errorf("core: no local manager for shard %q", targetShard)
				}
				return merge.ReplaySessionInto(filepath.Join(walDir, deadShard+".wal"), sessionID, target)
			}
		}
		if opts.Replicate && opts.AntiEntropyInterval > 0 {
			g.AntiEntropy = shard.NewAntiEntropy(g.Router)
			g.AntiEntropy.Interval = opts.AntiEntropyInterval
			g.AntiEntropy.Start()
		}
		if opts.Relays > 0 {
			// Read fan-out tier: relays subscribe to the owners through
			// the router's relay-bypassing origin poller and the router
			// routes client reads to them.
			g.Relays = make(map[string]*relay.Relay, opts.Relays)
			for i := 0; i < opts.Relays; i++ {
				name := fmt.Sprintf("relay%02d", i)
				rel := relay.New(name, g.Router.OriginPoller())
				rel.Interval = relay.ParkBound
				rel.AutoSubscribe = true
				g.Relays[name] = rel
				if err := g.Router.AddRelay(name, rel); err != nil {
					return nil, err
				}
			}
			g.Router.RelayReads = true
		}
	} else {
		mgr := merge.NewManager()
		if opts.WALDir != "" {
			w, err := attachWAL(mgr, opts.WALDir, "manager", opts.WALSyncEvery)
			if err != nil {
				return nil, err
			}
			g.wals = append(g.wals, w)
		}
		g.Merge = mgr
	}
	g.Loader = codeloader.New()

	sessions, err := session.New(session.Config{
		Cluster: cluster,
		NewEngine: func(sessionID, workerID string) *engine.Engine {
			return engine.New(engine.Config{
				SessionID:     sessionID,
				WorkerID:      workerID,
				Publisher:     g.Merge,
				SnapshotEvery: opts.SnapshotEvery,
			})
		},
		Locator: g.Locator, Catalog: g.Catalog,
		Merge: g.Merge, Loader: g.Loader, SharedDisk: g.Shared,
		WorkerScratch: func(node string) (*storage.Element, error) {
			g.mu.Lock()
			defer g.mu.Unlock()
			el := g.scratch[node]
			if el == nil {
				return nil, fmt.Errorf("core: no scratch for node %q", node)
			}
			return el, nil
		},
		Engines: opts.EnginesPerSession,
		Queue:   "interactive",
		Site:    "local",
	})
	if err != nil {
		return nil, err
	}
	g.Session = sessions

	mgrCfg := ManagerConfig{
		Sessions: sessions, Catalog: g.Catalog, Merge: g.Merge,
		ShardManagers: g.ShardMgrs, Relays: g.Relays,
		EngineCount: opts.EnginesPerSession,
	}
	if !opts.Insecure {
		host, err := ca.IssueHost("ipa-manager", []string{"localhost", "127.0.0.1"}, 24*time.Hour)
		if err != nil {
			return nil, err
		}
		mgrCfg.Host = host
		mgrCfg.Roots = ca
		mgrCfg.VO = g.VO
	}
	mgr, err := NewManager(mgrCfg, "127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	g.Manager = mgr
	go mgr.sweepLoop(time.Minute, g.stop)
	return g, nil
}

// AddUser enrolls a person: CA-issued certificate plus VO membership.
func (g *LocalGrid) AddUser(cn string, roles ...gsi.Role) (*gsi.Credential, error) {
	cred, err := g.CA.IssueUser(g.VO.Name(), cn, 12*time.Hour)
	if err != nil {
		return nil, err
	}
	if len(roles) == 0 {
		roles = []gsi.Role{gsi.RoleAnalyst}
	}
	g.VO.Add(cred.DN(), []string{"higgs"}, roles...)
	g.VO.MapAccount(cred.DN(), cn)
	g.mu.Lock()
	g.users[cn] = cred
	g.mu.Unlock()
	return cred, nil
}

// ClientFor builds a connected client for a user: obtain proxy → connect
// (step 1 of Figure 2).
func (g *LocalGrid) ClientFor(cn string) (*Client, error) {
	g.mu.Lock()
	cred := g.users[cn]
	g.mu.Unlock()
	if cred == nil {
		return nil, fmt.Errorf("core: no user %q (AddUser first)", cn)
	}
	if g.opts.Insecure {
		return Connect(g.Manager.Addr(), nil, nil)
	}
	proxy, err := gsi.NewProxy(cred, 2*time.Hour)
	if err != nil {
		return nil, err
	}
	return Connect(g.Manager.Addr(), proxy, g.CA)
}

// PublishDataset generates an LC event dataset, registers it in the
// catalog and the locator (as a file:// replica), and returns its ID —
// the ipa-gen workflow condensed for tests and examples.
func (g *LocalGrid) PublishDataset(id, dir, name string, nEvents int, cfg events.GenConfig, attrs map[string]string) error {
	path := filepath.Join(g.baseDir, "published", id+".ipa")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	bytes, err := events.GenerateFile(path, cfg, nEvents)
	if err != nil {
		return err
	}
	ref := catalog.DatasetRef{
		ID: id, Name: name, SizeMB: float64(bytes) / (1 << 20),
		Records: int64(nEvents), Format: events.EventDecoderName,
	}
	if err := g.Catalog.AddDataset(dir, ref, attrs); err != nil {
		return err
	}
	return g.Locator.Register(id, locator.Replica{URL: "file://" + path, Site: "local", Priority: 5})
}

// Scratch exposes a node's scratch element (tests).
func (g *LocalGrid) Scratch(node string) *storage.Element {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.scratch[node]
}

// Close tears the whole site down.
func (g *LocalGrid) Close() {
	close(g.stop)
	if g.Balancer != nil {
		g.Balancer.Stop()
	}
	if g.Health != nil {
		g.Health.Stop()
	}
	if g.AntiEntropy != nil {
		g.AntiEntropy.Stop()
	}
	for _, id := range g.Session.Sessions() {
		g.Session.Close(id)
	}
	for _, rel := range g.Relays {
		rel.Close()
	}
	g.Manager.Close()
	g.Cluster.Close()
	for _, w := range g.wals {
		w.Close()
	}
}

// attachWAL opens (creating the directory if needed) a manager's
// append-only log, replays whatever a previous incarnation left there —
// a restarted manager rejoins with its sessions intact — and attaches
// it for future appends.
func attachWAL(mgr *merge.Manager, dir, name string, syncEvery int) (*merge.WAL, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	w, err := merge.OpenWAL(filepath.Join(dir, name+".wal"), merge.WALOptions{SyncEvery: syncEvery})
	if err != nil {
		return nil, err
	}
	if _, err := w.Replay(mgr); err != nil {
		w.Close()
		return nil, err
	}
	mgr.SetWAL(w)
	return w, nil
}
