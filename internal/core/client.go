package core

import (
	"crypto/x509"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/ipa-grid/ipa/internal/aida"
	"github.com/ipa-grid/ipa/internal/gsi"
	"github.com/ipa-grid/ipa/internal/merge"
	"github.com/ipa-grid/ipa/internal/relay"
	"github.com/ipa-grid/ipa/internal/rmi"
	"github.com/ipa-grid/ipa/internal/session"
	"github.com/ipa-grid/ipa/internal/shard"
)

// Client is the scientist's tool — the JAS3-with-plug-ins analogue. It
// follows the four steps of Figure 1: connect securely and create a
// session; select a dataset and submit it for analysis; initiate runs
// with custom code; collect and display merged results.
type Client struct {
	ctl *rmi.Client // the manager's control object (GSI TLS when secure)
	rmi *rmi.Client // the result channel (token-gated plain TCP)

	sessionID string
	token     string
	engines   int
	rmiAddr   string

	mu   sync.Mutex
	tree *aida.Tree // client-side mirror of the merged results
	// cur is how far the mirror has read the session's merged state; its
	// resync rule tells when the mirror must be rebuilt.
	cur merge.Cursor

	// Direct shard polling (SetDirectPoll): a second RMI connection to
	// the session's owning shard, bypassing the router hop.
	direct       bool
	directRMI    *rmi.Client
	directShard  string
	directTarget string
}

// Connect authenticates to a manager's control endpoint. proxy may be nil
// only for insecure (test) managers; ca supplies the trust anchors.
func Connect(addr string, proxy *gsi.Proxy, ca *gsi.CA) (*Client, error) {
	if proxy == nil {
		return ConnectWithPool(addr, nil, nil)
	}
	if ca == nil {
		return nil, fmt.Errorf("core: proxy given without CA pool")
	}
	return ConnectWithPool(addr, proxy, ca.Pool())
}

// ConnectWithPool is Connect with an explicit trust-anchor pool (used by
// external clients that load the CA certificate from disk).
func ConnectWithPool(addr string, proxy *gsi.Proxy, roots *x509.CertPool) (*Client, error) {
	var opts []rmi.Option
	if proxy != nil {
		cfg := gsi.ClientTLSConfig(proxy, roots)
		cfg.ServerName = "localhost"
		opts = append(opts, rmi.WithTLS(cfg))
	}
	ctl, err := rmi.Dial(addr, "", opts...)
	if err != nil {
		return nil, fmt.Errorf("core: connecting to manager: %w", err)
	}
	return &Client{ctl: ctl, tree: aida.NewTree()}, nil
}

// call invokes one operation of the manager's control object.
func (c *Client) call(method string, args, reply any) error {
	return c.ctl.Call(ControlObject+"."+method, args, reply)
}

// sessionArgs addresses the client's session in a control request.
func (c *Client) sessionArgs() SessionRequest { return SessionRequest{SessionID: c.sessionID} }

// CreateSession performs step 2 of Figure 2: create the session resource
// and connect the result-polling plug-in to the RMI endpoint.
func (c *Client) CreateSession() error {
	var resp CreateSessionResponse
	if err := c.call("CreateSession", CreateSessionRequest{}, &resp); err != nil {
		return err
	}
	c.sessionID = resp.SessionID
	c.mu.Lock()
	c.cur.Session = resp.SessionID
	c.mu.Unlock()
	c.token = resp.Token
	c.engines = resp.Engines
	c.rmiAddr = resp.RMIAddr
	rc, err := rmi.Dial(resp.RMIAddr, resp.Token, rmi.WithRetry(clientRetry))
	if err != nil {
		return fmt.Errorf("core: connecting result channel: %w", err)
	}
	c.rmi = rc
	return nil
}

// clientRetry is the dial policy for result-channel connections: a
// manager restarting (WAL replay) or briefly partitioned should cost a
// few backoff waits, not a dead client. Bounded so a truly gone
// endpoint still errors promptly.
var clientRetry = rmi.RetryPolicy{Attempts: 4, Base: 50 * time.Millisecond, Max: time.Second}

// SessionID returns the active session's ID.
func (c *Client) SessionID() string { return c.sessionID }

// Token returns the session token (for GridFTP uploads etc.).
func (c *Client) Token() string { return c.token }

// Engines returns the per-session engine count policy.
func (c *Client) Engines() int { return c.engines }

// ListCatalog browses a catalog directory (the Figure 3 dialog).
func (c *Client) ListCatalog(path string) ([]CatalogEntry, error) {
	var resp CatalogListResponse
	if err := c.call("ListCatalog", CatalogListRequest{Path: path}, &resp); err != nil {
		return nil, err
	}
	return resp.Entries, nil
}

// QueryCatalog searches datasets by metadata.
func (c *Client) QueryCatalog(q string) ([]CatalogEntry, error) {
	var resp CatalogListResponse
	if err := c.call("QueryCatalog", CatalogQueryRequest{Query: q}, &resp); err != nil {
		return nil, err
	}
	return resp.Entries, nil
}

// StagingTimes reports an attach's phase durations in milliseconds.
type StagingTimes struct {
	SizeMB    float64
	Parts     int
	MoveWhole int64
	Split     int64
	MoveParts int64
	Imbalance float64
}

// AttachDataset selects and stages a dataset (steps 4–5 of Figure 2).
func (c *Client) AttachDataset(datasetID string) (StagingTimes, error) {
	var resp AttachResponse
	if err := c.call("AttachDataset", AttachRequest{SessionRequest: c.sessionArgs(), DatasetID: datasetID}, &resp); err != nil {
		return StagingTimes{}, err
	}
	return StagingTimes{
		SizeMB: resp.SizeMB, Parts: resp.Parts,
		MoveWhole: resp.MoveWholeMS, Split: resp.SplitMS, MoveParts: resp.MovePartsMS,
		Imbalance: resp.Imbalance,
	}, nil
}

// LoadScript ships interpreter source as the session's analysis code.
func (c *Client) LoadScript(name, source, decoder string, params map[string]string) (version int, err error) {
	return c.loadCode(LoadCodeRequest{
		Name: name, Language: "script", Source: source, Decoder: decoder, Params: kvs(params),
	})
}

// LoadNative selects a pre-installed analysis by name.
func (c *Client) LoadNative(name, analysisName string, params map[string]string) (version int, err error) {
	return c.loadCode(LoadCodeRequest{
		Name: name, Language: "native", Analysis: analysisName, Params: kvs(params),
	})
}

func kvs(params map[string]string) []KV {
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]KV, 0, len(keys))
	for _, k := range keys {
		out = append(out, KV{k, params[k]})
	}
	return out
}

func (c *Client) loadCode(req LoadCodeRequest) (int, error) {
	req.SessionRequest = c.sessionArgs()
	var resp LoadCodeResponse
	if err := c.call("LoadCode", req, &resp); err != nil {
		return 0, err
	}
	return resp.Version, nil
}

// Run starts the analysis on every engine.
func (c *Client) Run() error { return c.control(session.ActionRun, 0) }

// Pause suspends all engines.
func (c *Client) Pause() error { return c.control(session.ActionPause, 0) }

// Stop halts and rewinds all engines.
func (c *Client) Stop() error { return c.control(session.ActionStop, 0) }

// Rewind restarts the analysis from the first event (fresh histograms,
// newest code).
func (c *Client) Rewind() error { return c.control(session.ActionRewind, 0) }

// Step runs n events on every engine then pauses.
func (c *Client) Step(n int64) error { return c.control(session.ActionStep, n) }

func (c *Client) control(a session.Action, n int64) error {
	return c.call("Control", ControlRequest{SessionRequest: c.sessionArgs(), Action: string(a), N: n}, &OK{})
}

// Status fetches the session status.
func (c *Client) Status() (StatusResponse, error) {
	var resp StatusResponse
	err := c.call("Status", c.sessionArgs(), &resp)
	return resp, err
}

// Update is the result of one poll cycle.
type Update struct {
	// Changed reports whether anything new arrived.
	Changed bool
	// ChangedPaths lists the object paths that were updated.
	ChangedPaths []string
	// Progress summarizes every engine.
	Progress []merge.WorkerProgress
	// Logs carries new analysis print() output.
	Logs []string
	// EventsDone/EventsTotal aggregate progress over engines.
	EventsDone, EventsTotal int64
}

// SetDirectPoll toggles shard-aware polling. When on, Poll learns the
// session's owning shard and its RMI endpoint from Session.Status and
// calls the shard's manager object directly — heavy pollers skip the
// router hop on every poll. The direct path falls back to the fabric's
// front door (and re-resolves placement on the next poll) whenever it
// errors or the shard no longer owns the session: after a live handoff
// the old owner's tombstone answers with a regressed version, which is
// the signal to re-resolve. On an unsharded or unadvertised deployment
// the toggle quietly turns itself back off after the first resolution
// attempt.
func (c *Client) SetDirectPoll(on bool) {
	c.mu.Lock()
	c.direct = on
	rc := c.directRMI
	c.directRMI, c.directShard, c.directTarget = nil, "", ""
	c.mu.Unlock()
	if rc != nil {
		rc.Close()
	}
}

// DirectShard names the shard the client is currently polling directly
// ("" while polling via the router).
func (c *Client) DirectShard() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.directShard
}

// ensureDirect returns a live direct-shard connection and Poll target,
// resolving placement and dialing on first use. ("", nil) means poll
// via the router.
func (c *Client) ensureDirect() (*rmi.Client, string) {
	c.mu.Lock()
	if !c.direct {
		c.mu.Unlock()
		return nil, ""
	}
	if c.directRMI != nil {
		rc, target := c.directRMI, c.directTarget
		c.mu.Unlock()
		return rc, target
	}
	c.mu.Unlock()
	st, err := c.Status()
	if err != nil {
		return nil, ""
	}
	var addr, label, target string
	switch {
	case st.RelayName != "" && st.RelayAddr != "":
		// The fabric assigned this session a read relay: poll it instead
		// of the owning shard, so the shard's bandwidth stays with
		// writers. The relay serves its own mirror (own version counter
		// and epoch); the epoch-resync rule absorbs the switch.
		addr = st.RelayAddr
		label = "relay:" + st.RelayName
		target = relay.ObjectName(st.RelayName) + ".Poll"
	case st.Shard == "":
		// Unsharded fabric: there is no hop to skip, ever — stop
		// re-resolving on every poll.
		c.mu.Lock()
		c.direct = false
		c.mu.Unlock()
		return nil, ""
	case st.ShardAddr == "":
		// A real shard whose endpoint just isn't advertised (yet): keep
		// direct mode armed and retry resolution on a later poll — the
		// operator may SetShardAddr at any time, or a handoff may move
		// the session to an advertised shard.
		return nil, ""
	default:
		addr = st.ShardAddr
		label = st.Shard
		target = shard.ObjectName(st.Shard) + ".Poll"
	}
	rc, err := rmi.Dial(addr, c.token, rmi.WithRetry(clientRetry))
	if err != nil {
		return nil, ""
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.direct || c.directRMI != nil {
		// Lost a race with SetDirectPoll or a concurrent resolver.
		go rc.Close()
		return c.directRMI, c.directTarget
	}
	c.directRMI = rc
	c.directShard = label
	c.directTarget = target
	return rc, c.directTarget
}

// dropDirect discards the direct connection; the next poll re-resolves
// placement.
func (c *Client) dropDirect() {
	c.mu.Lock()
	rc := c.directRMI
	c.directRMI, c.directShard, c.directTarget = nil, "", ""
	c.mu.Unlock()
	if rc != nil {
		rc.Close()
	}
}

// pollReply fetches the poll that continues from cur, preferring the
// direct shard (or relay) path. A direct reply is used unless it
// reports the session unknown: a rebuilt state (relay re-baseline,
// re-created session) is for the caller's resync rule, not a sign of a
// stale endpoint.
func (c *Client) pollReply(cur merge.Cursor, full bool, wait time.Duration) (merge.PollReply, error) {
	var reply merge.PollReply
	args := cur.Args(full, wait)
	if rc, target := c.ensureDirect(); rc != nil {
		err := rc.Call(target, args, &reply)
		if err == nil && cur.Verdict(&reply) != merge.Unknown {
			return reply, nil
		}
		if err != nil || cur.Version > 0 {
			// Broken endpoint, or the shard no longer owns the session (a
			// tombstone answers version 0): re-resolve placement on the
			// next poll.
			c.dropDirect()
		}
		// Otherwise the direct reply reported version 0 with the mirror
		// also at 0 — indistinguishable between "right shard, no data
		// yet" and "tombstone of a moved session". Serve this poll via
		// the router (authoritative either way) but keep the direct
		// connection: once data flows the client's version rises and a
		// tombstone's version 0 becomes detectable.
		reply.Release()
		reply = merge.PollReply{}
		// The direct poll already parked; the fallback answers at once.
		args.Wait = 0
	}
	err := c.rmi.Call("AIDAManager.Poll", args, &reply)
	return reply, err
}

// Poll fetches merged-histogram updates from the AIDA manager via RMI —
// the "Start Polling for Data" plug-in of Figure 2. The client keeps a
// local mirror tree; each poll applies only changed objects. Poll never
// blocks on the session: it answers at once, changed or not.
func (c *Client) Poll() (Update, error) { return c.poll(0) }

// PollWait is Poll, except that when nothing changed since the last poll
// the read parks where it is served — the session's relay, or the merge
// fabric without one — until a new version commits or d has passed (the
// server caps d at merge.MaxPollWait). A viewer loop of PollWait calls
// sees each change as it lands, with no sleep between polls.
func (c *Client) PollWait(d time.Duration) (Update, error) { return c.poll(d) }

func (c *Client) poll(wait time.Duration) (Update, error) {
	if c.rmi == nil {
		return Update{}, fmt.Errorf("core: no session (CreateSession first)")
	}
	c.mu.Lock()
	cur := c.cur
	c.mu.Unlock()
	reply, err := c.pollReply(cur, false, wait)
	if err != nil {
		return Update{}, err
	}
	// Resync when the merged state was rebuilt under us (see
	// merge.Cursor.Verdict), or when a session we had read is no longer
	// known.
	verdict := cur.Verdict(&reply)
	resync := verdict == merge.Rebuilt || verdict == merge.Unknown && cur.Version > 0
	if resync {
		// Our mirror may hold state the new owner never saw, so rebuild
		// it from a full poll instead of patching. The full poll must go
		// to the same endpoint as the incremental one (pollReply, not the
		// front door): a relay mirror stamps its own epoch, and mixing a
		// router-epoch baseline with relay-epoch increments would resync
		// forever.
		reply.Release()
		cur.Reset()
		reply, err = c.pollReply(cur, true, 0)
		if err != nil {
			return Update{}, err
		}
	}
	up := Update{Changed: reply.Changed || resync, Progress: reply.Progress, Logs: reply.Logs}
	for _, p := range reply.Progress {
		up.EventsDone += p.EventsDone
		up.EventsTotal += p.EventsTotal
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	cur.Take(&reply)
	c.cur = cur
	if resync {
		c.tree = aida.NewTree()
	}
	for _, path := range reply.Removed {
		c.tree.Rm(path)
	}
	for _, ent := range reply.Entries {
		obj, err := ent.Restore()
		if err != nil {
			return up, fmt.Errorf("core: bad object %s in poll: %w", ent.Path, err)
		}
		c.tree.Rm(ent.Path)
		if err := c.tree.PutAt(ent.Path, obj); err != nil {
			return up, err
		}
		up.ChangedPaths = append(up.ChangedPaths, ent.Path)
	}
	// Every frame in this reply was decoded off the wire and is now
	// consumed; recycle the buffers for the next poll.
	reply.Release()
	return up, nil
}

// Tree returns the client's mirror of the merged results (live view; do
// not mutate).
func (c *Client) Tree() *aida.Tree {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tree
}

// Histogram1D fetches a mirrored histogram by path, or nil.
func (c *Client) Histogram1D(path string) *aida.Histogram1D {
	c.mu.Lock()
	defer c.mu.Unlock()
	h, _ := c.tree.Get(path).(*aida.Histogram1D)
	return h
}

// CloseSession tears down the remote session and the client's
// connections; the client is done afterwards.
func (c *Client) CloseSession() error {
	if c.sessionID == "" {
		return nil
	}
	err := c.call("CloseSession", c.sessionArgs(), &OK{})
	c.ctl.Close()
	if c.rmi != nil {
		c.rmi.Close()
		c.rmi = nil
	}
	c.dropDirect()
	c.sessionID = ""
	return err
}
