// ipa-manager runs a standalone IPA Grid site: the manager node services
// plus an in-process compute element, listening on loopback ports so
// ipa-client (or any RMI client) can connect from other processes. The
// control endpoint (sessions, catalog, run control) is GSI mutual TLS;
// the RMI endpoint carries result polls and publishes, each call gated by
// a live session token.
//
// Usage:
//
//	ipa-manager [-nodes 8] [-events 20000] [-insecure] [-shards N]
//	            [-rebalance 5s] [-rebalance-moves 2] [-rebalance-band 0.25]
//	            [-health 2s] [-health-fails 3] [-http 127.0.0.1:6060]
//	            [-relays N] [-gateway 127.0.0.1:7070]
//
// -http serves the operational plane on one listener: Prometheus-text
// telemetry at /metrics, the live fabric snapshot (placements, epochs,
// replicas, recent events) as JSON at /fabric/status, and net/http/pprof
// under /debug/pprof/. -pprof is a deprecated alias for -http.
//
// -relays starts a read fan-out tier on a sharded fabric (needs
// -shards > 1): client polls route to relay mirrors that wake on every
// commit at the owning shard, while publishes stay on the owners.
// -gateway serves the HTTP/SSE live-view plane — Server-Sent-Events
// update streams at /events/{session}, an in-browser live view at
// /live/{session}, and SVG/text/XML renderings at /view, /tree and
// /xml — off one relay subscription per session, whatever the viewer
// count.
//
// On startup it prints the endpoints and, with -events > 0, publishes a
// generated LC dataset ("ds-zh") so a client can run immediately. In
// secure mode (default) it writes the CA certificate and a ready-made user
// credential to -creddir for clients to pick up.
package main

import (
	"crypto/ecdsa"
	"crypto/x509"
	"encoding/json"
	"encoding/pem"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"

	"github.com/ipa-grid/ipa"
	"github.com/ipa-grid/ipa/internal/gsi"
	"github.com/ipa-grid/ipa/internal/obs"
	"github.com/ipa-grid/ipa/internal/relay"
)

func main() {
	nodes := flag.Int("nodes", 8, "worker node count")
	events := flag.Int("events", 20000, "events in the demo dataset (0 = none)")
	insecure := flag.Bool("insecure", false, "serve the control endpoint over plain TCP (no GSI)")
	credDir := flag.String("creddir", "ipa-creds", "where to write CA + user credentials")
	shards := flag.Int("shards", 1, "merge-fabric shard count (>1 = consistent-hash session sharding)")
	rebalance := flag.Duration("rebalance", 0, "shard rebalance probe interval (0 = off; needs -shards > 1)")
	rebalanceMoves := flag.Int("rebalance-moves", 2, "max session migrations per rebalance round")
	rebalanceBand := flag.Float64("rebalance-band", 0.25, "rebalance hysteresis band (fraction over the fabric-mean load)")
	health := flag.Duration("health", 0, "shard health probe interval (0 = off; needs -shards > 1)")
	healthFails := flag.Int("health-fails", 3, "consecutive failed probes before a shard is marked dead")
	replicate := flag.Bool("replicate", false, "mirror each session to a replica chain; shard death promotes the deepest caught-up replica instead of losing the session (needs -shards > 1)")
	replicas := flag.Int("replicas", 1, "replica chain depth K per session (needs -replicate; capped at shards-1)")
	antiEntropy := flag.Duration("anti-entropy", 0, "replica chain repair sweep interval: drifted or stalled copies are re-baselined (0 = off; needs -replicate)")
	wal := flag.String("wal", "", "directory for per-manager append-only session logs, replayed on restart (\"\" = no durability)")
	walSync := flag.Int("wal-sync", 64, "fsync the session log every N records (0 = every record)")
	httpAddr := flag.String("http", "", "serve /metrics, /fabric/status and /debug/pprof/ on this address (e.g. 127.0.0.1:6060; \"\" = off)")
	pprofAddr := flag.String("pprof", "", "deprecated alias for -http")
	relays := flag.Int("relays", 0, "read relay count: delta-subscribing mirrors that absorb client polls (0 = off; needs -shards > 1)")
	gateway := flag.String("gateway", "", "serve the HTTP/SSE live-view gateway on this address (e.g. 127.0.0.1:7070; \"\" = off)")
	flag.Parse()
	if *httpAddr == "" && *pprofAddr != "" {
		log.Printf("-pprof is deprecated; use -http")
		*httpAddr = *pprofAddr
	}

	grid, err := ipa.NewLocalGrid(ipa.GridOptions{
		Nodes: *nodes, Insecure: *insecure, Shards: *shards,
		RebalanceInterval: *rebalance, RebalanceMaxMoves: *rebalanceMoves, RebalanceBand: *rebalanceBand,
		HealthInterval: *health, HealthFails: *healthFails,
		Replicate: *replicate, ReplicaDepth: *replicas, AntiEntropyInterval: *antiEntropy,
		WALDir: *wal, WALSyncEvery: *walSync,
		Relays: *relays,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer grid.Close()

	if *httpAddr != "" {
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			log.Fatalf("http listen: %v", err)
		}
		go func() {
			if err := http.Serve(ln, opsMux(grid)); err != nil {
				log.Printf("http server: %v", err)
			}
		}()
		fmt.Printf("metrics:       http://%s/metrics\n", ln.Addr())
		fmt.Printf("fabric status: http://%s/fabric/status\n", ln.Addr())
		fmt.Printf("pprof:         http://%s/debug/pprof/\n", ln.Addr())
	}

	if *gateway != "" {
		gw, owned := gatewayRelay(grid)
		if owned {
			defer gw.Close()
		}
		ln, err := net.Listen("tcp", *gateway)
		if err != nil {
			log.Fatalf("gateway listen: %v", err)
		}
		go func() {
			if err := http.Serve(ln, relay.NewGateway(gw)); err != nil {
				log.Printf("gateway server: %v", err)
			}
		}()
		fmt.Printf("live view:     http://%s/live/<session>\n", ln.Addr())
		fmt.Printf("SSE stream:    http://%s/events/<session>\n", ln.Addr())
	}

	if _, err := grid.AddUser("analyst", ipa.RoleAnalyst); err != nil {
		log.Fatal(err)
	}
	if !*insecure {
		if err := writeCreds(grid, *credDir); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("credentials written to %s/\n", *credDir)
	}
	if *events > 0 {
		if err := grid.PublishDataset("ds-zh", "/lc/zh", "zh-500", *events,
			ipa.GenConfig{Seed: 2006, SignalFraction: 0.2},
			map[string]string{"process": "e+e- -> ZH"}); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("published dataset ds-zh (%d events)\n", *events)
	}
	fmt.Printf("Control endpoint: %s (secure=%v)\n", grid.Manager.Addr(), !*insecure)
	fmt.Printf("RMI endpoint:     %s\n", grid.Manager.RMIAddr())
	fmt.Printf("nodes: %d, interactive queue ready\n", *nodes)
	if *shards > 1 {
		fmt.Printf("merge fabric: %d shards (consistent-hash session routing)\n", *shards)
		if *rebalance > 0 {
			fmt.Printf("rebalancer: every %s, ≤%d moves/round, band %.0f%%\n",
				*rebalance, *rebalanceMoves, 100**rebalanceBand)
		}
		if *health > 0 {
			fmt.Printf("health prober: every %s, dead after %d failed probes\n", *health, *healthFails)
		}
		if *relays > 0 && len(grid.Relays) > 0 {
			fmt.Printf("read relays: %d delta-subscribing mirror(s) absorbing client polls (writes stay on the owning shards)\n", len(grid.Relays))
		}
		if *replicate {
			fmt.Printf("replication: each session mirrored down a chain of %d standby shard(s) (epoch-fenced failover, deepest caught-up wins)\n", *replicas)
			if *antiEntropy > 0 {
				fmt.Printf("anti-entropy: chain repair sweep every %s\n", *antiEntropy)
			}
		}
	}
	if *wal != "" {
		fmt.Printf("session log: %s/ (fsync every %d records, replayed on restart)\n", *wal, *walSync)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
}

// gatewayRelay picks the relay the SSE gateway serves from: the
// fabric's first read relay when a relay tier exists (viewers then
// share its subscriptions with polling clients), else a dedicated
// gateway-owned relay mirroring the merge service directly. owned
// reports whether the caller must Close it.
func gatewayRelay(grid *ipa.LocalGrid) (gw *relay.Relay, owned bool) {
	names := make([]string, 0, len(grid.Relays))
	for name := range grid.Relays {
		names = append(names, name)
	}
	if len(names) > 0 {
		sort.Strings(names)
		return grid.Relays[names[0]], false
	}
	rel := relay.New("gateway", grid.Merge)
	rel.Interval = relay.ParkBound
	rel.AutoSubscribe = true
	return rel, true
}

// opsMux assembles the shared operational mux — Prometheus telemetry,
// the JSON fabric snapshot, and net/http/pprof on one listener.
func opsMux(grid *ipa.LocalGrid) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.Handler())
	mux.HandleFunc("/fabric/status", func(w http.ResponseWriter, r *http.Request) {
		n := 0 // 0 selects the default event tail
		if s := r.URL.Query().Get("events"); s != "" {
			n, _ = strconv.Atoi(s)
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(grid.FabricStatus(n)); err != nil {
			log.Printf("fabric status encode: %v", err)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func writeCreds(grid *ipa.LocalGrid, dir string) error {
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return err
	}
	writePEM := func(name, blockType string, der []byte) error {
		f, err := os.OpenFile(filepath.Join(dir, name), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o600)
		if err != nil {
			return err
		}
		defer f.Close()
		return pem.Encode(f, &pem.Block{Type: blockType, Bytes: der})
	}
	if err := writePEM("ca.pem", "CERTIFICATE", grid.CA.Certificate().Raw); err != nil {
		return err
	}
	// Issue a fresh exportable credential for the default user.
	cred, err := grid.CA.IssueUser(grid.VO.Name(), "analyst-export", 12*3600e9)
	if err != nil {
		return err
	}
	grid.VO.Add(cred.DN(), nil, gsi.RoleAnalyst)
	if err := writePEM("usercert.pem", "CERTIFICATE", cred.Cert.Raw); err != nil {
		return err
	}
	key, err := marshalKey(cred.Key)
	if err != nil {
		return err
	}
	return writePEM("userkey.pem", "EC PRIVATE KEY", key)
}

func marshalKey(k *ecdsa.PrivateKey) ([]byte, error) { return x509.MarshalECPrivateKey(k) }
