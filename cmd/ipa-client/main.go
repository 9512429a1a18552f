// ipa-client is the terminal analogue of the paper's JAS3 client: connect
// to a manager with a Grid credential, browse or query the catalog, stage
// a dataset, ship a script, run, and watch merged histograms render as
// ASCII art.
//
// Usage:
//
//	ipa-client -addr HOST:PORT -creddir ipa-creds \
//	    [-query 'detector == "sid"'] [-dataset ds-zh] [-script file.pnut]
//	    [-native higgs-search] [-insecure] [-hold 5m]
//
// With -hold the session stays open after the run finishes, so live
// viewers on a manager's SSE gateway (/live/<session>) can keep
// watching the merged results; the full session ID is printed for
// building that URL.
//
// Watch mode polls a manager's /fabric/status endpoint (the -http
// listener of ipa-manager) and renders a live per-shard load table plus
// the recent fabric events — no session or credential needed:
//
//	ipa-client -watch 127.0.0.1:6060 [-watch-interval 2s] [-once]
package main

import (
	"crypto/x509"
	"encoding/json"
	"encoding/pem"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/ipa-grid/ipa"
	"github.com/ipa-grid/ipa/internal/core"
	"github.com/ipa-grid/ipa/internal/gsi"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9443", "manager control endpoint (the \"Control endpoint\" ipa-manager prints)")
	credDir := flag.String("creddir", "ipa-creds", "CA + user credential directory")
	insecure := flag.Bool("insecure", false, "manager started with -insecure (plain TCP, no GSI)")
	query := flag.String("query", "", "catalog query to run")
	datasetID := flag.String("dataset", "", "dataset ID to attach")
	scriptPath := flag.String("script", "", "analysis script file")
	native := flag.String("native", "", "native analysis name (e.g. higgs-search)")
	decoder := flag.String("decoder", ipa.EventDecoderName, "record decoder for scripts")
	watch := flag.String("watch", "", "poll this manager status endpoint (ipa-manager's -http address) and render a per-shard load table")
	watchEvery := flag.Duration("watch-interval", 2*time.Second, "poll interval for -watch")
	once := flag.Bool("once", false, "with -watch: print one snapshot and exit")
	hold := flag.Duration("hold", 0, "keep the session open this long after the run, so gateway viewers (/live/<session>) can watch (0 = close immediately)")
	flag.Parse()

	if *watch != "" {
		if err := watchFabric(*watch, *watchEvery, *once); err != nil {
			log.Fatal(err)
		}
		return
	}

	var client *core.Client
	var err error
	if *insecure {
		client, err = core.Connect(*addr, nil, nil)
	} else {
		client, err = connectSecure(*addr, *credDir)
	}
	if err != nil {
		log.Fatal(err)
	}
	if err := client.CreateSession(); err != nil {
		log.Fatal(err)
	}
	defer client.CloseSession()
	fmt.Printf("session %s (%d engines)\n", client.SessionID(), client.Engines())

	if *query != "" {
		hits, err := client.QueryCatalog(*query)
		if err != nil {
			log.Fatal(err)
		}
		for _, h := range hits {
			fmt.Printf("  %-30s id=%-10s %.1f MB, %d records (%s)\n", h.Path, h.ID, h.SizeMB, h.Records, h.Format)
		}
		if *datasetID == "" && len(hits) == 1 {
			*datasetID = hits[0].ID
		}
	}
	if *datasetID == "" {
		entries, err := client.ListCatalog("/")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("catalog root:")
		for _, e := range entries {
			fmt.Println("  ", e.Path)
		}
		return
	}
	times, err := client.AttachDataset(*datasetID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("staged %.1f MB into %d parts (move=%dms split=%dms parts=%dms)\n",
		times.SizeMB, times.Parts, times.MoveWhole, times.Split, times.MoveParts)

	switch {
	case *scriptPath != "":
		src, err := os.ReadFile(*scriptPath)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := client.LoadScript(filepath.Base(*scriptPath), string(src), *decoder, nil); err != nil {
			log.Fatal(err)
		}
	case *native != "":
		if _, err := client.LoadNative(*native, *native, nil); err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatal("need -script or -native")
	}

	if err := client.Run(); err != nil {
		log.Fatal(err)
	}
	for {
		up, err := client.PollWait(time.Second)
		if err != nil {
			log.Fatal(err)
		}
		for _, l := range up.Logs {
			fmt.Println("  [engine]", l)
		}
		if up.EventsTotal > 0 {
			fmt.Printf("\rprogress: %d/%d events", up.EventsDone, up.EventsTotal)
		}
		// Done once every part's engine has reported its whole part: an
		// engine that has not published yet is missing from both counts.
		if up.EventsTotal > 0 && up.EventsDone == up.EventsTotal && len(up.Progress) >= times.Parts {
			fmt.Println()
			break
		}
	}
	if st, err := client.Status(); err == nil && st.Polls > 0 {
		fmt.Printf("merge traffic: %d publishes, %d polls (%.0f%% fast-path)",
			st.Publishes, st.Polls, 100*float64(st.FastPolls)/float64(st.Polls))
		if len(st.ReplicaChain) > 0 {
			fmt.Printf(", replicas %s lag %d", strings.Join(st.ReplicaChain, " → "), st.ReplicaLag)
		} else if st.Replica != "" {
			fmt.Printf(", replica %s lag %d", st.Replica, st.ReplicaLag)
		}
		fmt.Println()
	}
	fmt.Println()
	fmt.Print(ipa.RenderTree(client.Tree()))
	// Render every 1D histogram.
	for _, path := range client.Tree().ObjectPaths() {
		if h := client.Histogram1D(path); h != nil {
			fmt.Println()
			fmt.Print(ipa.RenderH1D(h, ipa.RenderOptions{Width: 50, MaxRow: 40}))
		}
	}
	if *hold > 0 {
		// Keep the session alive (a parked poll at a time, so the merged
		// state stays warm) for gateway viewers watching
		// /live/<session>; the deferred CloseSession fires at exit.
		fmt.Printf("holding session %s open for %s (live viewers welcome)\n",
			client.SessionID(), *hold)
		deadline := time.Now().Add(*hold)
		for wait := time.Until(deadline); wait > 0; wait = time.Until(deadline) {
			if _, err := client.PollWait(wait); err != nil {
				log.Fatal(err)
			}
		}
	}
}

// watchFabric polls /fabric/status and renders the per-shard load
// table, publish/poll deltas between rounds, and the event tail.
func watchFabric(addr string, every time.Duration, once bool) error {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	url := strings.TrimSuffix(addr, "/") + "/fabric/status"
	prevPub := map[string]int64{}
	prevPoll := map[string]int64{}
	var lastSeq uint64
	for {
		resp, err := http.Get(url)
		if err != nil {
			return err
		}
		var st ipa.FabricStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("decoding %s: %w", url, err)
		}

		fmt.Printf("— fabric @ %s  gen %d  %d shard(s), %d session(s)\n",
			time.Now().Format("15:04:05"), st.PlacementGen, len(st.Shards), len(st.Placements))
		fmt.Printf("%-10s %8s %12s %12s %10s\n", "SHARD", "SESSIONS", "PUBLISHES", "POLLS", "RATE/POLL")
		for _, sh := range st.Shards {
			dPub := sh.Publishes - prevPub[sh.Name]
			dPoll := sh.Polls - prevPoll[sh.Name]
			prevPub[sh.Name], prevPoll[sh.Name] = sh.Publishes, sh.Polls
			fmt.Printf("%-10s %8d %12d %12d %+5d/%+4d\n",
				sh.Name, sh.Sessions, sh.Publishes, sh.Polls, dPub, dPoll)
		}
		if len(st.Relays) > 0 {
			// The read fan-out tier: how many downstream polls each relay
			// absorbs per upstream subscription poll, how stale its
			// mirrors run, and how many streaming viewers hang off it.
			fmt.Printf("%-10s %8s %12s %12s %9s %8s %10s\n",
				"RELAY", "SESSIONS", "UP-POLLS", "DOWN-POLLS", "FAN-OUT", "CLIENTS", "STALE(ms)")
			for _, rl := range st.Relays {
				fmt.Printf("%-10s %8d %12d %12d %8.1fx %8d %10.1f\n",
					rl.Name, rl.Sessions, rl.UpPolls, rl.DownPolls, rl.FanOut,
					rl.Clients, rl.StalenessMS)
			}
		}
		for _, p := range st.Placements {
			if len(p.Chain) == 0 && p.Replica == "" {
				continue
			}
			// Render the whole replica chain hop by hop; a "!" marks a
			// copy on a foreign epoch or ahead of its owner.
			hops := make([]string, 0, len(p.Chain))
			for _, h := range p.Chain {
				mark := ""
				if h.Stale {
					mark = "!"
				}
				hops = append(hops, fmt.Sprintf("%s%s(lag %d)", h.Shard, mark, h.Lag))
			}
			if len(hops) == 0 {
				hops = append(hops, p.Replica)
			}
			fmt.Printf("  session %-10.10s %s → %s (epoch %d, worst lag %d)\n",
				p.SessionID, p.Shard, strings.Join(hops, " → "), p.Epoch, p.ReplicaLag)
		}
		for _, ev := range st.Events {
			if ev.Seq < lastSeq {
				continue // already shown last round
			}
			detail := ev.Detail
			if ev.TraceID != 0 {
				detail = fmt.Sprintf("%s trace=%016x", detail, ev.TraceID)
			}
			if ev.DurNanos > 0 {
				detail = fmt.Sprintf("%s (%s)", detail, time.Duration(ev.DurNanos))
			}
			fmt.Printf("  %s %-9s shard=%s session=%.10s %s\n",
				ev.At.Format("15:04:05"), ev.Kind, ev.Shard, ev.Session, detail)
		}
		lastSeq = st.NextEventSeq
		if once {
			return nil
		}
		time.Sleep(every)
	}
}

func connectSecure(addr, credDir string) (*core.Client, error) {
	caPEM, err := os.ReadFile(filepath.Join(credDir, "ca.pem"))
	if err != nil {
		return nil, fmt.Errorf("reading CA: %w", err)
	}
	certPEM, err := os.ReadFile(filepath.Join(credDir, "usercert.pem"))
	if err != nil {
		return nil, err
	}
	keyPEM, err := os.ReadFile(filepath.Join(credDir, "userkey.pem"))
	if err != nil {
		return nil, err
	}
	parse := func(p []byte) (*pem.Block, error) {
		blk, _ := pem.Decode(p)
		if blk == nil {
			return nil, fmt.Errorf("bad PEM")
		}
		return blk, nil
	}
	caBlk, err := parse(caPEM)
	if err != nil {
		return nil, err
	}
	caCert, err := x509.ParseCertificate(caBlk.Bytes)
	if err != nil {
		return nil, err
	}
	certBlk, err := parse(certPEM)
	if err != nil {
		return nil, err
	}
	cert, err := x509.ParseCertificate(certBlk.Bytes)
	if err != nil {
		return nil, err
	}
	keyBlk, err := parse(keyPEM)
	if err != nil {
		return nil, err
	}
	key, err := x509.ParseECPrivateKey(keyBlk.Bytes)
	if err != nil {
		return nil, err
	}
	cred := &gsi.Credential{Cert: cert, Key: key}
	proxy, err := gsi.NewProxy(cred, 2*time.Hour)
	if err != nil {
		return nil, err
	}
	pool := x509.NewCertPool()
	pool.AddCert(caCert)
	return core.ConnectWithPool(addr, proxy, pool)
}
