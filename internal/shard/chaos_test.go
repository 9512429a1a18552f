package shard

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sort"
	"testing"

	"github.com/ipa-grid/ipa/internal/aida"
	"github.com/ipa-grid/ipa/internal/merge"
)

// splitmix64 is the splitmix64 finalizer: the mixing step of the seeded
// streams below.
func splitmix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// chaosRand draws the kill schedule: same seed, same victims, same fuses.
type chaosRand struct{ state uint64 }

func (r *chaosRand) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return splitmix64(r.state)
}

func (r *chaosRand) intn(n int) int { return int(r.next() % uint64(n)) }

// sameStateBytes reports whether two poll surfaces serve a session's full
// merged state with identical object bytes.
func sameStateBytes(t *testing.T, a, b poller, sid string) bool {
	t.Helper()
	sa, sb := fullState(t, a, sid), fullState(t, b, sid)
	if len(sa) != len(sb) {
		return false
	}
	for path, st := range sa {
		other, ok := sb[path]
		if !ok {
			return false
		}
		ba, err := aida.AppendObjectState(nil, &st)
		if err != nil {
			t.Fatal(err)
		}
		bb, err := aida.AppendObjectState(nil, &other)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ba, bb) {
			return false
		}
	}
	return true
}

// TestChaosScheduleRecoversEverySession runs a seeded kill schedule over
// a K=2, WAL-backed replicated fabric with a flaky replication plane
// underneath: the first victim (a shard owning sessions) is killed
// outright, the second is armed to die a few calls into the first
// failover, and about one Mirror/Export/Import call in 16 fails
// throughout. Every session must come out byte-identical to the flat
// single-manager reference. Then one surviving replica is doctored with
// a foreign epoch at a plausible version — the residue a zombie
// incarnation would leave — and anti-entropy must repair it within two
// sweeps.
func TestChaosScheduleRecoversEverySession(t *testing.T) {
	for _, seed := range []uint64{2006, 7, 31} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runChaosSchedule(t, seed) })
	}
}

func runChaosSchedule(t *testing.T, seed uint64) {
	const shards, sessions, rounds, kills, depth = 4, 3, 6, 2, 2
	dir := t.TempDir()
	router := NewRouter(0)
	router.Replicate = true
	router.ReplicaDepth = depth
	rng := chaosRand{state: seed}
	names := make([]string, 0, shards)
	flaky := map[string]*flakyBackend{}
	inners := map[string]*merge.Manager{}
	for i := 0; i < shards; i++ {
		name := fmt.Sprintf("shard%02d", i)
		m := merge.NewManager()
		w, err := merge.OpenWAL(filepath.Join(dir, name+".wal"), merge.WALOptions{SyncEvery: 1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		m.SetWAL(w)
		fb := &flakyBackend{inner: m, faultSeed: rng.next()}
		fb.replFaults.Store(true)
		if err := router.AddShard(name, fb); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
		flaky[name] = fb
		inners[name] = m
	}
	// A dead primary's logged records the asynchronous mirror stream never
	// delivered are replayed into the copy about to be promoted.
	router.WALTail = func(deadShard, sessionID, targetShard string) (int, error) {
		target, ok := inners[targetShard]
		if !ok {
			return 0, fmt.Errorf("no manager for shard %q", targetShard)
		}
		return merge.ReplaySessionInto(filepath.Join(dir, deadShard+".wal"), sessionID, target)
	}

	flat := merge.NewManager()
	var workers []*loadWorker
	for s := 0; s < sessions; s++ {
		workers = append(workers, newLoadWorker(t, router, flat, fmt.Sprintf("chaos-%02d", s)))
	}
	for r := 0; r < rounds; r++ {
		for _, w := range workers {
			w.hist.Fill(float64(r % 10))
			w.refH.Fill(float64(r % 10))
			if err := sendVia(w.tr, w.tree); err != nil {
				t.Fatal(err)
			}
			if err := sendVia(w.refTr, w.ref); err != nil {
				t.Fatal(err)
			}
		}
	}

	// The schedule: victim 1 is drawn from the shards owning sessions,
	// later victims from the rest, each armed with a small call fuse so it
	// dies partway through the preceding failover's probes, drains,
	// re-baselines and promotions.
	owned := map[string]int{}
	for _, w := range workers {
		owned[router.Placement(w.sid)]++
	}
	var owners []string
	for _, name := range names {
		if owned[name] > 0 {
			owners = append(owners, name)
		}
	}
	sort.Strings(owners)
	first := owners[rng.intn(len(owners))]
	picked := map[string]bool{first: true}
	flaky[first].dead.Store(true)
	for len(picked) < kills {
		var rest []string
		for _, name := range names {
			if !picked[name] {
				rest = append(rest, name)
			}
		}
		v := rest[rng.intn(len(rest))]
		picked[v] = true
		flaky[v].arm(int64(3 + rng.intn(10)))
	}

	h := NewHealth(router)
	h.Threshold = 2
	for probes := 0; len(router.DeadShards()) < kills; probes++ {
		if probes > 40*kills {
			t.Fatalf("health prober detected only %v of %d victims", router.DeadShards(), kills)
		}
		h.RunOnce()
	}
	if router.Promotions() == 0 {
		t.Fatal("the kill schedule promoted no replica")
	}

	// Quiet the fault stream: the chain absorbed it during the storm; the
	// checks below measure what the fabric preserved.
	for _, fb := range flaky {
		fb.replFaults.Store(false)
	}
	dead := map[string]bool{}
	for _, d := range router.DeadShards() {
		dead[d] = true
	}
	for _, w := range workers {
		if home := router.Placement(w.sid); dead[home] {
			t.Fatalf("session %s still placed on dead shard %s", w.sid, home)
		}
		if !sameStateBytes(t, router, flat, w.sid) {
			t.Fatalf("session %s diverged from the flat reference after the kill schedule", w.sid)
		}
	}

	// Silent drift: doctor one surviving replica with a foreign epoch at
	// the owner's version.
	var sid, hop string
	for off := 0; off < len(workers) && sid == ""; off++ {
		w := workers[(rng.intn(len(workers))+off)%len(workers)]
		if chain := router.ReplicasOf(w.sid); len(chain) > 0 {
			sid, hop = w.sid, chain[0]
		}
	}
	if sid == "" {
		t.Fatal("no surviving replica chain to doctor")
	}
	var exp merge.ExportReply
	if err := inners[router.Placement(sid)].Export(merge.ExportArgs{SessionID: sid}, &exp); err != nil || !exp.Found {
		t.Fatalf("exporting %s from its owner: found=%v err=%v", sid, exp.Found, err)
	}
	if err := inners[hop].Import(merge.ImportArgs{
		SessionID: sid, Version: exp.Version, Epoch: exp.Epoch + 1000,
		Workers: exp.Workers, Removed: exp.Removed, Logs: exp.Logs,
		LastTraceID: exp.LastTraceID,
	}, &merge.ImportReply{}); err != nil {
		t.Fatal(err)
	}
	ae := NewAntiEntropy(router)
	repaired := false
	for sweep := 1; sweep <= 2 && !repaired; sweep++ {
		for _, r := range ae.RunOnce() {
			repaired = repaired || r == sid+"/"+hop
		}
	}
	if !repaired {
		t.Fatalf("anti-entropy did not repair the drifted copy %s/%s within 2 sweeps", sid, hop)
	}
	for _, l := range router.ReplicaLagChain(sid) {
		if l.Shard == hop && (l.Stale || l.Lag > 0) {
			t.Fatalf("repaired copy %s/%s has not converged with its owner: %+v", sid, hop, l)
		}
	}
}
