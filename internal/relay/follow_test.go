package relay_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/ipa-grid/ipa/internal/aida"
	"github.com/ipa-grid/ipa/internal/merge"
	"github.com/ipa-grid/ipa/internal/relay"
	"github.com/ipa-grid/ipa/internal/rmi"
	"github.com/ipa-grid/ipa/internal/shard"
)

// viewerWait is the park bound of the test viewers: far above every
// convergence deadline below, so a viewer that catches up in time was
// woken, not timed out (the manager caps it at merge.MaxPollWait).
const viewerWait = time.Minute

// converge is how long a step may take to reach every viewer.
const converge = 2 * time.Second

// parkedViewer mirrors one session through a Poller with parked polls
// only, applying the client resync rule, until stopped.
type parkedViewer struct {
	mu      sync.Mutex
	mirror  map[string][]byte
	resyncs int
}

func (v *parkedViewer) resynced() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.resyncs
}

func (v *parkedViewer) snapshot() map[string][]byte {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make(map[string][]byte, len(v.mirror))
	for k, b := range v.mirror {
		out[k] = b
	}
	return out
}

func startViewer(t *testing.T, p relay.Poller, sid string, stop <-chan struct{}, wg *sync.WaitGroup) *parkedViewer {
	v := &parkedViewer{mirror: map[string][]byte{}}
	wg.Add(1)
	go func() {
		defer wg.Done()
		var since, epoch int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			var reply merge.PollReply
			err := p.Poll(merge.PollArgs{SessionID: sid, SinceVersion: since, SinceEpoch: epoch, Wait: viewerWait}, &reply)
			if err == nil && reply.Version != 0 && since > 0 && (reply.Version < since || reply.Epoch != epoch) {
				// Rebuilt under us: start over from a full read.
				reply = merge.PollReply{}
				err = p.Poll(merge.PollArgs{SessionID: sid, Full: true}, &reply)
				v.mu.Lock()
				v.mirror = map[string][]byte{}
				v.resyncs++
				v.mu.Unlock()
			}
			if err != nil {
				select {
				case <-stop:
				default:
					t.Errorf("viewer of %s: %v", sid, err)
				}
				return
			}
			if reply.Version == 0 {
				continue // the copy is being rebuilt; the next poll parks for it
			}
			v.mu.Lock()
			for _, path := range reply.Removed {
				delete(v.mirror, path)
			}
			for _, e := range reply.Entries {
				st, err := e.State()
				if err == nil {
					v.mirror[e.Path], err = aida.AppendObjectState(nil, &st)
				}
				if err != nil {
					t.Errorf("viewer of %s: %v", sid, err)
				}
			}
			v.mu.Unlock()
			since, epoch = reply.Version, reply.Epoch
		}
	}()
	return v
}

// stopViewers ends the viewers of closed relays: each wake drops the
// relays' copies, waking viewers parked on them, and creates a session
// on each, waking viewers parked on a copy that no longer exists.
func stopViewers(wg *sync.WaitGroup, relays ...*relay.Relay) {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	tree := aida.NewTree()
	for {
		for _, r := range relays {
			for _, sid := range sessionsOf(r) {
				r.Local().Drop(sid)
			}
			// An empty tree's baseline cannot fail to build or apply.
			d, _ := tree.FullDelta()
			_ = r.Local().Publish(merge.PublishArgs{SessionID: "wake", WorkerID: "w", Seq: 1, Delta: d}, &merge.PublishReply{})
			r.Local().Drop("wake")
		}
		select {
		case <-done:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func sessionsOf(r *relay.Relay) []string {
	var sl merge.SessionsReply
	r.Local().SessionList(merge.SessionsArgs{}, &sl)
	return sl.SessionIDs
}

// TestRelayTreeEquivalenceParked is TestRelayTreeEquivalence with the
// relays' own loops doing the syncing and every reader parked: viewers
// on both tiers of router → r1 → r2 read only with long parked polls,
// and after fills, removals, a rewind, a handoff, wiped relay copies
// and a failover epoch flip each viewer must hold the owner's frames,
// byte for byte, within a deadline far below its park bound. Catching
// up in time means the parks woke on the upstream commit and on each
// relay's re-baseline instead of running out.
func TestRelayTreeEquivalenceParked(t *testing.T) {
	router := shard.NewRouter(0)
	router.Replicate = true
	for i := 0; i < 3; i++ {
		if err := router.AddShard(fmt.Sprintf("shard%02d", i), merge.NewManager()); err != nil {
			t.Fatal(err)
		}
	}
	r1 := relay.New("r1", router.OriginPoller())
	r1.AutoSubscribe = true
	r1.Interval = 50 * time.Millisecond
	r2 := relay.New("r2", r1)
	r2.AutoSubscribe = true
	r2.Interval = 50 * time.Millisecond

	type sess struct {
		sid  string
		tree *aida.Tree
		h    *aida.Histogram1D
		tr   *merge.Transport
	}
	var sessions []*sess
	for i := 0; i < 2; i++ {
		s := &sess{sid: fmt.Sprintf("parked-%d", i), tree: aida.NewTree()}
		var err error
		if s.h, err = s.tree.H1D("/h", "x", "", 10, 0, 10); err != nil {
			t.Fatal(err)
		}
		s.tr = merge.NewTransport(s.sid, "w0", router)
		s.h.Fill(0)
		sendSnap(t, s.tr, s.tree)
		sessions = append(sessions, s)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	viewers := map[string][]*parkedViewer{}
	for _, s := range sessions {
		for _, tier := range []relay.Poller{r1, r2, r2} {
			viewers[s.sid] = append(viewers[s.sid], startViewer(t, tier, s.sid, stop, &wg))
		}
	}
	defer func() {
		close(stop)
		r2.Close()
		r1.Close()
		stopViewers(&wg, r1, r2)
	}()

	check := func(step string) {
		t.Helper()
		for _, s := range sessions {
			want := frames(t, router.OriginPoller(), s.sid)
			if len(want) == 0 {
				t.Fatalf("%s: owner of %s serves nothing", step, s.sid)
			}
			deadline := time.Now().Add(converge)
			for i, v := range viewers[s.sid] {
				for !sameFrames(want, v.snapshot()) {
					if time.Now().After(deadline) {
						t.Fatalf("%s: parked viewer %d of %s did not converge within %v", step, i, s.sid, converge)
					}
					time.Sleep(time.Millisecond)
				}
			}
		}
	}
	check("attach")
	// resync runs a step that rebuilds the copies some viewers read and
	// waits until each of them has full-resynced, then checks them all.
	resync := func(step string, vs []*parkedViewer, do func()) {
		t.Helper()
		before := make([]int, len(vs))
		for i, v := range vs {
			before[i] = v.resynced()
		}
		do()
		deadline := time.Now().Add(converge)
		for i, v := range vs {
			for v.resynced() == before[i] {
				if time.Now().After(deadline) {
					t.Fatalf("%s: viewer %d never resynced within %v", step, i, converge)
				}
				time.Sleep(time.Millisecond)
			}
		}
		check(step)
	}

	for r := 1; r < 6; r++ {
		for _, s := range sessions {
			s.h.Fill(float64(r))
			if r == 2 {
				if _, err := s.tree.H1D("/tmp/x", "x", "", 4, 0, 4); err != nil {
					t.Fatal(err)
				}
			}
			if r == 4 {
				s.tree.Rm("/tmp/x")
			}
			sendSnap(t, s.tr, s.tree)
		}
		check(fmt.Sprintf("round %d", r))
	}

	for _, s := range sessions {
		if err := router.Reset(merge.ResetArgs{SessionID: s.sid}, &merge.ResetReply{}); err != nil {
			t.Fatal(err)
		}
		s.h.Fill(9)
		sendSnap(t, s.tr, s.tree) // answered NeedFull
		sendSnap(t, s.tr, s.tree) // full baseline
	}
	check("rewind")

	for _, s := range sessions {
		from := router.Placement(s.sid)
		for _, name := range router.Shards() {
			if name != from {
				if err := router.MoveSession(s.sid, name); err != nil {
					t.Fatal(err)
				}
				break
			}
		}
		s.h.Fill(3)
		sendSnap(t, s.tr, s.tree)
	}
	check("handoff")

	// Wiped relay copies: the wiped tier re-baselines under a fresh local
	// epoch and every viewer below it resyncs, with the owner quiet.
	s0, s1 := sessions[0].sid, sessions[1].sid
	resync("wiped tier-1", viewers[s0], func() { r1.Local().Drop(s0) })
	resync("wiped tier-2", viewers[s1][1:], func() { r2.Local().Drop(s1) })

	// Failover: the promoted copy carries a new epoch; both tiers flip.
	resync("failover", viewers[s0], func() {
		owner := router.Placement(s0)
		if _, promoted := router.MarkDead(owner); len(promoted) == 0 {
			t.Fatalf("killing %s promoted nothing", owner)
		}
	})
	sessions[0].h.Fill(5)
	sendSnap(t, sessions[0].tr, sessions[0].tree)
	check("after failover")

	if st := r1.Stats(); st.Rebaselines == 0 {
		t.Fatalf("tier-1 relay reported no rebaselines: %+v", st)
	}
}

// ownerParked reads how many polls are parked on the owner's session.
func ownerParked(t *testing.T, m *merge.Manager, sid string) int64 {
	t.Helper()
	var st merge.StatsReply
	if err := m.Stats(merge.StatsArgs{SessionID: sid}, &st); err != nil {
		t.Fatal(err)
	}
	return st.Parked
}

// TestRelayParksOnceUpstream: eight readers parked on a relay cost the
// owner one parked poll — the relay's — and a commit at the owner wakes
// all eight with the new version, long before their park bound.
func TestRelayParksOnceUpstream(t *testing.T) {
	const readers = 8
	owner := merge.NewManager()
	const sid = "fan"
	tree := aida.NewTree()
	h, err := tree.H1D("/h", "x", "", 10, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	tr := merge.NewTransport(sid, "w0", owner)
	h.Fill(1)
	sendSnap(t, tr, tree)

	rel := relay.New("fan", owner)
	rel.AutoSubscribe = true
	rel.Interval = relay.ParkBound
	defer rel.Close()
	var first merge.PollReply
	if err := rel.Poll(merge.PollArgs{SessionID: sid}, &first); err != nil || first.Version == 0 {
		t.Fatalf("first read: %+v %v", first, err)
	}

	type result struct {
		reply merge.PollReply
		err   error
	}
	out := make(chan result, readers)
	for i := 0; i < readers; i++ {
		go func() {
			var reply merge.PollReply
			err := rel.Poll(merge.PollArgs{SessionID: sid, SinceVersion: first.Version, Wait: viewerWait}, &reply)
			out <- result{reply, err}
		}()
	}
	deadline := time.Now().Add(converge)
	for ownerParked(t, owner, sid) != 1 || ownerParked(t, rel.Local(), sid) != readers {
		if time.Now().After(deadline) {
			t.Fatalf("parked: owner %d (want 1), relay %d (want %d)",
				ownerParked(t, owner, sid), ownerParked(t, rel.Local(), sid), readers)
		}
		time.Sleep(100 * time.Microsecond)
	}
	h.Fill(2)
	t0 := time.Now()
	sendSnap(t, tr, tree)
	for i := 0; i < readers; i++ {
		select {
		case r := <-out:
			if r.err != nil || !r.reply.Changed || r.reply.Version <= first.Version {
				t.Fatalf("woken reader: %+v %v", r.reply, r.err)
			}
		case <-time.After(converge):
			t.Fatalf("%d of %d parked readers still waiting %v after the commit", readers-i, readers, converge)
		}
	}
	if d := time.Since(t0); d > converge {
		t.Fatalf("readers woke %v after the commit", d)
	}
	if n := ownerParked(t, owner, sid); n > 1 {
		t.Fatalf("%d polls parked on the owner, want at most the relay's one", n)
	}
}

// TestRelayIdlesWithoutReaders: once its readers stop, a relay stops
// polling upstream while the owner keeps publishing, and the first read
// afterwards is served the owner's current state.
func TestRelayIdlesWithoutReaders(t *testing.T) {
	owner := merge.NewManager()
	const sid = "idle"
	tree := aida.NewTree()
	h, err := tree.H1D("/h", "x", "", 10, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	tr := merge.NewTransport(sid, "w0", owner)
	publish := func(x float64) {
		h.Fill(x)
		sendSnap(t, tr, tree)
	}
	publish(0)

	rel := relay.New("idle", owner)
	rel.AutoSubscribe = true
	rel.Interval = 20 * time.Millisecond
	defer rel.Close()

	// Readers poll while the owner publishes: the relay follows.
	var since int64
	for i := 1; i <= 20; i++ {
		publish(float64(i % 10))
		var reply merge.PollReply
		if err := rel.Poll(merge.PollArgs{SessionID: sid, SinceVersion: since}, &reply); err != nil {
			t.Fatal(err)
		}
		since = reply.Version
		time.Sleep(time.Millisecond)
	}
	if rel.Stats().UpPolls == 0 {
		t.Fatal("relay never polled upstream while read")
	}

	// Readers stop; the owner keeps publishing. Wait for the relay's
	// upstream poll count to hold still over several park bounds.
	window := 5 * rel.Interval
	deadline := time.Now().Add(converge)
	for up := rel.Stats().UpPolls; ; {
		publish(1)
		time.Sleep(window)
		now := rel.Stats().UpPolls
		if now == up {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("relay kept polling upstream with no readers: %d → %d in %v", up, now, window)
		}
		up = now
	}
	idleUp := rel.Stats().UpPolls
	for i := 0; i < 10; i++ {
		publish(float64(i))
		time.Sleep(rel.Interval / 2)
	}
	if up := rel.Stats().UpPolls; up != idleUp {
		t.Fatalf("idle relay polled upstream %d more times over 10 publishes", up-idleUp)
	}

	// The first read afterwards syncs before it is served.
	want := frames(t, owner, sid)
	if got := frames(t, rel, sid); !sameFrames(want, got) {
		t.Fatal("first read of an idle relay differs from the owner's state")
	}
	var reply merge.PollReply
	if err := rel.Poll(merge.PollArgs{SessionID: sid, SinceVersion: since}, &reply); err != nil || !reply.Changed {
		t.Fatalf("incremental read after idling = %+v %v, want the missed changes", reply, err)
	}
}

// TestRelaySeededFramesAreItsOwnEncoding: after each sync, every frame
// the relay serves came from the upstream (the local frame cache never
// encoded one) and equals, byte for byte, the relay's own encoding of
// the object it holds — over an in-process upstream, and over RMI, where
// the seeded frames are pooled wire buffers the relay must keep.
func TestRelaySeededFramesAreItsOwnEncoding(t *testing.T) {
	for _, wire := range []bool{false, true} {
		t.Run(fmt.Sprintf("wire=%v", wire), func(t *testing.T) {
			owner := merge.NewManager()
			var up relay.Poller = owner
			if wire {
				srv := rmi.NewServer(nil)
				if err := srv.Register(merge.RMIObjectName, owner); err != nil {
					t.Fatal(err)
				}
				addr, err := srv.ListenAndServe("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				defer srv.Close()
				cl, err := rmi.Dial(addr.String(), "tok")
				if err != nil {
					t.Fatal(err)
				}
				defer cl.Close()
				up = relay.NewRemotePoller(cl, "")
			}
			rel := relay.New("seed", up)
			defer rel.Close()
			const sid = "seeded"
			if err := rel.Subscribe(sid); err != nil {
				t.Fatal(err)
			}

			tree := aida.NewTree()
			h1, err := tree.H1D("/a", "h1", "", 40, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			h2, err := tree.H2D("/a", "h2", "", 10, 0, 1, 10, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			p1, err := tree.P1D("/b", "p1", "", 10, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			c1, err := tree.C1D("/b", "c1", "")
			if err != nil {
				t.Fatal(err)
			}
			dps, err := tree.DPS("/b", "dps", "", 2)
			if err != nil {
				t.Fatal(err)
			}
			tr := merge.NewTransport(sid, "w0", owner)
			for r := 0; r < 6; r++ {
				for i := 0; i < 25; i++ {
					x := float64((r*25+i)%97) / 97
					h1.Fill(x)
					h2.Fill(x, 1-x)
					p1.Fill(x, x*x)
					c1.Fill(x)
				}
				if err := dps.Append(float64(r), float64(r*r)); err != nil {
					t.Fatal(err)
				}
				sendSnap(t, tr, tree)
				if err := rel.SyncNow(sid); err != nil {
					t.Fatal(err)
				}
				if wire {
					// Churn the frame pool: a seeded buffer handed back to it
					// would be overwritten here.
					var pr merge.PollReply
					if err := up.Poll(merge.PollArgs{SessionID: sid, Full: true}, &pr); err != nil {
						t.Fatal(err)
					}
					pr.Release()
				}
			}

			var reply merge.PollReply
			if err := rel.Local().Poll(merge.PollArgs{SessionID: sid, Full: true}, &reply); err != nil {
				t.Fatal(err)
			}
			if _, misses := rel.Local().CacheStats(sid); misses != 0 {
				t.Fatalf("the relay encoded %d frames itself; every one should have been seeded", misses)
			}
			held, _, err := rel.Local().MergedTree(sid)
			if err != nil {
				t.Fatal(err)
			}
			if len(reply.Entries) != 5 {
				t.Fatalf("relay served %d objects, want 5", len(reply.Entries))
			}
			for _, e := range reply.Entries {
				st, err := aida.StateOf(held.Get(e.Path))
				if err != nil {
					t.Fatal(err)
				}
				own, err := aida.EncodeObjectFrame(&st)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(e.Frame, own) {
					t.Fatalf("%s: seeded frame differs from the relay's own encoding", e.Path)
				}
			}
		})
	}
}

// TestRelayTeardownDoesNotWaitOutParks: a relay whose loop is parked
// upstream unsubscribes and closes at once, and a reader parked on the
// relay's copy returns when the session is unsubscribed.
func TestRelayTeardownDoesNotWaitOutParks(t *testing.T) {
	owner := merge.NewManager()
	const sid, sid2 = "teardown", "teardown-2"
	tree := aida.NewTree()
	h, err := tree.H1D("/h", "x", "", 10, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	h.Fill(1)
	sendSnap(t, merge.NewTransport(sid, "w0", owner), tree)
	sendSnap(t, merge.NewTransport(sid2, "w0", owner), tree)

	rel := relay.New("teardown", owner)
	rel.AutoSubscribe = true
	rel.Interval = time.Hour // capped at merge.MaxPollWait by the owner
	var first merge.PollReply
	if err := rel.Poll(merge.PollArgs{SessionID: sid}, &first); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		var reply merge.PollReply
		done <- rel.Poll(merge.PollArgs{SessionID: sid, SinceVersion: first.Version, Wait: viewerWait}, &reply)
	}()
	deadline := time.Now().Add(converge)
	for ownerParked(t, owner, sid) != 1 || ownerParked(t, rel.Local(), sid) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("the relay loop and the reader never both parked")
		}
		time.Sleep(100 * time.Microsecond)
	}
	t0 := time.Now()
	rel.Unsubscribe(sid)
	if d := time.Since(t0); d > 100*time.Millisecond {
		t.Fatalf("Unsubscribe took %v: it waited out the upstream park", d)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
		if d := time.Since(t0); d > 5*time.Millisecond {
			t.Errorf("parked reader returned %v after Unsubscribe, want within 5ms", d)
		}
	case <-time.After(converge):
		t.Fatal("a reader parked on the relay outlived the unsubscribed session")
	}
	if v := rel.Local().Version(sid); v != 0 {
		t.Fatalf("unsubscribed copy still at version %d", v)
	}

	// Close with a loop parked upstream again (on another session: the
	// unsubscribed loop may still be parked on the first until its poll
	// runs out).
	var again merge.PollReply
	if err := rel.Poll(merge.PollArgs{SessionID: sid2}, &again); err != nil {
		t.Fatal(err)
	}
	for ownerParked(t, owner, sid2) != 1 {
		if time.Now().After(deadline.Add(converge)) {
			t.Fatal("the relay loop never parked upstream")
		}
		time.Sleep(100 * time.Microsecond)
	}
	t0 = time.Now()
	rel.Close()
	if d := time.Since(t0); d > 100*time.Millisecond {
		t.Fatalf("Close took %v: it waited out the upstream park", d)
	}
	if err := rel.Subscribe(sid); err == nil {
		t.Fatal("a closed relay accepted a subscription")
	}
}
