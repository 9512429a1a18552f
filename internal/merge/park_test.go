package merge

import (
	"testing"
	"time"

	"github.com/ipa-grid/ipa/internal/rmi"
)

// parkedPoll starts a poll of sid parked since the given version and
// returns a channel that receives its reply, and when it returned.
func parkedPoll(p interface {
	Poll(PollArgs, *PollReply) error
}, sid string, since int64, wait time.Duration) <-chan parkResult {
	out := make(chan parkResult, 1)
	go func() {
		var reply PollReply
		err := p.Poll(PollArgs{SessionID: sid, SinceVersion: since, Wait: wait}, &reply)
		out <- parkResult{reply: reply, err: err, at: time.Now()}
	}()
	return out
}

type parkResult struct {
	reply PollReply
	err   error
	at    time.Time
}

// waitParked returns once n polls are parked on sid.
func waitParked(t *testing.T, m *Manager, sid string, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var st StatsReply
		if err := m.Stats(StatsArgs{SessionID: sid}, &st); err != nil {
			t.Fatal(err)
		}
		if st.Parked == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d polls parked on %s, want %d", st.Parked, sid, n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestParkedPollWakesOnEveryStateChange parks a poll at the current
// version and checks that each event which can change its answer —
// a commit, a seal, a fence, a drop, a handoff tombstone — ends the
// park within 5 ms, long before its deadline, and that the poll then
// answers as an unparked poll would.
func TestParkedPollWakesOnEveryStateChange(t *testing.T) {
	events := []struct {
		name string
		do   func(m *Manager) error
		// wantVersion is the parked poll's answer: 0 = the session reads
		// as unknown, -1 = unchanged (the version it parked at), else
		// one past it.
		wantVersion int64
	}{
		{"publish", func(m *Manager) error {
			d := snapshot(t, map[string][]float64{"/h/x": {4}})
			d.Full = false
			return m.Publish(PublishArgs{SessionID: "s", WorkerID: "w0", Seq: 2, Delta: d}, &PublishReply{})
		}, 2},
		{"reset", func(m *Manager) error { return m.Reset(ResetArgs{SessionID: "s"}, &ResetReply{}) }, 2},
		{"seal", func(m *Manager) error { return m.Seal(SealArgs{SessionID: "s", On: true}, &SealReply{}) }, -1},
		{"export-seal", func(m *Manager) error {
			return m.Export(ExportArgs{SessionID: "s", Seal: true}, &ExportReply{})
		}, -1},
		{"fence", func(m *Manager) error { return m.Fence(FenceArgs{SessionID: "s"}, &FenceReply{}) }, 0},
		{"drop", func(m *Manager) error { m.Drop("s"); return nil }, 0},
		{"tombstone", func(m *Manager) error {
			return m.DropSession(DropArgs{SessionID: "s", Tombstone: true}, &DropReply{})
		}, 0},
	}
	for _, ev := range events {
		t.Run(ev.name, func(t *testing.T) {
			m := NewManager()
			if err := m.Publish(PublishArgs{SessionID: "s", WorkerID: "w0", Seq: 1,
				Delta: snapshot(t, map[string][]float64{"/h/x": {1}})}, &PublishReply{}); err != nil {
				t.Fatal(err)
			}
			done := parkedPoll(m, "s", 1, time.Minute)
			waitParked(t, m, "s", 1)
			t0 := time.Now()
			if err := ev.do(m); err != nil {
				t.Fatal(err)
			}
			var res parkResult
			select {
			case res = <-done:
			case <-time.After(2 * time.Second):
				t.Fatalf("%s did not wake the parked poll", ev.name)
			}
			if res.err != nil {
				t.Fatal(res.err)
			}
			if woke := res.at.Sub(t0); woke > 5*time.Millisecond {
				t.Errorf("parked poll returned %v after %s, want within 5ms", woke, ev.name)
			}
			want := ev.wantVersion
			if want < 0 {
				want = 1
			}
			if res.reply.Version != want {
				t.Errorf("after %s the parked poll read version %d, want %d", ev.name, res.reply.Version, want)
			}
		})
	}
}

// TestParkedPollAnswersAtDeadline: with nothing happening, a parked poll
// returns unchanged once its wait has passed.
func TestParkedPollAnswersAtDeadline(t *testing.T) {
	m := NewManager()
	if err := m.Publish(PublishArgs{SessionID: "s", WorkerID: "w0", Seq: 1,
		Delta: snapshot(t, map[string][]float64{"/h/x": {1}})}, &PublishReply{}); err != nil {
		t.Fatal(err)
	}
	const wait = 20 * time.Millisecond
	t0 := time.Now()
	var reply PollReply
	if err := m.Poll(PollArgs{SessionID: "s", SinceVersion: 1, Wait: wait}, &reply); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(t0); d < wait {
		t.Fatalf("parked poll returned after %v, before its %v wait", d, wait)
	}
	if reply.Changed || reply.Version != 1 || len(reply.Progress) != 1 {
		t.Fatalf("timed-out park = %+v, want the unchanged answer", reply)
	}
	// A poll that is behind is never parked.
	t0 = time.Now()
	reply = PollReply{}
	if err := m.Poll(PollArgs{SessionID: "s", SinceVersion: 0, Wait: time.Minute}, &reply); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(t0); d > time.Second || !reply.Changed {
		t.Fatalf("a behind poll parked for %v (changed=%v)", d, reply.Changed)
	}
}

// TestParkedPollWakesOnSessionBirth: a poll of a session the manager
// does not hold yet parks until the session's first publish has created
// it and committed, and then reads that publish.
func TestParkedPollWakesOnSessionBirth(t *testing.T) {
	m := NewManager()
	done := parkedPoll(m, "new", 0, time.Minute)
	time.Sleep(time.Millisecond) // let the poll park; either order must pass
	if err := m.Publish(PublishArgs{SessionID: "new", WorkerID: "w0", Seq: 1,
		Delta: snapshot(t, map[string][]float64{"/h/x": {1}})}, &PublishReply{}); err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-done:
		if res.err != nil || res.reply.Version != 1 || !res.reply.Changed {
			t.Fatalf("poll woken by birth = %+v, %v", res.reply, res.err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the session's first publish did not wake a poll parked on it")
	}
}

// TestParkedPollOverRMI: a parked poll holds one handler goroutine, not
// the connection — a publish on the same client connection goes
// through at once and wakes it — and the server caps an hour-long Wait
// at MaxPollWait.
func TestParkedPollOverRMI(t *testing.T) {
	t.Parallel()
	m := NewManager()
	srv := rmi.NewServer(nil)
	if err := srv.Register(RMIObjectName, m); err != nil {
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
	remote := NewRemotePublisher(cl, "")
	if err := remote.Publish(PublishArgs{SessionID: "s", WorkerID: "w0", Seq: 1,
		Delta: snapshot(t, map[string][]float64{"/h/x": {1}})}, &PublishReply{}); err != nil {
		t.Fatal(err)
	}

	poller := rmiPoller{cl}
	done := parkedPoll(poller, "s", 1, time.Hour)
	waitParked(t, m, "s", 1)
	d := snapshot(t, map[string][]float64{"/h/x": {2}})
	d.Full = false
	t0 := time.Now()
	var rep PublishReply
	if err := remote.Publish(PublishArgs{SessionID: "s", WorkerID: "w0", Seq: 2, Delta: d}, &rep); err != nil || !rep.Accepted {
		t.Fatalf("publish behind a parked poll: %+v %v", rep, err)
	}
	if took := time.Since(t0); took > time.Second {
		t.Fatalf("a publish on the parked poll's connection took %v", took)
	}
	select {
	case res := <-done:
		if res.err != nil || res.reply.Version != 2 || !res.reply.Changed {
			t.Fatalf("parked poll over RMI = %+v, %v", res.reply, res.err)
		}
		res.reply.Release()
	case <-time.After(2 * time.Second):
		t.Fatal("the publish did not wake the poll parked over RMI")
	}

	t0 = time.Now()
	res := <-parkedPoll(poller, "s", 2, time.Hour)
	if res.err != nil {
		t.Fatal(res.err)
	}
	if took := res.at.Sub(t0); took < MaxPollWait || took > MaxPollWait+2*time.Second {
		t.Fatalf("an hour-long Wait parked %v, want the %v cap", took, MaxPollWait)
	}
}

type rmiPoller struct{ c *rmi.Client }

func (p rmiPoller) Poll(args PollArgs, reply *PollReply) error {
	return p.c.Call(RMIObjectName+".Poll", args, reply)
}
