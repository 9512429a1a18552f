package relay

import (
	"testing"
	"time"

	"github.com/ipa-grid/ipa/internal/aida"
	"github.com/ipa-grid/ipa/internal/merge"
)

// TestRelayFirstReadSyncsBeforeFollow: a subscription's loop can claim a
// first read's demand, and so clear idle, before its first upstream
// exchange lands. The read must still be served the upstream's state,
// not the never-synced empty copy. The loop is held between claiming the
// demand and its exchange until the read has been served.
func TestRelayFirstReadSyncsBeforeFollow(t *testing.T) {
	owner := merge.NewManager()
	const sid = "first-read"
	tree := aida.NewTree()
	h, err := tree.H1D("/h", "x", "", 10, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	h.Fill(3)
	d, err := tree.FullDelta()
	if err != nil {
		t.Fatal(err)
	}
	var pub merge.PublishReply
	if err := owner.Publish(merge.PublishArgs{SessionID: sid, WorkerID: "w0", Seq: 1, Delta: d}, &pub); err != nil || !pub.Accepted {
		t.Fatalf("publish = %+v, %v", pub, err)
	}

	claimed := make(chan struct{})
	served := make(chan struct{})
	hook := func(id string) {
		if id != sid {
			return
		}
		select {
		case <-claimed:
			return // only the first exchange is held
		default:
		}
		close(claimed)
		select {
		case <-served:
		case <-time.After(10 * time.Second):
		}
	}
	testHookFollow.Store(&hook)
	defer testHookFollow.Store(nil)

	rel := New("first-read", owner)
	rel.Interval = 20 * time.Millisecond
	defer rel.Close()
	if err := rel.Subscribe(sid); err != nil {
		t.Fatal(err)
	}
	v, _ := rel.subs.Load(sid)
	s := v.(*subscription)
	// The read's demand lands before its idle check, and the loop sees it
	// first: record it as Poll does, and wake a loop already waiting.
	s.read.Store(true)
	select {
	case s.kick <- struct{}{}:
	default:
	}
	select {
	case <-claimed:
	case <-time.After(10 * time.Second):
		t.Fatal("the loop never claimed the demand")
	}
	if s.idle.Load() {
		t.Fatal("the loop claimed the demand but left the subscription idle")
	}

	var reply merge.PollReply
	err = rel.Poll(merge.PollArgs{SessionID: sid}, &reply)
	close(served)
	if err != nil {
		t.Fatal(err)
	}
	if want := owner.Version(sid); reply.Version == 0 || len(reply.Entries) != 1 || reply.Entries[0].Path != "/h/x" {
		t.Fatalf("first read served version %d with %d entries; upstream is at version %d with /h/x",
			reply.Version, len(reply.Entries), want)
	}
}
