package merge

import (
	"reflect"
	"testing"

	"github.com/ipa-grid/ipa/internal/aida"
)

// TestCursorVerdicts pins the one resync rule every follower applies: a
// reply continues the cursor, shows the state was rebuilt under it, or
// shows the session unknown — and Take leaves the cursor where the next
// poll must start.
func TestCursorVerdicts(t *testing.T) {
	for _, tc := range []struct {
		name  string
		at    Cursor
		reply PollReply
		want  Verdict
		// next is the cursor after taking the reply.
		next Cursor
	}{
		{"first reply", Cursor{}, PollReply{Version: 4, Epoch: 7, Changed: true}, Continues, Cursor{Version: 4, Epoch: 7}},
		{"first reply without an epoch", Cursor{}, PollReply{Version: 4}, Continues, Cursor{Version: 4}},
		{"same epoch, version advanced", Cursor{Version: 4, Epoch: 7}, PollReply{Version: 9, Epoch: 7, Changed: true}, Continues, Cursor{Version: 9, Epoch: 7}},
		{"same epoch, version unchanged", Cursor{Version: 4, Epoch: 7}, PollReply{Version: 4, Epoch: 7}, Continues, Cursor{Version: 4, Epoch: 7}},
		{"same epoch, version regressed", Cursor{Version: 9, Epoch: 7}, PollReply{Version: 4, Epoch: 7, Changed: true}, Rebuilt, Cursor{Version: 4, Epoch: 7}},
		{"no epochs, version regressed", Cursor{Version: 9}, PollReply{Version: 4, Changed: true}, Rebuilt, Cursor{Version: 4}},
		{"new epoch, version overtaken", Cursor{Version: 4, Epoch: 7}, PollReply{Version: 12, Epoch: 8, Changed: true}, Rebuilt, Cursor{Version: 12, Epoch: 8}},
		{"new epoch, version regressed", Cursor{Version: 9, Epoch: 7}, PollReply{Version: 2, Epoch: 8, Changed: true}, Rebuilt, Cursor{Version: 2, Epoch: 8}},
		{"reply without an epoch", Cursor{Version: 4, Epoch: 7}, PollReply{Version: 5, Changed: true}, Continues, Cursor{Version: 5, Epoch: 7}},
		{"new epoch before any version", Cursor{Epoch: 7}, PollReply{Version: 3, Epoch: 8, Changed: true}, Continues, Cursor{Version: 3, Epoch: 8}},
		{"unknown session", Cursor{Version: 4, Epoch: 7}, PollReply{}, Unknown, Cursor{Epoch: 7}},
		{"tombstone", Cursor{Version: 4, Epoch: 7}, PollReply{Epoch: 8}, Unknown, Cursor{Epoch: 8}},
		{"unknown before any reply", Cursor{}, PollReply{}, Unknown, Cursor{}},
		{"full reply, same epoch", Cursor{Version: 4, Epoch: 7}, PollReply{Version: 6, Epoch: 7, Changed: true}, Continues, Cursor{Version: 6, Epoch: 7}},
		{"full reply, new epoch", Cursor{Version: 4, Epoch: 7}, PollReply{Version: 6, Epoch: 8, Changed: true}, Rebuilt, Cursor{Version: 6, Epoch: 8}},
		{"full reply to a reset cursor", Cursor{}, PollReply{Version: 2, Epoch: 8, Changed: true}, Continues, Cursor{Version: 2, Epoch: 8}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.at
			c.Session, tc.next.Session = "s", "s"
			if got := c.Verdict(&tc.reply); got != tc.want {
				t.Fatalf("verdict = %d, want %d", got, tc.want)
			}
			c.Take(&tc.reply)
			if c != tc.next {
				t.Fatalf("after Take cursor = %+v, want %+v", c, tc.next)
			}
		})
	}
}

// TestCursorArgs: the cursor's next poll starts at its position, a
// continuation that brings nothing is Unchanged, and Reset goes back to
// the zero position of the same session.
func TestCursorArgs(t *testing.T) {
	c := Cursor{Session: "s", Version: 4, Epoch: 7}
	want := PollArgs{SessionID: "s", SinceVersion: 4, SinceEpoch: 7, Wait: 3}
	if got := c.Args(false, 3); got != want {
		t.Fatalf("increment args = %+v, want %+v", got, want)
	}
	want = PollArgs{SessionID: "s", SinceVersion: 4, SinceEpoch: 7, Full: true}
	if got := c.Args(true, 0); got != want {
		t.Fatalf("full args = %+v, want %+v", got, want)
	}
	if !c.Unchanged(&PollReply{Version: 4, Epoch: 7}) {
		t.Fatal("a reply at the cursor's version is not Unchanged")
	}
	if c.Unchanged(&PollReply{Version: 4, Epoch: 7, Changed: true}) || c.Unchanged(&PollReply{Version: 5, Epoch: 7}) {
		t.Fatal("a reply with news is Unchanged")
	}
	c.Reset()
	if c != (Cursor{Session: "s"}) {
		t.Fatalf("reset cursor = %+v", c)
	}
}

// TestPollReplySnapshot: a reply becomes a transport payload with its
// entries decoded, removals only on an increment, progress summed and
// log lines joined.
func TestPollReplySnapshot(t *testing.T) {
	m := NewManager()
	tree := aida.NewTree()
	h, _ := tree.H1D("/a", "h", "", 10, 0, 10)
	h2, _ := tree.H1D("/a", "gone", "", 10, 0, 10)
	h.Fill(1)
	h2.Fill(2)
	tr := NewTransport("s", "w0", m)
	send := func(log string) {
		t.Helper()
		if _, err := tr.Send(func(full bool) (Snapshot, error) {
			d, err := tree.Delta()
			if full {
				d, err = tree.FullDelta()
			}
			return Snapshot{Delta: d, Done: 5, Total: 10, Log: log}, err
		}); err != nil {
			t.Fatal(err)
		}
	}
	send("one")
	tree.Rm("/a/gone")
	h.Fill(2)
	send("two")
	var pr PollReply
	if err := m.Poll(PollArgs{SessionID: "s", SinceVersion: 0}, &pr); err != nil {
		t.Fatal(err)
	}
	pr.Logs = append(pr.Logs, "three")
	pr.Progress = append(pr.Progress, WorkerProgress{WorkerID: "w1", EventsDone: 1, EventsTotal: 2})
	for _, full := range []bool{false, true} {
		snap, err := pr.Snapshot(full)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Delta.Full != full || len(snap.Delta.Entries) != 1 || snap.Delta.Entries[0].Path != "/a/h" {
			t.Fatalf("full=%v delta = %+v", full, snap.Delta)
		}
		obj, err := snap.Delta.Entries[0].Object.Restore()
		if err != nil || obj.EntriesCount() != 2 {
			t.Fatalf("full=%v decoded /a/h = %v, %v; want 2 entries", full, obj, err)
		}
		var removed []string
		if !full {
			removed = []string{"/a/gone"}
		}
		if !reflect.DeepEqual(snap.Delta.Removed, removed) {
			t.Fatalf("full=%v removed = %v, want %v", full, snap.Delta.Removed, removed)
		}
		if snap.Done != 6 || snap.Total != 12 || snap.Log != "one\ntwo\nthree" {
			t.Fatalf("full=%v progress %d/%d log %q", full, snap.Done, snap.Total, snap.Log)
		}
	}
}
