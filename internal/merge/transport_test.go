package merge

import (
	"testing"

	"github.com/ipa-grid/ipa/internal/aida"
	"github.com/ipa-grid/ipa/internal/rmi"
)

// TestRemotePublisherCompressedFrames drives the whole WAN path: a
// transport publishing deltas through an RMI connection, into a manager
// registered on a real RMI server, then polls the merged result back
// over the same wire. The baseline is large enough for the adaptive
// policy to compress it, so a version-2 frame crosses RMI.
func TestRemotePublisherCompressedFrames(t *testing.T) {
	mgr := NewManager()
	srv := rmi.NewServer(nil)
	if err := srv.Register(RMIObjectName, mgr); err != nil {
		t.Fatal(err)
	}
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client, err := rmi.Dial(addr.String(), "tok")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	tr := NewTransport("s", "wan-worker", NewRemotePublisher(client, ""))

	tree := aida.NewTree()
	h, _ := tree.H1D("/a", "h", "", 400, 0, 400)
	for i := 0; i < 500; i++ {
		h.Fill(float64(i % 400))
	}
	send := func() {
		t.Helper()
		rep, err := tr.Send(func(full bool) (Snapshot, error) {
			var d *aida.DeltaState
			var err error
			if full {
				d, err = tree.FullDelta()
			} else {
				d, err = tree.Delta()
			}
			if err != nil {
				return Snapshot{}, err
			}
			return Snapshot{Delta: d, Done: 500, Total: 500}, nil
		})
		if err != nil || !rep.Accepted {
			t.Fatalf("remote publish: %v %+v", err, rep)
		}
	}
	send() // baseline
	h.Fill(7)
	send() // incremental
	if c, _ := tr.CompressionStats(); c < 1 {
		t.Fatal("no frame crossed RMI compressed")
	}

	var poll PollReply
	if err := client.Call(RMIObjectName+".Poll", PollArgs{SessionID: "s"}, &poll); err != nil {
		t.Fatal(err)
	}
	if len(poll.Entries) != 1 {
		t.Fatalf("poll entries = %d", len(poll.Entries))
	}
	obj, err := poll.Entries[0].Restore()
	if err != nil {
		t.Fatal(err)
	}
	if got := obj.(*aida.Histogram1D).Entries(); got != 501 {
		t.Fatalf("merged entries over compressed wire = %d, want 501", got)
	}
}
