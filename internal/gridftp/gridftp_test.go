package gridftp

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"

	"github.com/ipa-grid/ipa/internal/storage"
)

func newServer(t *testing.T, check TokenChecker) (*Server, *storage.Element, string) {
	t.Helper()
	store, err := storage.New("se-test", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store, check)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv, store, addr
}

func randBytes(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func TestSize(t *testing.T) {
	_, store, addr := newServer(t, nil)
	if err := store.PutBytes("/f.bin", randBytes(10000, 7)); err != nil {
		t.Fatal(err)
	}
	c, _ := Dial(addr, "")
	defer c.Close()
	size, err := c.Size("/f.bin")
	if err != nil || size != 10000 {
		t.Fatalf("Size = %d, %v", size, err)
	}
	if _, err := c.Size("/missing"); err == nil {
		t.Fatal("SIZE of missing file succeeded")
	}
}

// TestEmptyFile: an empty file has size 0 and its one range, [0, 0),
// streams nothing and completes.
func TestEmptyFile(t *testing.T) {
	_, store, addr := newServer(t, nil)
	if err := store.PutBytes("/empty", nil); err != nil {
		t.Fatal(err)
	}
	c, _ := Dial(addr, "")
	defer c.Close()
	if size, err := c.Size("/empty"); err != nil || size != 0 {
		t.Fatalf("Size = %d, %v", size, err)
	}
	rc, err := c.OpenRange("/empty", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(rc)
	if cerr := rc.Close(); err == nil {
		err = cerr
	}
	if err != nil || len(got) != 0 {
		t.Fatalf("got %d bytes, %v", len(got), err)
	}
}

func TestAuthRequired(t *testing.T) {
	check := func(token string) error {
		if token != "sesame" {
			return errors.New("wrong token")
		}
		return nil
	}
	_, store, addr := newServer(t, check)
	if err := store.PutBytes("/ok", []byte("hi")); err != nil {
		t.Fatal(err)
	}
	if _, err := Dial(addr, "wrong"); err == nil {
		t.Fatal("bad token accepted")
	}
	c, err := Dial(addr, "sesame")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if size, err := c.Size("/ok"); err != nil || size != 2 {
		t.Fatalf("Size = %d, %v", size, err)
	}
}

// TestOpenRangeStreamsInOrder: a ranged retrieve delivers exactly the
// range's bytes in order — ranges inside one block (fewer blocks than
// streams), across block edges, with a ragged last block, empty and to
// the end — and leaves the control connection usable, also after the
// reader gave up part way.
func TestOpenRangeStreamsInOrder(t *testing.T) {
	_, store, addr := newServer(t, nil)
	payload := randBytes(3*blockSize+12345, 9)
	if err := store.PutBytes("/d.ipa", payload); err != nil {
		t.Fatal(err)
	}
	size := int64(len(payload))
	c, err := Dial(addr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, r := range [][2]int64{{0, size}, {7, 100}, {blockSize - 5, 10}, {100, 2*blockSize + 3}, {size, 0}, {size - 1, 1}} {
		rc, err := c.OpenRange("/d.ipa", r[0], r[1])
		if err != nil {
			t.Fatalf("range %v: %v", r, err)
		}
		got, err := io.ReadAll(rc)
		if cerr := rc.Close(); err == nil {
			err = cerr
		}
		if err != nil || !bytes.Equal(got, payload[r[0]:r[0]+r[1]]) {
			t.Fatalf("range %v: %d bytes, %v", r, len(got), err)
		}
	}
	rc, err := c.OpenRange("/d.ipa", 0, size)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(rc, make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	rc.Close()
	if n, err := c.Size("/d.ipa"); err != nil || n != size {
		t.Fatalf("control connection after an abandoned range: %d, %v", n, err)
	}
	if _, err := c.OpenRange("/d.ipa", size-10, 11); err == nil {
		t.Fatal("range past the end granted")
	}
}

// TestReaderAtSpendsFewTransfers: random access over ranged retrieves
// returns the file's bytes, and small reads near each other share one
// transfer.
func TestReaderAtSpendsFewTransfers(t *testing.T) {
	srv, store, addr := newServer(t, nil)
	payload := randBytes(2*blockSize+77, 11)
	if err := store.PutBytes("/f", payload); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ra := c.ReaderAt("/f", int64(len(payload)))
	for _, off := range []int64{0, 5, 1000, blockSize - 3, blockSize + 9, int64(len(payload)) - 4} {
		p := make([]byte, 10)
		n, err := ra.ReadAt(p, off)
		want := payload[off:min(off+10, int64(len(payload)))]
		if !bytes.Equal(p[:n], want) || (n < 10) != (err == io.EOF) {
			t.Fatalf("ReadAt(10, %d) = %d, %v", off, n, err)
		}
	}
	srv.mu.Lock()
	xfers := srv.nextID
	srv.mu.Unlock()
	// [0, 256K) serves the first three reads, [256K-3, 512K-3) the next
	// two, and the tail one more.
	if xfers != 3 {
		t.Fatalf("%d transfers for six reads, want 3", xfers)
	}
}

// TestRetrieveMissing: a range of a missing file is refused, and the
// control connection stays usable.
func TestRetrieveMissing(t *testing.T) {
	_, store, addr := newServer(t, nil)
	if err := store.PutBytes("/after", []byte("x")); err != nil {
		t.Fatal(err)
	}
	c, _ := Dial(addr, "")
	defer c.Close()
	if _, err := c.OpenRange("/nope", 0, 0); err == nil {
		t.Fatal("ERET of missing file succeeded")
	}
	if size, err := c.Size("/after"); err != nil || size != 1 {
		t.Fatalf("Size after a refused ERET = %d, %v", size, err)
	}
}

func TestStorageQuota(t *testing.T) {
	store, err := storage.New("small", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	store.SetQuota(1000)
	if err := store.PutBytes("/a", make([]byte, 600)); err != nil {
		t.Fatal(err)
	}
	if err := store.PutBytes("/b", make([]byte, 600)); err == nil {
		t.Fatal("quota not enforced")
	}
	// Replacing a file reuses its allocation.
	if err := store.PutBytes("/a", make([]byte, 900)); err != nil {
		t.Fatalf("replace within quota failed: %v", err)
	}
}

func TestStoragePathEscapeRejected(t *testing.T) {
	store, _ := storage.New("s", t.TempDir())
	if err := store.PutBytes("../../escape", []byte("x")); err == nil {
		// filepath.Clean of "/../../escape" is "/escape" — confined.
		if store.Exists("../../escape") {
			p, _ := store.LocalPath("../../escape")
			if !bytes.HasPrefix([]byte(p), []byte(store.Root())) {
				t.Fatal("path escaped the root")
			}
		}
	}
}
