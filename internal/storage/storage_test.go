package storage

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func newElement(t *testing.T) *Element {
	t.Helper()
	e, err := New("se0", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestPutReadRoundTrip(t *testing.T) {
	e := newElement(t)
	want := []byte("hello storage element")
	if err := e.PutBytes("/a/b/file.dat", want); err != nil {
		t.Fatal(err)
	}
	got, err := e.ReadBytes("/a/b/file.dat")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("read %q, want %q", got, want)
	}
	if n, err := e.Size("a/b/file.dat"); err != nil || n != int64(len(want)) {
		t.Fatalf("size = %d, %v", n, err)
	}
	if e.Used() != int64(len(want)) {
		t.Fatalf("used = %d, want %d", e.Used(), len(want))
	}
	if got := e.URL("/a/b/file.dat"); got != "se://se0/a/b/file.dat" {
		t.Fatalf("url = %q", got)
	}
}

func TestQuotaOnNewFileAndOverwrite(t *testing.T) {
	e := newElement(t)
	e.SetQuota(150)
	if err := e.PutBytes("/big", make([]byte, 200)); !errors.Is(err, ErrQuota) {
		t.Fatalf("200 B into a 150 B quota: err = %v, want ErrQuota", err)
	}
	if e.Exists("/big") || e.Used() != 0 {
		t.Fatalf("refused new file left exists=%v used=%d", e.Exists("/big"), e.Used())
	}
	if err := e.PutBytes("/f", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	// An overwrite only needs room for its growth over the old size.
	if err := e.PutBytes("/f", make([]byte, 140)); err != nil {
		t.Fatalf("overwrite within quota refused: %v", err)
	}
	if e.Used() != 140 {
		t.Fatalf("used after overwrite = %d, want 140", e.Used())
	}
}

// TestFailedOverwriteKeepsOldFile: an overwrite refused for quota must
// leave the old file and the accounting as they were.
func TestFailedOverwriteKeepsOldFile(t *testing.T) {
	e := newElement(t)
	old := bytes.Repeat([]byte{'x'}, 100)
	if err := e.PutBytes("/f", old); err != nil {
		t.Fatal(err)
	}
	e.SetQuota(150)
	if err := e.PutBytes("/f", make([]byte, 200)); !errors.Is(err, ErrQuota) {
		t.Fatalf("err = %v, want ErrQuota", err)
	}
	got, err := e.ReadBytes("/f")
	if err != nil {
		t.Fatalf("old file lost: %v", err)
	}
	if !bytes.Equal(got, old) {
		t.Fatal("old file content changed by a failed overwrite")
	}
	if e.Used() != 100 {
		t.Fatalf("used = %d, want 100", e.Used())
	}
	if names, _ := e.List("/"); !reflect.DeepEqual(names, []string{"f"}) {
		t.Fatalf("failed put left %v behind", names)
	}
}

func TestDeleteAccounting(t *testing.T) {
	e := newElement(t)
	for p, n := range map[string]int{"/top": 10, "/d/a": 20, "/d/sub/b": 30} {
		if err := e.PutBytes(p, make([]byte, n)); err != nil {
			t.Fatal(err)
		}
	}
	if e.Used() != 60 {
		t.Fatalf("used = %d, want 60", e.Used())
	}
	if err := e.Delete("/top"); err != nil {
		t.Fatal(err)
	}
	if e.Used() != 50 || e.Exists("/top") {
		t.Fatalf("after Delete: used = %d, exists = %v", e.Used(), e.Exists("/top"))
	}
	if err := e.DeleteTree("/d"); err != nil {
		t.Fatal(err)
	}
	if e.Used() != 0 || e.Exists("/d") {
		t.Fatalf("after DeleteTree: used = %d, exists = %v", e.Used(), e.Exists("/d"))
	}
	if err := e.DeleteTree("/never-was"); err != nil {
		t.Fatalf("DeleteTree of a missing path: %v", err)
	}
}

func TestNewAccountsExistingContent(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "x", "a"), make([]byte, 70), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "b"), make([]byte, 5), 0o644); err != nil {
		t.Fatal(err)
	}
	e, err := New("se1", dir)
	if err != nil {
		t.Fatal(err)
	}
	if e.Used() != 75 {
		t.Fatalf("used = %d, want 75", e.Used())
	}
}

func TestDotDotResolvesUnderRoot(t *testing.T) {
	e := newElement(t)
	if err := e.PutBytes("../../escape", []byte("x")); err != nil {
		t.Fatal(err)
	}
	local, err := e.LocalPath("../../escape")
	if err != nil {
		t.Fatal(err)
	}
	if local != filepath.Join(e.Root(), "escape") {
		t.Fatalf("../../escape resolved to %s, outside %s", local, e.Root())
	}
	if _, err := os.Stat(local); err != nil {
		t.Fatalf("file not written under the root: %v", err)
	}
}

func TestListSortsAndMarksDirs(t *testing.T) {
	e := newElement(t)
	for _, p := range []string{"/c", "/a", "/b/inner"} {
		if err := e.PutBytes(p, []byte("1")); err != nil {
			t.Fatal(err)
		}
	}
	got, err := e.List("/")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a", "b/", "c"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("list = %v, want %v", got, want)
	}
}
