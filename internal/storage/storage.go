// Package storage implements Grid storage elements: the rooted file stores
// behind the paper's "Grid Storage Element" and the "Shared Disk Space" of
// the compute element (Figure 2). A storage element is a directory tree
// with space accounting and se:// URL naming; the GridFTP server serves
// one, the splitter writes part files into one, and worker scratch areas
// are one per node.
package storage

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// ErrQuota is returned when a write would exceed the element's capacity.
var ErrQuota = errors.New("storage: quota exceeded")

// Element is one storage element rooted at a directory.
type Element struct {
	name string
	root string

	mu    sync.Mutex
	quota int64 // bytes, 0 = unlimited
	used  int64
}

// New creates (or opens) a storage element rooted at dir.
func New(name, dir string) (*Element, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: creating root: %w", err)
	}
	e := &Element{name: name, root: dir}
	// Account for pre-existing content.
	used, err := duBytes(dir)
	if err != nil {
		return nil, err
	}
	e.used = used
	return e, nil
}

func duBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// Name returns the element's logical name.
func (e *Element) Name() string { return e.name }

// Root returns the filesystem root.
func (e *Element) Root() string { return e.root }

// SetQuota bounds total stored bytes (0 = unlimited).
func (e *Element) SetQuota(bytes int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.quota = bytes
}

// Used returns the current accounted usage in bytes.
func (e *Element) Used() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.used
}

// URL renders the se:// name for a path on this element.
func (e *Element) URL(path string) string {
	return "se://" + e.name + "/" + strings.TrimPrefix(path, "/")
}

// resolve validates a logical path and maps it under the root,
// refusing escapes ("..").
func (e *Element) resolve(path string) (string, error) {
	clean := filepath.Clean("/" + strings.TrimPrefix(path, "/"))
	if strings.Contains(clean, "..") {
		return "", fmt.Errorf("storage: invalid path %q", path)
	}
	return filepath.Join(e.root, clean), nil
}

// Put streams r into path, replacing any existing file. The bytes land
// in a sibling temporary file that is renamed over path only once the
// copy succeeds, so a failed Put (quota, reader error) leaves the old
// file and the accounted usage as they were.
func (e *Element) Put(path string, r io.Reader) (int64, error) {
	full, err := e.resolve(path)
	if err != nil {
		return 0, err
	}
	dir := filepath.Dir(full)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	var old int64
	if st, err := os.Stat(full); err == nil {
		old = st.Size()
	}
	f, err := os.CreateTemp(dir, "."+filepath.Base(full)+".put-*")
	if err != nil {
		return 0, err
	}
	n, err := io.Copy(f, &quotaReader{r: r, e: e, old: old})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), full)
	}
	if err != nil {
		os.Remove(f.Name())
		return n, err
	}
	e.account(n - old)
	return n, nil
}

// quotaReader enforces the quota as bytes stream in.
type quotaReader struct {
	r    io.Reader
	e    *Element
	old  int64
	seen int64
}

func (q *quotaReader) Read(p []byte) (int, error) {
	n, err := q.r.Read(p)
	q.seen += int64(n)
	q.e.mu.Lock()
	over := q.e.quota > 0 && q.e.used-q.old+q.seen > q.e.quota
	q.e.mu.Unlock()
	if over {
		return n, ErrQuota
	}
	return n, err
}

func (e *Element) account(delta int64) {
	e.mu.Lock()
	e.used += delta
	if e.used < 0 {
		e.used = 0
	}
	e.mu.Unlock()
}

// PutBytes stores b at path.
func (e *Element) PutBytes(path string, b []byte) error {
	_, err := e.Put(path, strings.NewReader(string(b)))
	return err
}

// Open returns a reader and the size for path.
func (e *Element) Open(path string) (io.ReadSeekCloser, int64, error) {
	full, err := e.resolve(path)
	if err != nil {
		return nil, 0, err
	}
	f, err := os.Open(full)
	if err != nil {
		return nil, 0, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	if st.IsDir() {
		f.Close()
		return nil, 0, fmt.Errorf("storage: %q is a directory", path)
	}
	return f, st.Size(), nil
}

// ReadBytes loads the whole file at path.
func (e *Element) ReadBytes(path string) ([]byte, error) {
	r, _, err := e.Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return io.ReadAll(r)
}

// Size returns the byte size of path.
func (e *Element) Size(path string) (int64, error) {
	full, err := e.resolve(path)
	if err != nil {
		return 0, err
	}
	st, err := os.Stat(full)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// Exists reports whether path exists.
func (e *Element) Exists(path string) bool {
	full, err := e.resolve(path)
	if err != nil {
		return false
	}
	_, err = os.Stat(full)
	return err == nil
}

// LocalPath exposes the underlying filesystem path (for same-host readers
// like the analysis engine opening its staged part).
func (e *Element) LocalPath(path string) (string, error) { return e.resolve(path) }

// Delete removes path (file or empty directory).
func (e *Element) Delete(path string) error {
	full, err := e.resolve(path)
	if err != nil {
		return err
	}
	st, err := os.Stat(full)
	if err != nil {
		return err
	}
	if err := os.Remove(full); err != nil {
		return err
	}
	if !st.IsDir() {
		e.account(-st.Size())
	}
	return nil
}

// DeleteTree removes a whole subtree.
func (e *Element) DeleteTree(path string) error {
	full, err := e.resolve(path)
	if err != nil {
		return err
	}
	freed, err := duBytes(full)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	if err := os.RemoveAll(full); err != nil {
		return err
	}
	e.account(-freed)
	return nil
}

// List returns the entries under a directory path, sorted; directories get
// a trailing slash.
func (e *Element) List(path string) ([]string, error) {
	full, err := e.resolve(path)
	if err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(full)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(entries))
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() {
			name += "/"
		}
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}
