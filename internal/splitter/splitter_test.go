package splitter

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"

	"github.com/ipa-grid/ipa/internal/dataset"
)

// buildDataset writes count records of varying size and reopens it.
func buildDataset(t testing.TB, dir string, count int, seed int64) (*dataset.Reader, func()) {
	t.Helper()
	path := filepath.Join(dir, "src.ipa")
	w, closer, err := dataset.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < count; i++ {
		rec := make([]byte, 10+rng.Intn(90))
		rng.Read(rec)
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := closer(); err != nil {
		t.Fatal(err)
	}
	r, f, err := dataset.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return r, func() { f.Close() }
}

func TestPlanCoversAllRecordsExactly(t *testing.T) {
	r, done := buildDataset(t, t.TempDir(), 103, 1)
	defer done()
	plan, err := PlanRecords(r, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Parts) != 4 {
		t.Fatalf("%d parts", len(plan.Parts))
	}
	var total int64
	prev := int64(0)
	for _, p := range plan.Parts {
		if p.FromRecord != prev {
			t.Fatalf("gap: part %d starts at %d, want %d", p.Index, p.FromRecord, prev)
		}
		prev = p.ToRecord
		total += p.Records()
	}
	if total != 103 || prev != 103 {
		t.Fatalf("coverage: total=%d end=%d", total, prev)
	}
	// 103 = 4*25 + 3 → three parts of 26, one of 25.
	if plan.Parts[0].Records() != 26 || plan.Parts[3].Records() != 25 {
		t.Fatalf("record distribution: %v", plan.Parts)
	}
}

func TestPlanMorePartsThanRecords(t *testing.T) {
	r, done := buildDataset(t, t.TempDir(), 3, 2)
	defer done()
	plan, err := PlanRecords(r, 8)
	if err != nil {
		t.Fatal(err)
	}
	var nonEmpty int
	for _, p := range plan.Parts {
		if p.Records() > 0 {
			nonEmpty++
		}
	}
	if nonEmpty != 3 {
		t.Fatalf("%d non-empty parts, want 3", nonEmpty)
	}
}

func TestPlanValidation(t *testing.T) {
	r, done := buildDataset(t, t.TempDir(), 10, 3)
	defer done()
	if _, err := PlanRecords(r, 0); err == nil {
		t.Fatal("0 parts accepted")
	}
}

func TestWritePartsAreValidContainers(t *testing.T) {
	dir := t.TempDir()
	r, done := buildDataset(t, dir, 250, 4)
	defer done()
	plan, err := PlanRecords(r, 5)
	if err != nil {
		t.Fatal(err)
	}
	paths := map[int]string{}
	err = WriteParts(r, plan, func(p Part) (io.Writer, func() error, error) {
		path := filepath.Join(dir, fmt.Sprintf("part%d.ipa", p.Index))
		paths[p.Index] = path
		return dataset.CreateRaw(path)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Reassemble and compare to the source, record by record.
	var all [][]byte
	for i := 0; i < 5; i++ {
		pr, pf, err := dataset.Open(paths[i])
		if err != nil {
			t.Fatalf("part %d: %v", i, err)
		}
		if pr.NumRecords() != plan.Parts[i].Records() {
			t.Fatalf("part %d has %d records, plan says %d", i, pr.NumRecords(), plan.Parts[i].Records())
		}
		if err := pr.VerifyChecksum(); err != nil {
			t.Fatalf("part %d checksum: %v", i, err)
		}
		it, _ := pr.Iter(0, -1)
		for {
			rec, err := it.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, append([]byte(nil), rec...))
		}
		pf.Close()
	}
	if int64(len(all)) != r.NumRecords() {
		t.Fatalf("reassembled %d records, want %d", len(all), r.NumRecords())
	}
	it, _ := r.Iter(0, -1)
	for i := 0; ; i++ {
		rec, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if string(rec) != string(all[i]) {
			t.Fatalf("record %d differs after split", i)
		}
	}
}

// TestPartsEqualAppendedContainers: a part copied from its byte range is,
// byte for byte, the container a Writer builds by appending the part's
// records one by one — so the index and trailer are rebuilt exactly, and
// the plan's offsets name the bytes the part copies.
func TestPartsEqualAppendedContainers(t *testing.T) {
	r, done := buildDataset(t, t.TempDir(), 1000, 7)
	defer done()
	for _, n := range []int{1, 3, 7} {
		plan, err := PlanRecords(r, n)
		if err != nil {
			t.Fatal(err)
		}
		parts := make([]bytes.Buffer, n)
		err = WriteParts(r, plan, func(p Part) (io.Writer, func() error, error) {
			return &parts[p.Index], func() error { return nil }, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range plan.Parts {
			var want bytes.Buffer
			w, err := dataset.NewWriter(&want)
			if err != nil {
				t.Fatal(err)
			}
			for rec := p.FromRecord; rec < p.ToRecord; rec++ {
				b, err := r.Record(rec)
				if err != nil {
					t.Fatal(err)
				}
				if err := w.Append(b); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(parts[i].Bytes(), want.Bytes()) {
				t.Fatalf("n=%d part %d: %d bytes differ from the %d-byte appended container", n, i, parts[i].Len(), want.Len())
			}
			if off, _ := r.OffsetOf(p.FromRecord); off != p.Offset {
				t.Fatalf("n=%d part %d: plan offset %d, record %d starts at %d", n, i, p.Offset, p.FromRecord, off)
			}
		}
	}
}

func TestSplitFileHelper(t *testing.T) {
	dir := t.TempDir()
	r, done := buildDataset(t, dir, 64, 5)
	done()
	_ = r
	plan, err := SplitFile(filepath.Join(dir, "src.ipa"), 3, func(i int) string {
		return filepath.Join(dir, fmt.Sprintf("out%d.ipa", i))
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.TotalRecords != 64 {
		t.Fatalf("plan records = %d", plan.TotalRecords)
	}
	for i := 0; i < 3; i++ {
		pr, pf, err := dataset.Open(filepath.Join(dir, fmt.Sprintf("out%d.ipa", i)))
		if err != nil {
			t.Fatal(err)
		}
		if pr.NumRecords() == 0 {
			t.Fatalf("part %d empty", i)
		}
		pf.Close()
	}
}

func TestImbalanceReasonable(t *testing.T) {
	r, done := buildDataset(t, t.TempDir(), 1000, 6)
	defer done()
	plan, err := PlanRecords(r, 8)
	if err != nil {
		t.Fatal(err)
	}
	if imb := plan.Imbalance(); imb < 1.0 || imb > 1.2 {
		t.Fatalf("imbalance %.3f outside [1.0, 1.2] for 1000 random records", imb)
	}
}

// Property: any (record count, part count) combination conserves records
// and produces monotone contiguous ranges.
func TestQuickPlanInvariants(t *testing.T) {
	dir := t.TempDir()
	f := func(recs uint8, parts uint8) bool {
		n := int(recs)%200 + 1
		k := int(parts)%16 + 1
		r, done := buildDataset(t, dir, n, int64(n*1000+k))
		defer done()
		plan, err := PlanRecords(r, k)
		if err != nil {
			return false
		}
		var total int64
		prev := int64(0)
		for _, p := range plan.Parts {
			if p.FromRecord != prev || p.ToRecord < p.FromRecord {
				return false
			}
			prev = p.ToRecord
			total += p.Records()
		}
		// Equal split: no two parts differ by more than one record.
		var minR, maxR int64 = 1 << 62, 0
		for _, p := range plan.Parts {
			if p.Records() < minR {
				minR = p.Records()
			}
			if p.Records() > maxR {
				maxR = p.Records()
			}
		}
		return total == int64(n) && prev == int64(n) && maxR-minR <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
