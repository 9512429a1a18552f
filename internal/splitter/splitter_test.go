package splitter

import (
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"

	"github.com/ipa-grid/ipa/internal/dataset"
	"github.com/ipa-grid/ipa/internal/locator"
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
	_, err = WriteParts(r, plan, func(p Part) (io.Writer, func() error, error) {
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

func TestLocatorResolution(t *testing.T) {
	s := locator.New()
	if err := s.Register("ds-001", locator.Replica{URL: "gsiftp://remote:2811/d1", Site: "fnal", Priority: 5}); err != nil {
		t.Fatal(err)
	}
	if err := s.Register("ds-001", locator.Replica{URL: "gsiftp://local:2811/d1", Site: "slac", Priority: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Register("ds-001", locator.Replica{URL: "gsiftp://local2:2811/d1", Site: "slac", Priority: 9}); err != nil {
		t.Fatal(err)
	}
	res, err := s.Resolve("ds-001", "slac")
	if err != nil {
		t.Fatal(err)
	}
	// Same-site first, then priority within site.
	if res.Replicas[0].URL != "gsiftp://local2:2811/d1" {
		t.Fatalf("best replica = %+v", res.Replicas[0])
	}
	if res.Replicas[1].URL != "gsiftp://local:2811/d1" {
		t.Fatalf("second replica = %+v", res.Replicas[1])
	}
	if res.Replicas[2].Site != "fnal" {
		t.Fatalf("third replica = %+v", res.Replicas[2])
	}
	// From a different site, remote priority wins.
	res, _ = s.Resolve("ds-001", "fnal")
	if res.Replicas[0].Site != "fnal" {
		t.Fatal("site preference broken")
	}
	if _, err := s.Resolve("ds-404", "slac"); err == nil {
		t.Fatal("unknown dataset resolved")
	}
	if dup := s.Register("ds-001", locator.Replica{URL: "gsiftp://local:2811/d1", Site: "x"}); dup == nil {
		t.Fatal("duplicate replica accepted")
	}
}
