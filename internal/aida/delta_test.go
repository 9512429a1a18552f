package aida

import "testing"

func TestFirstDeltaIsFullBaseline(t *testing.T) {
	tr := NewTree()
	h, _ := tr.H1D("/a", "h", "", 10, 0, 10)
	h.Fill(1)
	d, err := tr.Delta()
	if err != nil {
		t.Fatal(err)
	}
	if !d.Full || len(d.Entries) != 1 {
		t.Fatalf("first delta = %+v, want full with 1 entry", d)
	}
}

func TestDeltaCarriesOnlyTouchedObjects(t *testing.T) {
	tr := NewTree()
	h1, _ := tr.H1D("/a", "h1", "", 10, 0, 10)
	h2, _ := tr.H1D("/a", "h2", "", 10, 0, 10)
	h1.Fill(1)
	h2.Fill(2)
	if _, err := tr.Delta(); err != nil {
		t.Fatal(err)
	}
	// Nothing touched → empty delta.
	d, err := tr.Delta()
	if err != nil {
		t.Fatal(err)
	}
	if d.Full || len(d.Entries) != 0 || len(d.Removed) != 0 {
		t.Fatalf("idle delta = %+v, want empty", d)
	}
	// One fill, one new object.
	h1.Fill(3)
	h3, _ := tr.H1D("/b", "h3", "", 5, 0, 5)
	_ = h3 // new objects are included even without fills
	d, err = tr.Delta()
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Entries) != 2 {
		t.Fatalf("delta entries = %d, want 2 (touched h1 + new h3)", len(d.Entries))
	}
	paths := map[string]bool{}
	for _, e := range d.Entries {
		paths[e.Path] = true
	}
	if !paths["/a/h1"] || !paths["/b/h3"] {
		t.Fatalf("delta paths = %v", paths)
	}
	// The snapshot is a deep copy: filling after Delta must not change it.
	if d.Entries[0].Object.H1.SumW != tr.Get(d.Entries[0].Path).(*Histogram1D).SumBinHeights() {
		t.Fatal("unexpected state divergence before mutation")
	}
}

func TestDeltaTracksRemovals(t *testing.T) {
	tr := NewTree()
	tr.H1D("/a", "h1", "", 10, 0, 10)
	tr.H1D("/a/sub", "h2", "", 10, 0, 10)
	if _, err := tr.Delta(); err != nil {
		t.Fatal(err)
	}
	tr.Rm("/a/h1")
	tr.RmDir("/a/sub")
	d, err := tr.Delta()
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Removed) != 2 || d.Removed[0] != "/a/h1" || d.Removed[1] != "/a/sub/h2" {
		t.Fatalf("removed = %v", d.Removed)
	}
	// A later delta no longer reports them.
	d, _ = tr.Delta()
	if len(d.Removed) != 0 {
		t.Fatalf("removals reported twice: %v", d.Removed)
	}
}

func TestFullDeltaResetsBookkeeping(t *testing.T) {
	tr := NewTree()
	h, _ := tr.H1D("/a", "h", "", 10, 0, 10)
	h.Fill(1)
	if _, err := tr.Delta(); err != nil {
		t.Fatal(err)
	}
	d, err := tr.FullDelta()
	if err != nil {
		t.Fatal(err)
	}
	if !d.Full || len(d.Entries) != 1 {
		t.Fatalf("full delta = %+v", d)
	}
	// After a baseline, an untouched tree yields an empty delta.
	d, _ = tr.Delta()
	if d.Full || len(d.Entries) != 0 {
		t.Fatalf("post-baseline delta = %+v", d)
	}
}

// TestDeltaSeesReplacedObject: a fresh object stored over an
// already-snapshotted path must appear in the next delta even though it
// was never filled (regression: born-clean objects were skipped, leaving
// receivers with the old object forever).
func TestDeltaSeesReplacedObject(t *testing.T) {
	tr := NewTree()
	h, _ := tr.H1D("/a", "h", "", 10, 0, 10)
	h.Fill(1)
	if _, err := tr.Delta(); err != nil {
		t.Fatal(err)
	}
	tr.Rm("/a/h")
	if _, err := tr.H1D("/a", "h", "", 20, 0, 20); err != nil { // different binning, no fills
		t.Fatal(err)
	}
	d, err := tr.Delta()
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Entries) != 1 || d.Entries[0].Object.H1.Bins != 20 {
		t.Fatalf("replacement not in delta: %+v", d)
	}
	if len(d.Removed) != 0 {
		t.Fatalf("replaced path also reported removed: %v", d.Removed)
	}
}

// TestDeltaSeesFillsThroughConvertedCloudHandle: fills through the
// histogram handle Convert/Histogram return must still dirty the cloud.
func TestDeltaSeesFillsThroughConvertedCloudHandle(t *testing.T) {
	tr := NewTree()
	c, _ := tr.C1D("/a", "c", "")
	c.Fill(1)
	h := c.Histogram() // converts; returns the inner histogram
	if _, err := tr.Delta(); err != nil {
		t.Fatal(err)
	}
	h.Fill(2) // bypasses the cloud entirely
	d, err := tr.Delta()
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Entries) != 1 || d.Entries[0].Path != "/a/c" {
		t.Fatalf("converted-cloud fill missing from delta: %+v", d)
	}
	// And the clear must reach the inner histogram too.
	d, _ = tr.Delta()
	if len(d.Entries) != 0 {
		t.Fatalf("cloud stayed dirty after snapshot: %+v", d)
	}
}

func TestDeltaRestoreRequiresBaseline(t *testing.T) {
	tr := NewTree()
	tr.H1D("/a", "h", "", 10, 0, 10)
	full, err := tr.FullDelta()
	if err != nil {
		t.Fatal(err)
	}
	back, err := full.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if back.Size() != 1 || back.Get("/a/h") == nil {
		t.Fatal("baseline restore lost objects")
	}
	if _, err := (&DeltaState{}).Restore(); err == nil {
		t.Fatal("non-baseline delta restored")
	}
}
