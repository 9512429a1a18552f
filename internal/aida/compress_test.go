package aida

import (
	"testing"
)

func TestCompressionPolicySizeThreshold(t *testing.T) {
	p := NewCompressionPolicy()
	if p.shouldCompress(100) {
		t.Fatal("compressed a frame below the size floor")
	}
	if !p.shouldCompress(4096) {
		t.Fatal("skipped a large frame with no ratio evidence")
	}
	if c, s := p.Stats(); c != 1 || s != 1 {
		t.Fatalf("stats = %d compressed / %d skipped, want 1/1", c, s)
	}
}

func TestCompressionPolicyRatioSkipAndProbe(t *testing.T) {
	p := NewCompressionPolicy()
	// Teach it the stream barely shrinks.
	p.observe(1000, 980)
	skips := 0
	for i := 0; i < compressProbeEvery; i++ {
		if p.shouldCompress(4096) {
			t.Fatalf("compressed at skip %d despite ratio %.2f", i, p.Ratio())
		}
		skips++
	}
	// The probe: one real compression to refresh the estimate.
	if !p.shouldCompress(4096) {
		t.Fatalf("never probed after %d ratio skips", skips)
	}
	// A good probe outcome flips the policy back to compressing.
	p.observe(4096, 1000)
	if r := p.Ratio(); r >= defaultCompressSkipRatio {
		t.Fatalf("ratio after good probe = %.2f, want < %.2f", r, defaultCompressSkipRatio)
	}
	if !p.shouldCompress(4096) {
		t.Fatal("still skipping after the ratio recovered")
	}
}

// bigDelta builds a delta whose plain frame comfortably exceeds the
// adaptive size floor and compresses well (uniform bin contents).
func bigDelta(t *testing.T) *DeltaState {
	t.Helper()
	tree := NewTree()
	h, err := tree.H1D("/a", "h", "", 400, 0, 400)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		h.Fill(float64(i))
	}
	d, err := tree.Delta()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func smallDelta(t *testing.T) *DeltaState {
	t.Helper()
	tree := NewTree()
	h, err := tree.H1D("/a", "h", "", 4, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	h.Fill(1)
	d, err := tree.Delta()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestAdaptiveFrameChoicePerFrame(t *testing.T) {
	p := NewCompressionPolicy()

	small := smallDelta(t)
	small.SetCompressionPolicy(p)
	sb, err := small.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	if sb[0] != wireVersion {
		t.Fatalf("small frame version = %d, want plain %d", sb[0], wireVersion)
	}

	big := bigDelta(t)
	big.SetCompressionPolicy(p)
	bb, err := big.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	if bb[0] != wireVersionFlate {
		t.Fatalf("large frame version = %d, want flate %d", bb[0], wireVersionFlate)
	}
	if c, s := p.Stats(); c != 1 || s != 1 {
		t.Fatalf("policy stats = %d/%d, want 1 compressed 1 skipped", c, s)
	}

	// Both frame versions decode to the same content as a plain encode.
	for _, frame := range [][]byte{sb, bb} {
		var dec DeltaState
		if err := dec.GobDecode(frame); err != nil {
			t.Fatal(err)
		}
		if len(dec.Entries) != 1 {
			t.Fatalf("decoded %d entries, want 1", len(dec.Entries))
		}
	}
}
