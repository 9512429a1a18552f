package aida

import (
	"bytes"
	"math/rand"
	"testing"
)

// A projection's in-range cells are exactly the 2D in-range cells, so its
// mean and rms are the 2D ones of its axis.
func TestProjectionRmsMatchesAxisRms(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	h := NewHistogram2D("h", "", 10, 0, 10, 8, -2, 2)
	for i := 0; i < 1000; i++ {
		h.FillW(12*rng.Float64()-1, 5*rng.Float64()-2.5, 2*rng.Float64())
	}
	px, py := h.ProjectionX(), h.ProjectionY()
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"ProjectionX().Rms() vs RmsX()", px.Rms(), h.RmsX()},
		{"ProjectionY().Rms() vs RmsY()", py.Rms(), h.RmsY()},
		{"ProjectionX().Mean() vs MeanX()", px.Mean(), h.MeanX()},
		{"ProjectionY().Mean() vs MeanY()", py.Mean(), h.MeanY()},
	} {
		if c.want == 0 || !almost(c.got, c.want, 1e-12) {
			t.Errorf("%s: %v, want %v", c.name, c.got, c.want)
		}
	}
}

// Every binned kind shares one store, so a merge that checked only the
// axes would add a histogram into a profile of the same binning. Each
// kind must refuse every other kind and leave its content as it was.
func TestMergeRefusesOtherKinds(t *testing.T) {
	filled := func() (*Histogram1D, *Histogram2D, *Profile1D, *Cloud1D) {
		h1 := NewHistogram1D("h1", "", 10, 0, 1)
		h2 := NewHistogram2D("h2", "", 10, 0, 1, 10, 0, 1)
		p1 := NewProfile1D("p1", "", 10, 0, 1)
		c1 := NewCloud1DLimit("c1", "", 4)
		for i := 0; i < 20; i++ {
			x := float64(i) / 20
			h1.FillW(x, 2)
			h2.FillW(x, 1-x, 2)
			p1.FillW(x, 3*x, 2)
			c1.FillW(x, 2) // converts to a histogram of 50 bins
		}
		return h1, h2, p1, c1
	}
	h1, h2, p1, c1 := filled()
	for _, c := range []struct {
		name     string
		dst, src Mergeable
	}{
		{"Profile1D<-Histogram1D", p1, h1},
		{"Histogram2D<-Histogram1D", h2, h1},
		{"Histogram1D<-Histogram2D", h1, h2},
		{"Profile1D<-Cloud1D", p1, c1},
		{"Histogram1D<-Profile1D", h1, p1},
	} {
		before := stateBytes(t, c.dst)
		if err := c.dst.MergeFrom(c.src); err == nil {
			t.Errorf("%s: merged", c.name)
		}
		if !bytes.Equal(stateBytes(t, c.dst), before) {
			t.Errorf("%s: the refused merge changed the destination", c.name)
		}
	}
}

func stateBytes(t *testing.T, o Object) []byte {
	t.Helper()
	s, err := StateOf(o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := AppendObjectState(nil, &s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
