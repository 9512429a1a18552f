package aida

import (
	"math/rand"
	"testing"
)

// Benchmarks of the binned kinds at the stream workload's shapes: a
// 100-bin Histogram1D and Profile1D and a 50×50 Histogram2D, filled
// with weighted samples of which about a fifth fall outside the range.

const benchSamples = 1024

func benchData() (xs, ys, ws []float64) {
	rng := rand.New(rand.NewSource(1))
	xs = make([]float64, benchSamples)
	ys = make([]float64, benchSamples)
	ws = make([]float64, benchSamples)
	for i := range xs {
		xs[i] = 1.4*rng.Float64() - 0.2
		ys[i] = 1.4*rng.Float64() - 0.2
		ws[i] = rng.Float64()
	}
	return xs, ys, ws
}

// benchSink keeps the compiler from dropping a result no one reads.
var benchSink Object

func benchH1D() *Histogram1D { return NewHistogram1D("h", "bench", 100, 0, 1) }

func benchH2D() *Histogram2D { return NewHistogram2D("g", "bench", 50, 0, 1, 50, 0, 1) }

func benchP1D() *Profile1D { return NewProfile1D("p", "bench", 100, 0, 1) }

// BenchmarkFill is one scalar weighted fill per op.
func BenchmarkFill(b *testing.B) {
	xs, ys, ws := benchData()
	b.Run("h1d", func(b *testing.B) {
		h := benchH1D()
		for i := 0; i < b.N; i++ {
			k := i & (benchSamples - 1)
			h.FillW(xs[k], ws[k])
		}
	})
	b.Run("h2d", func(b *testing.B) {
		h := benchH2D()
		for i := 0; i < b.N; i++ {
			k := i & (benchSamples - 1)
			h.FillW(xs[k], ys[k], ws[k])
		}
	})
	b.Run("p1d", func(b *testing.B) {
		p := benchP1D()
		for i := 0; i < b.N; i++ {
			k := i & (benchSamples - 1)
			p.FillW(xs[k], ys[k], ws[k])
		}
	})
}

// BenchmarkFillN is one weighted batch of benchSamples per op.
func BenchmarkFillN(b *testing.B) {
	xs, ys, ws := benchData()
	b.Run("h1d", func(b *testing.B) {
		h := benchH1D()
		for i := 0; i < b.N; i++ {
			h.FillN(xs, ws)
		}
	})
	b.Run("h2d", func(b *testing.B) {
		h := benchH2D()
		for i := 0; i < b.N; i++ {
			h.FillN(xs, ys, ws)
		}
	})
	b.Run("p1d", func(b *testing.B) {
		p := benchP1D()
		for i := 0; i < b.N; i++ {
			p.FillN(xs, ys, ws)
		}
	})
}

// BenchmarkMergeFrom adds one filled histogram into another per op.
func BenchmarkMergeFrom(b *testing.B) {
	xs, ys, ws := benchData()
	b.Run("h1d", func(b *testing.B) {
		dst, src := benchH1D(), benchH1D()
		src.FillN(xs, ws)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := dst.MergeFrom(src); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("h2d", func(b *testing.B) {
		dst, src := benchH2D(), benchH2D()
		src.FillN(xs, ys, ws)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := dst.MergeFrom(src); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRestore rebuilds a filled histogram from its state per op,
// as a merge or a client does for every decoded frame.
func BenchmarkRestore(b *testing.B) {
	xs, ys, ws := benchData()
	b.Run("h1d", func(b *testing.B) {
		h := benchH1D()
		h.FillN(xs, ws)
		s := h.State()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r, err := s.Restore()
			if err != nil {
				b.Fatal(err)
			}
			benchSink = r
		}
	})
	b.Run("h2d", func(b *testing.B) {
		h := benchH2D()
		h.FillN(xs, ys, ws)
		s := h.State()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r, err := s.Restore()
			if err != nil {
				b.Fatal(err)
			}
			benchSink = r
		}
	})
}

// BenchmarkStateEncode extracts a filled 2D histogram's state and encodes
// its object frame per op, as a publish does for every touched object.
func BenchmarkStateEncode(b *testing.B) {
	xs, ys, ws := benchData()
	h := benchH2D()
	h.FillN(xs, ys, ws)
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = AppendObjectState(buf[:0], &ObjectState{H2: h.State()}); err != nil {
			b.Fatal(err)
		}
	}
}
