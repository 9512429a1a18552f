// ipa-gen generates simulated Linear Collider datasets in the IPA
// container format — the stand-in for the paper's 471 MB of LC simulation
// data — and prints the catalog registration snippet.
//
// Usage:
//
//	ipa-gen -out zh.ipa -events 500000 -signal 0.15 -seed 2006
package main

import (
	"flag"
	"fmt"
	"io"
	"log"

	"github.com/ipa-grid/ipa/internal/aida"
	"github.com/ipa-grid/ipa/internal/dataset"
	"github.com/ipa-grid/ipa/internal/events"
)

func main() {
	out := flag.String("out", "dataset.ipa", "output container path")
	n := flag.Int("events", 100000, "event count")
	signal := flag.Float64("signal", 0.15, "ZH signal fraction")
	seed := flag.Int64("seed", 1, "generator seed")
	higgs := flag.Float64("higgs", 120, "Higgs mass (GeV)")
	verify := flag.Bool("verify", true, "re-read and checksum after writing")
	spectrum := flag.Bool("spectrum", false, "re-read and print a particle-energy QA spectrum")
	flag.Parse()

	cfg := events.GenConfig{Seed: *seed, SignalFraction: *signal, HiggsMass: *higgs}
	bytes, err := events.GenerateFile(*out, cfg, *n)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s: %d events, %.1f MB\n", *out, *n, float64(bytes)/(1<<20))
	if *verify {
		r, f, err := dataset.Open(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := r.VerifyChecksum(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("verified: %d records, crc %08x\n", r.NumRecords(), r.CRC32())
	}
	if *spectrum {
		if err := printSpectrum(*out); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("catalog: AddDataset(dir, DatasetRef{ID, Name, SizeMB: %.1f, Records: %d, Format: %q}, attrs)\n",
		float64(bytes)/(1<<20), *n, events.EventDecoderName)
}

// printSpectrum re-reads the container and histograms every particle's
// energy — a quick sanity check that the generated physics looks right
// (and the bulk-fill showcase: energies batch per event into one FillN
// instead of a Fill per particle).
func printSpectrum(path string) error {
	r, f, err := dataset.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	h := aida.NewHistogram1D("particle-energy", "Particle energy [GeV]", 60, 0, 300)
	it, err := r.Iter(0, -1)
	if err != nil {
		return err
	}
	var ev events.Event
	var energies []float64
	for {
		rec, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if err := events.UnmarshalInto(rec, &ev); err != nil {
			return err
		}
		energies = energies[:0]
		for _, p := range ev.Particles {
			energies = append(energies, float64(p.E))
		}
		h.FillN(energies, nil)
	}
	fmt.Printf("spectrum: %d particles, mean E %.1f GeV, rms %.1f\n",
		h.AllEntries(), h.Mean(), h.Rms())
	ax := h.Axis()
	max := 0.0
	for i := 0; i < ax.Bins(); i++ {
		if v := h.BinHeight(i); v > max {
			max = v
		}
	}
	for i := 0; i < ax.Bins(); i += 2 {
		v := h.BinHeight(i) + h.BinHeight(i+1)
		bar := int(30 * v / (2 * max))
		fmt.Printf("%6.0f |%s\n", ax.BinCenter(i), bars(bar))
	}
	return nil
}

func bars(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = '#'
	}
	return string(b)
}
