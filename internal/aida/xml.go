package aida

import (
	"encoding/xml"
	"fmt"
	"io"
	"math"
	"strconv"
)

// AIDA-XML interchange (the format JAS3/AIDA tools exchange, §3.7).
//
// The writer emits one element per object carrying its tree path; the
// reader reconstructs a Tree. Converted clouds serialize as histograms
// (annotated "aida.cloud=converted"), matching AIDA's own lossy cloud
// semantics. A histogram bin's Σw² travels as its error, sqrt(Σw²), and
// is read back squared, so it may come back off in its last bits (two
// unit-weight fills: 2.0000000000000004). Everything else round-trips
// exactly.

type xmlDoc struct {
	XMLName xml.Name `xml:"aida"`
	Version string   `xml:"version,attr"`
	H1      []xmlH1D `xml:"histogram1d"`
	H2      []xmlH2D `xml:"histogram2d"`
	P1      []xmlP1D `xml:"profile1d"`
	C1      []xmlC1D `xml:"cloud1d"`
	DPS     []xmlDPS `xml:"dataPointSet"`
}

type xmlAnn struct {
	Items []xmlAnnItem `xml:"item"`
}

type xmlAnnItem struct {
	Key   string `xml:"key,attr"`
	Value string `xml:"value,attr"`
}

func annToXML(kvs []KV) *xmlAnn {
	if len(kvs) == 0 {
		return nil
	}
	a := &xmlAnn{}
	for _, kv := range kvs {
		a.Items = append(a.Items, xmlAnnItem{kv.Key, kv.Value})
	}
	return a
}

func annFromXML(a *xmlAnn) []KV {
	if a == nil {
		return nil
	}
	var kvs []KV
	for _, it := range a.Items {
		kvs = append(kvs, KV{it.Key, it.Value})
	}
	return kvs
}

type xmlAxis struct {
	Direction string  `xml:"direction,attr"`
	Min       float64 `xml:"min,attr"`
	Max       float64 `xml:"max,attr"`
	NumBins   int     `xml:"numberOfBins,attr"`
}

type xmlBin1D struct {
	BinNum       string  `xml:"binNum,attr"`
	Entries      int64   `xml:"entries,attr"`
	Height       float64 `xml:"height,attr"`
	Error        float64 `xml:"error,attr"`
	WeightedMean float64 `xml:"weightedMeanX,attr"`
}

type xmlH1D struct {
	Name   string     `xml:"name,attr"`
	Path   string     `xml:"path,attr"`
	Ann    *xmlAnn    `xml:"annotation"`
	Axis   xmlAxis    `xml:"axis"`
	SumW   float64    `xml:"sumW,attr"`
	SumWX  float64    `xml:"sumWX,attr"`
	SumWX2 float64    `xml:"sumWX2,attr"`
	Bins   []xmlBin1D `xml:"data1d>bin1d"`
}

func binNumAttr(i, n int) string {
	switch i {
	case 0:
		return "UNDERFLOW"
	case n + 1:
		return "OVERFLOW"
	default:
		return strconv.Itoa(i - 1)
	}
}

func binNumParse(s string, n int) (int, error) {
	switch s {
	case "UNDERFLOW":
		return 0, nil
	case "OVERFLOW":
		return n + 1, nil
	default:
		v, err := strconv.Atoi(s)
		if err != nil || v < 0 || v >= n {
			return 0, fmt.Errorf("aida: bad binNum %q", s)
		}
		return v + 1, nil
	}
}

func h1dToXML(path string, s *H1DState) xmlH1D {
	x := xmlH1D{
		Name: s.Name, Path: path, Ann: annToXML(s.Ann),
		Axis: xmlAxis{"x", s.Lo, s.Hi, s.Bins},
		SumW: s.SumW, SumWX: s.SumWX, SumWX2: s.SumWX2,
	}
	for i, b := range s.Data {
		if b.Entries == 0 && b.SumW == 0 {
			continue // sparse: skip empty bins like AIDA does
		}
		x.Bins = append(x.Bins, xmlBin1D{
			BinNum: binNumAttr(i, s.Bins), Entries: b.Entries,
			Height: b.SumW, Error: math.Sqrt(b.SumW2), WeightedMean: b.SumWX,
		})
	}
	return x
}

func h1dFromXML(x xmlH1D) (*H1DState, error) {
	s := &H1DState{
		Name: x.Name, Ann: annFromXML(x.Ann),
		Bins: x.Axis.NumBins, Lo: x.Axis.Min, Hi: x.Axis.Max,
		SumW: x.SumW, SumWX: x.SumWX, SumWX2: x.SumWX2,
	}
	if s.Bins <= 0 {
		return nil, fmt.Errorf("aida: histogram1d %q has no binning", x.Name)
	}
	s.Data = make([]BinState, s.Bins+2)
	for _, b := range x.Bins {
		slot, err := binNumParse(b.BinNum, s.Bins)
		if err != nil {
			return nil, err
		}
		s.Data[slot] = BinState{b.Entries, b.Height, b.Error * b.Error, b.WeightedMean}
	}
	return s, nil
}

type xmlBin2D struct {
	BinNumX       string  `xml:"binNumX,attr"`
	BinNumY       string  `xml:"binNumY,attr"`
	Entries       int64   `xml:"entries,attr"`
	Height        float64 `xml:"height,attr"`
	Error         float64 `xml:"error,attr"`
	WeightedMeanX float64 `xml:"weightedMeanX,attr"`
	WeightedMeanY float64 `xml:"weightedMeanY,attr"`
}

type xmlH2D struct {
	Name   string     `xml:"name,attr"`
	Path   string     `xml:"path,attr"`
	Ann    *xmlAnn    `xml:"annotation"`
	Axes   []xmlAxis  `xml:"axis"`
	SumW   float64    `xml:"sumW,attr"`
	SumWX  float64    `xml:"sumWX,attr"`
	SumWY  float64    `xml:"sumWY,attr"`
	SumWX2 float64    `xml:"sumWX2,attr"`
	SumWY2 float64    `xml:"sumWY2,attr"`
	Bins   []xmlBin2D `xml:"data2d>bin2d"`
}

func h2dToXML(path string, s *H2DState) xmlH2D {
	x := xmlH2D{
		Name: s.Name, Path: path, Ann: annToXML(s.Ann),
		Axes: []xmlAxis{{"x", s.XLo, s.XHi, s.NX}, {"y", s.YLo, s.YHi, s.NY}},
		SumW: s.SumW, SumWX: s.SumWX, SumWY: s.SumWY, SumWX2: s.SumWX2, SumWY2: s.SumWY2,
	}
	for ix := 0; ix < s.NX+2; ix++ {
		for iy := 0; iy < s.NY+2; iy++ {
			c := s.Cells[ix*(s.NY+2)+iy]
			if c.Entries == 0 && c.SumW == 0 {
				continue
			}
			x.Bins = append(x.Bins, xmlBin2D{
				BinNumX: binNumAttr(ix, s.NX), BinNumY: binNumAttr(iy, s.NY),
				Entries: c.Entries, Height: c.SumW, Error: math.Sqrt(c.SumW2),
				WeightedMeanX: c.SumWX, WeightedMeanY: c.SumWY,
			})
		}
	}
	return x
}

func h2dFromXML(x xmlH2D) (*H2DState, error) {
	s := &H2DState{Name: x.Name, Ann: annFromXML(x.Ann), SumW: x.SumW,
		SumWX: x.SumWX, SumWY: x.SumWY, SumWX2: x.SumWX2, SumWY2: x.SumWY2}
	for _, ax := range x.Axes {
		switch ax.Direction {
		case "x":
			s.NX, s.XLo, s.XHi = ax.NumBins, ax.Min, ax.Max
		case "y":
			s.NY, s.YLo, s.YHi = ax.NumBins, ax.Min, ax.Max
		}
	}
	if s.NX <= 0 || s.NY <= 0 {
		return nil, fmt.Errorf("aida: histogram2d %q lacks axes", x.Name)
	}
	s.Cells = make([]Bin2State, (s.NX+2)*(s.NY+2))
	for _, b := range x.Bins {
		ix, err := binNumParse(b.BinNumX, s.NX)
		if err != nil {
			return nil, err
		}
		iy, err := binNumParse(b.BinNumY, s.NY)
		if err != nil {
			return nil, err
		}
		s.Cells[ix*(s.NY+2)+iy] = Bin2State{b.Entries, b.Height, b.Error * b.Error, b.WeightedMeanX, b.WeightedMeanY}
	}
	return s, nil
}

type xmlProfBin struct {
	BinNum  string  `xml:"binNum,attr"`
	Entries int64   `xml:"entries,attr"`
	SumW    float64 `xml:"sumW,attr"`
	SumWY   float64 `xml:"sumWY,attr"`
	SumWY2  float64 `xml:"sumWY2,attr"`
}

type xmlP1D struct {
	Name string       `xml:"name,attr"`
	Path string       `xml:"path,attr"`
	Ann  *xmlAnn      `xml:"annotation"`
	Axis xmlAxis      `xml:"axis"`
	Bins []xmlProfBin `xml:"dataProfile>binProfile"`
}

func p1dToXML(path string, s *P1DState) xmlP1D {
	x := xmlP1D{Name: s.Name, Path: path, Ann: annToXML(s.Ann), Axis: xmlAxis{"x", s.Lo, s.Hi, s.Bins}}
	for i, b := range s.Data {
		if b.Entries == 0 && b.SumW == 0 {
			continue
		}
		x.Bins = append(x.Bins, xmlProfBin{binNumAttr(i, s.Bins), b.Entries, b.SumW, b.SumWY, b.SumWY2})
	}
	return x
}

func p1dFromXML(x xmlP1D) (*P1DState, error) {
	s := &P1DState{Name: x.Name, Ann: annFromXML(x.Ann), Bins: x.Axis.NumBins, Lo: x.Axis.Min, Hi: x.Axis.Max}
	if s.Bins <= 0 {
		return nil, fmt.Errorf("aida: profile1d %q has no binning", x.Name)
	}
	s.Data = make([]ProfBinState, s.Bins+2)
	for _, b := range x.Bins {
		slot, err := binNumParse(b.BinNum, s.Bins)
		if err != nil {
			return nil, err
		}
		s.Data[slot] = ProfBinState{b.Entries, b.SumW, b.SumWY, b.SumWY2}
	}
	return s, nil
}

type xmlEntry1D struct {
	Value  float64 `xml:"value,attr"`
	Weight float64 `xml:"weight,attr"`
}

type xmlC1D struct {
	Name    string       `xml:"name,attr"`
	Path    string       `xml:"path,attr"`
	Ann     *xmlAnn      `xml:"annotation"`
	Limit   int          `xml:"maxEntries,attr"`
	Entries []xmlEntry1D `xml:"entries1d>entry1d"`
}

type xmlMeasurement struct {
	Value      float64 `xml:"value,attr"`
	ErrorPlus  float64 `xml:"errorPlus,attr"`
	ErrorMinus float64 `xml:"errorMinus,attr"`
}

type xmlDataPoint struct {
	Measurements []xmlMeasurement `xml:"measurement"`
}

type xmlDPS struct {
	Name   string         `xml:"name,attr"`
	Path   string         `xml:"path,attr"`
	Ann    *xmlAnn        `xml:"annotation"`
	Dim    int            `xml:"dimension,attr"`
	Points []xmlDataPoint `xml:"dataPoint"`
}

// WriteXML serializes the tree in AIDA-XML form.
func WriteXML(w io.Writer, t *Tree) error {
	st, err := t.State()
	if err != nil {
		return err
	}
	doc := xmlDoc{Version: "3.3"}
	for _, e := range st.Entries {
		segs := splitPath(e.Path)
		dirPath := JoinPath(segs[:len(segs)-1]...)
		switch {
		case e.Object.H1 != nil:
			doc.H1 = append(doc.H1, h1dToXML(dirPath, e.Object.H1))
		case e.Object.H2 != nil:
			doc.H2 = append(doc.H2, h2dToXML(dirPath, e.Object.H2))
		case e.Object.P1 != nil:
			doc.P1 = append(doc.P1, p1dToXML(dirPath, e.Object.P1))
		case e.Object.C1 != nil:
			s := e.Object.C1
			if s.Converted != nil {
				h := h1dToXML(dirPath, s.Converted)
				h.Ann = annToXML(append(append([]KV{}, s.Ann...), KV{"aida.cloud", "converted"}))
				doc.H1 = append(doc.H1, h)
				break
			}
			x := xmlC1D{Name: s.Name, Path: dirPath, Ann: annToXML(s.Ann), Limit: s.Limit}
			for i := range s.Xs {
				x.Entries = append(x.Entries, xmlEntry1D{s.Xs[i], s.Ws[i]})
			}
			doc.C1 = append(doc.C1, x)
		case e.Object.C2 != nil:
			s := e.Object.C2
			h2 := s.Converted
			if h2 == nil {
				// Serialize unconverted 2D clouds as converted histograms:
				// the AIDA XML schema we implement has no entries2d block.
				c, err := e.Object.Restore()
				if err != nil {
					return err
				}
				h2 = c.(*Cloud2D).Convert(cloudAutoBins, cloudAutoBins).State()
			}
			x := h2dToXML(dirPath, h2)
			x.Name = s.Name
			x.Ann = annToXML(append(append([]KV{}, s.Ann...), KV{"aida.cloud", "converted"}))
			doc.H2 = append(doc.H2, x)
		case e.Object.DP != nil:
			s := e.Object.DP
			x := xmlDPS{Name: s.Name, Path: dirPath, Ann: annToXML(s.Ann), Dim: s.Dim}
			for _, p := range s.Points {
				var xp xmlDataPoint
				for _, m := range p.Coords {
					xp.Measurements = append(xp.Measurements, xmlMeasurement{m.Value, m.ErrorPlus, m.ErrorMinus})
				}
				x.Points = append(x.Points, xp)
			}
			doc.DPS = append(doc.DPS, x)
		}
	}
	if _, err := io.WriteString(w, xml.Header); err != nil {
		return err
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return err
	}
	_, err = io.WriteString(w, "\n")
	return err
}

// ReadXML parses an AIDA-XML document into a Tree.
func ReadXML(r io.Reader) (*Tree, error) {
	var doc xmlDoc
	if err := xml.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("aida: parsing xml: %w", err)
	}
	t := NewTree()
	put := func(path string, obj Object, err error) error {
		if err != nil {
			return err
		}
		return t.Put(path, obj)
	}
	for _, x := range doc.H1 {
		s, err := h1dFromXML(x)
		if err != nil {
			return nil, err
		}
		h, err := s.Restore()
		if err2 := put(x.Path, h, err); err2 != nil {
			return nil, err2
		}
	}
	for _, x := range doc.H2 {
		s, err := h2dFromXML(x)
		if err != nil {
			return nil, err
		}
		h, err := s.Restore()
		if err2 := put(x.Path, h, err); err2 != nil {
			return nil, err2
		}
	}
	for _, x := range doc.P1 {
		s, err := p1dFromXML(x)
		if err != nil {
			return nil, err
		}
		p, err := s.Restore()
		if err2 := put(x.Path, p, err); err2 != nil {
			return nil, err2
		}
	}
	for _, x := range doc.C1 {
		c := NewCloud1DLimit(x.Name, "", x.Limit)
		c.ann = annFromState(annFromXML(x.Ann))
		for _, e := range x.Entries {
			c.FillW(e.Value, e.Weight)
		}
		if err := t.Put(x.Path, c); err != nil {
			return nil, err
		}
	}
	for _, x := range doc.DPS {
		d := NewDataPointSet(x.Name, "", x.Dim)
		d.ann = annFromState(annFromXML(x.Ann))
		for _, p := range x.Points {
			dp := DataPoint{}
			for _, m := range p.Measurements {
				dp.Coords = append(dp.Coords, Measurement{m.Value, m.ErrorPlus, m.ErrorMinus})
			}
			if err := d.AppendPoint(dp); err != nil {
				return nil, err
			}
		}
		if err := t.Put(x.Path, d); err != nil {
			return nil, err
		}
	}
	return t, nil
}
