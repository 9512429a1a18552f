package aida

import "fmt"

// Measurement is one coordinate of a data point with asymmetric errors
// (AIDA IMeasurement).
type Measurement struct {
	Value      float64
	ErrorPlus  float64
	ErrorMinus float64
}

// DataPoint is a point in an n-dimensional DataPointSet.
type DataPoint struct {
	Coords []Measurement
}

// DataPointSet is an ordered collection of n-dimensional measured points
// (AIDA IDataPointSet). The benchmark harness stores Table 2 rows and the
// Figure 5 series as 2D/3D point sets.
type DataPointSet struct {
	name   string
	ann    *Annotation
	dim    int
	points []DataPoint
	dirty  bool // content mutations since the last ClearDirty
}

// NewDataPointSet creates an empty point set of the given dimension.
func NewDataPointSet(name, title string, dim int) *DataPointSet {
	if dim <= 0 {
		panic(fmt.Sprintf("aida: DataPointSet dimension %d must be positive", dim))
	}
	return &DataPointSet{name: name, ann: titled(title), dim: dim,
		dirty: true} // born dirty — see binned.init
}

// Name implements Object.
func (d *DataPointSet) Name() string { return d.name }

// Kind implements Object.
func (d *DataPointSet) Kind() string { return "DataPointSet" }

// Annotations implements Object.
func (d *DataPointSet) Annotations() *Annotation { return d.ann }

// Title returns the display title (falls back to the name).
func (d *DataPointSet) Title() string { return displayTitle(d.ann, d.name) }

// Dimension returns the coordinate count per point.
func (d *DataPointSet) Dimension() int { return d.dim }

// Size returns the number of points.
func (d *DataPointSet) Size() int { return len(d.points) }

// EntriesCount implements Object.
func (d *DataPointSet) EntriesCount() int64 { return int64(len(d.points)) }

// Append adds a point from plain values (no errors).
func (d *DataPointSet) Append(values ...float64) error {
	if len(values) != d.dim {
		return fmt.Errorf("aida: point with %d coords appended to %d-dim set %q", len(values), d.dim, d.name)
	}
	p := DataPoint{Coords: make([]Measurement, d.dim)}
	for i, v := range values {
		p.Coords[i] = Measurement{Value: v}
	}
	d.points = append(d.points, p)
	d.dirty = true
	return nil
}

// AppendPoint adds a fully specified point.
func (d *DataPointSet) AppendPoint(p DataPoint) error {
	if len(p.Coords) != d.dim {
		return fmt.Errorf("aida: point with %d coords appended to %d-dim set %q", len(p.Coords), d.dim, d.name)
	}
	cp := DataPoint{Coords: make([]Measurement, d.dim)}
	copy(cp.Coords, p.Coords)
	d.points = append(d.points, cp)
	d.dirty = true
	return nil
}

// Point returns point i (a copy).
func (d *DataPointSet) Point(i int) DataPoint {
	p := d.points[i]
	cp := DataPoint{Coords: make([]Measurement, len(p.Coords))}
	copy(cp.Coords, p.Coords)
	return cp
}

// Value returns coordinate c of point i.
func (d *DataPointSet) Value(i, c int) float64 { return d.points[i].Coords[c].Value }

// Column extracts coordinate c of every point.
func (d *DataPointSet) Column(c int) []float64 {
	out := make([]float64, len(d.points))
	for i, p := range d.points {
		out[i] = p.Coords[c].Value
	}
	return out
}

// Reset removes all points.
func (d *DataPointSet) Reset() {
	d.points = nil
	d.dirty = true
}

// Dirty implements Dirtyable.
func (d *DataPointSet) Dirty() bool { return d.dirty }

// ClearDirty implements Dirtyable.
func (d *DataPointSet) ClearDirty() { d.dirty = false }

// Clone returns a deep copy.
func (d *DataPointSet) Clone() *DataPointSet {
	c := &DataPointSet{name: d.name, ann: d.ann.clone(), dim: d.dim, dirty: d.dirty}
	c.points = make([]DataPoint, len(d.points))
	for i, p := range d.points {
		c.points[i].Coords = append([]Measurement(nil), p.Coords...)
	}
	return c
}

// MergeFrom implements Mergeable by concatenating points.
func (d *DataPointSet) MergeFrom(src Object) error {
	o, ok := src.(*DataPointSet)
	if !ok || o.dim != d.dim {
		return errIncompatible("merge", d, src)
	}
	for _, p := range o.points {
		if err := d.AppendPoint(p); err != nil {
			return err
		}
	}
	mergeAnnotations(d.ann, o.ann)
	return nil
}
