package events

import (
	"github.com/ipa-grid/ipa/internal/script"
)

// EventDecoderName is the script record-decoder key for LC event records.
const EventDecoderName = "lc-event"

// eventView exposes a decoded event to scripts as an object with members
// number, run, signal, n and particles (an array of particle objects). It
// reads the decoded struct on access; nothing is copied out per member.
// Every record gets a view of its own — one eventView, one particle slab,
// one element slice — so a script may keep ev, ev.particles or a particle
// past the event it came from.
type eventView struct {
	Event
	parts script.Array
}

func newEventView(rec []byte) (*eventView, error) {
	v := new(eventView)
	if err := UnmarshalInto(rec, &v.Event); err != nil {
		return nil, err
	}
	v.parts.Elems = make([]script.Value, len(v.Particles))
	for i := range v.Particles {
		v.parts.Elems[i] = (*particleView)(&v.Particles[i])
	}
	return v, nil
}

// TypeName implements script.HostObject.
func (*eventView) TypeName() string { return "event" }

// Member implements script.HostObject.
func (v *eventView) Member(name string) (script.Value, bool) { return script.MemberOf(v, name) }

// Get implements script.Getter.
func (v *eventView) Get(name string) (script.Val, bool) {
	switch name {
	case "number":
		return script.NumVal(float64(v.Number)), true
	case "run":
		return script.NumVal(float64(v.Run)), true
	case "signal":
		return script.BoolVal(v.IsSignal), true
	case "n":
		return script.NumVal(float64(len(v.Particles))), true
	case "particles":
		return script.ValOf(&v.parts), true
	}
	return script.Val{}, false
}

// particleView is a Particle as scripts see it: id, charge, the
// four-vector px, py, pz, e, and pt, p, mass, cost derived from it when
// asked for.
type particleView Particle

// TypeName implements script.HostObject.
func (*particleView) TypeName() string { return "particle" }

// Member implements script.HostObject.
func (p *particleView) Member(name string) (script.Value, bool) { return script.MemberOf(p, name) }

// Get implements script.Getter.
func (p *particleView) Get(name string) (script.Val, bool) {
	var f float64
	switch name {
	case "id":
		f = float64(p.ID)
	case "charge":
		f = float64(p.Charge)
	case "px":
		f = float64(p.Px)
	case "py":
		f = float64(p.Py)
	case "pz":
		f = float64(p.Pz)
	case "e":
		f = float64(p.E)
	case "pt":
		f = Particle(*p).Vec().Pt()
	case "p":
		f = Particle(*p).Vec().P()
	case "mass":
		f = Particle(*p).Vec().Mass()
	case "cost":
		f = Particle(*p).Vec().CosTheta()
	default:
		return script.Val{}, false
	}
	return script.NumVal(f), true
}

// pairMass computes the invariant mass of two particle script objects —
// provided natively because it is the hot inner loop of every dijet scan.
func pairMass(args []script.Value) (script.Value, error) {
	if len(args) != 2 {
		return nil, errArity
	}
	v1, err := particleVec(args[0])
	if err != nil {
		return nil, err
	}
	v2, err := particleVec(args[1])
	if err != nil {
		return nil, err
	}
	return v1.Add(v2).Mass(), nil
}

var errArity = &script.RuntimeError{Msg: "pairMass expects (particle, particle)"}

func particleVec(v script.Value) (FourVec, error) {
	p, ok := v.(*particleView)
	if !ok {
		return FourVec{}, &script.RuntimeError{Msg: "pairMass: argument is not a particle"}
	}
	return Particle(*p).Vec(), nil
}

func init() {
	script.RegisterDecoder(EventDecoderName, func(rec []byte) (script.Value, error) {
		v, err := newEventView(rec)
		if err != nil {
			return nil, err
		}
		return v, nil
	})
	script.RegisterGlobal("pairMass", script.HostFunc(pairMass))
}
