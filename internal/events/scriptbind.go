package events

import (
	"github.com/ipa-grid/ipa/internal/script"
)

// EventDecoderName is the script record-decoder key for LC event records.
const EventDecoderName = "lc-event"

// eventView exposes a decoded event to scripts as an object with members
// number, run, signal, n and particles (an array of particle objects). It
// reads the decoded struct on access; nothing is copied out per member.
// A record decodes into a view of its own — one eventView, one particle
// slab, one element slice — so a script may keep ev, ev.particles or a
// particle past the event it came from. Only a process function that
// cannot keep them gets one view refilled with every record (Refill).
type eventView struct {
	Event
	parts script.Array
}

func newEventView(rec []byte) (*eventView, error) {
	v := new(eventView)
	if err := v.Refill(rec); err != nil {
		return nil, err
	}
	return v, nil
}

// Refill implements script.Refiller: it decodes rec into v in place and
// points the particle array at the particles it now holds. A record it
// rejects leaves v as it was.
func (v *eventView) Refill(rec []byte) error {
	if err := UnmarshalInto(rec, &v.Event); err != nil {
		return err
	}
	// While the slab stays where it was, the elements already set still
	// point at the right particles.
	elems, n := v.parts.Elems, len(v.Particles)
	if len(elems) > 0 && (n == 0 || elems[0] != script.Value((*particleView)(&v.Particles[0]))) {
		elems = elems[:0]
	}
	elems = elems[:min(len(elems), n)]
	for i := len(elems); i < n; i++ {
		elems = append(elems, (*particleView)(&v.Particles[i]))
	}
	v.parts.Elems = elems
	return nil
}

// eventMembers are an event view's members, for Get and for compiled
// reads (script.RegisterMembers).
var eventMembers = script.Members[*eventView]{
	"number":    {Get: func(v *eventView) script.Val { return script.NumVal(float64(v.Number)) }},
	"run":       {Get: func(v *eventView) script.Val { return script.NumVal(float64(v.Run)) }},
	"signal":    {Get: func(v *eventView) script.Val { return script.BoolVal(v.IsSignal) }},
	"n":         {Get: func(v *eventView) script.Val { return script.NumVal(float64(len(v.Particles))) }},
	"particles": {Get: func(v *eventView) script.Val { return script.ValOf(&v.parts) }, Ref: true},
}

// TypeName implements script.HostObject.
func (*eventView) TypeName() string { return "event" }

// Member implements script.HostObject.
func (v *eventView) Member(name string) (script.Value, bool) { return script.MemberOf(v, name) }

// Get implements script.Getter.
func (v *eventView) Get(name string) (script.Val, bool) { return eventMembers.Get(v, name) }

// particleView is a Particle as scripts see it: id, charge, the
// four-vector px, py, pz, e, and pt, p, mass, cost derived from it when
// asked for.
type particleView Particle

// particleMembers are a particle view's members.
var particleMembers = script.Members[*particleView]{
	"id":     {Get: func(p *particleView) script.Val { return script.NumVal(float64(p.ID)) }},
	"charge": {Get: func(p *particleView) script.Val { return script.NumVal(float64(p.Charge)) }},
	"px":     {Get: func(p *particleView) script.Val { return script.NumVal(float64(p.Px)) }},
	"py":     {Get: func(p *particleView) script.Val { return script.NumVal(float64(p.Py)) }},
	"pz":     {Get: func(p *particleView) script.Val { return script.NumVal(float64(p.Pz)) }},
	"e":      {Get: func(p *particleView) script.Val { return script.NumVal(float64(p.E)) }},
	"pt":     {Get: func(p *particleView) script.Val { return script.NumVal(Particle(*p).Vec().Pt()) }},
	"p":      {Get: func(p *particleView) script.Val { return script.NumVal(Particle(*p).Vec().P()) }},
	"mass":   {Get: func(p *particleView) script.Val { return script.NumVal(Particle(*p).Vec().Mass()) }},
	"cost":   {Get: func(p *particleView) script.Val { return script.NumVal(Particle(*p).Vec().CosTheta()) }},
}

// TypeName implements script.HostObject.
func (*particleView) TypeName() string { return "particle" }

// Member implements script.HostObject.
func (p *particleView) Member(name string) (script.Value, bool) { return script.MemberOf(p, name) }

// Get implements script.Getter.
func (p *particleView) Get(name string) (script.Val, bool) { return particleMembers.Get(p, name) }

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
	script.RegisterMembers(eventMembers)
	script.RegisterMembers(particleMembers)
}
