package script

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Value is any script runtime value. The concrete types are:
//
//	nil          — the nil value
//	float64      — numbers
//	string       — strings
//	bool         — booleans
//	*Array       — mutable arrays
//	*Map         — string-keyed maps
//	*Closure     — script functions
//	HostFunc     — native functions
//	HostObject   — native objects with named members
type Value any

// Array is a mutable script array.
type Array struct {
	Elems []Value
}

// NewArray builds an array value.
func NewArray(elems ...Value) *Array { return &Array{Elems: elems} }

// Map is a string-keyed script map.
type Map struct {
	Items map[string]Value
}

// NewMap builds an empty map value.
func NewMap() *Map { return &Map{Items: make(map[string]Value)} }

// Closure is a script-defined function bound to the activation that
// defined it.
type Closure struct {
	fn     *funcProto
	parent *frame    // defining activation: where enclosing functions' variables live
	g      []*global // the defining program's globals, linked to its interpreter
}

// Name returns the function's declared name ("" for anonymous).
func (c *Closure) Name() string { return c.fn.name }

// HostFunc is a native function callable from scripts.
type HostFunc func(args []Value) (Value, error)

// HostObject exposes a native object to scripts. Member lookup covers both
// properties and methods (methods are members whose value is a HostFunc).
type HostObject interface {
	// Member returns the named member; ok=false yields a runtime error
	// naming the member and object.
	Member(name string) (v Value, ok bool)
	// TypeName labels the object in error messages, e.g. "histogram".
	TypeName() string
}

// SettableHostObject additionally allows member assignment.
type SettableHostObject interface {
	HostObject
	SetMember(name string, v Value) error
}

// Getter is the optional allocation-free form of Member. The evaluator
// reads obj.name and dispatches obj.name(args...) through Get when a host
// object has it and its type registered no member of that name, and
// through Member (and a call of what Member returned) when it has no Get.
type Getter interface {
	HostObject
	// Get returns the named member the way compiled code carries it:
	// numbers and booleans inline, methods unbound (see Members.Get).
	Get(name string) (v Val, ok bool)
}

// method is a host-object method before it is bound to a receiver: a
// Member's Call. Its values are funcs, so a Val holds one without
// allocating; args is valid only during the call.
type method interface {
	call(recv Value, args []Val) (Val, error)
}

// methodOf is the method of host-object type T that one Call implements.
type methodOf[T HostObject] func(T, []Val) (Val, error)

func (m methodOf[T]) call(recv Value, args []Val) (Val, error) { return m(recv.(T), args) }

// bind turns a method into the HostFunc that Member promises, for a
// script that takes obj.name as a value instead of calling it.
func bind(m method, recv Value) HostFunc {
	return func(args []Value) (Value, error) {
		vals := make([]Val, len(args))
		for i, a := range args {
			vals[i] = ValOf(a)
		}
		v, err := m.call(recv, vals)
		return v.Value(), err
	}
}

// MemberOf implements HostObject.Member on top of Get: numbers boxed,
// methods bound to o.
func MemberOf(o Getter, name string) (Value, bool) {
	v, ok := o.Get(name)
	if !ok {
		return nil, false
	}
	if m, isMethod := v.r.(method); isMethod {
		return bind(m, o), true
	}
	return v.Value(), true
}

// Member is one member of host-object type T, declared so compiled code
// reaches it without a lookup by name (see RegisterMembers): a property,
// which Get reads, or a method, which Call runs on the call's arguments
// (valid only during the call). Ref marks a property that shares storage
// with the object, such as an array of its parts.
type Member[T HostObject] struct {
	Get  func(T) Val
	Call func(T, []Val) (Val, error)
	Ref  bool
}

// Members is the member table of host-object type T.
type Members[T HostObject] map[string]Member[T]

// Get implements Getter.Get for obj through its type's table: a
// property's value or a method unbound, without allocating.
func (ms Members[T]) Get(obj T, name string) (Val, bool) {
	m, ok := ms[name]
	switch {
	case !ok:
		return Val{}, false
	case m.Call != nil:
		return Val{k: kRef, r: methodOf[T](m.Call)}, true
	}
	return m.Get(obj), true
}

// accessor is how compiled code reaches the registered members of one
// name, for one type or, from memberAccess, for all of them: get reads a
// property and call finds a method, reporting false or nil for an object
// of another type; local, from a type that alone registers the name,
// compiles a read of the property from a variable with a slot of its own,
// the type checked inline. ref reports that the name may keep its object:
// a registered property shares the object's storage, a registered method
// would be bound to it when read as a value, or nothing is registered.
type accessor struct {
	get   func(obj Value) (v Val, ok bool)
	local func(slot, global int, miss func(*Val) (Val, error)) expr
	call  func(obj Value) method
	ref   bool
}

var (
	membersMu sync.RWMutex
	members   = map[string][]accessor{}
)

// RegisterMembers declares the properties and methods of host-object type
// T. A compiled read x.name calls the property registered for name with
// x's type, and a compiled call x.name(args...) the method, asking
// Getter.Get only when x has another type, so T's Get must agree with ms
// (Members.Get does). Register from an init function: programs compiled
// earlier do not see the members.
func RegisterMembers[T HostObject](ms Members[T]) {
	membersMu.Lock()
	defer membersMu.Unlock()
	for name, m := range ms {
		a := accessor{ref: m.Ref || m.Call != nil}
		if call := methodOf[T](m.Call); m.Call != nil {
			a.call = func(obj Value) method {
				if _, ok := obj.(T); ok {
					return call
				}
				return nil
			}
		} else {
			get := m.Get
			a.get = func(obj Value) (Val, bool) {
				t, ok := obj.(T)
				if !ok {
					return Val{}, false
				}
				return get(t), true
			}
			// miss gets the variable, or nil when it is unbound.
			a.local = func(slot, global int, miss func(*Val) (Val, error)) expr {
				return func(fr *frame) (Val, error) {
					if x := fr.local(slot, global); x != nil {
						if t, ok := x.r.(T); ok {
							return get(t), nil
						}
						return miss(x)
					}
					return miss(nil)
				}
			}
		}
		members[name] = append(members[name], a)
	}
}

// memberAccess returns how compiled code reaches member name.
func memberAccess(name string) accessor {
	membersMu.RLock()
	accs := members[name]
	membersMu.RUnlock()
	var gets, calls []accessor
	acc := accessor{ref: len(accs) == 0}
	for _, a := range accs {
		if a.get != nil {
			gets = append(gets, a)
		} else {
			calls = append(calls, a)
		}
		acc.ref = acc.ref || a.ref
	}
	acc.get = func(obj Value) (Val, bool) {
		for _, a := range gets {
			if v, ok := a.get(obj); ok {
				return v, true
			}
		}
		return Val{}, false
	}
	if len(gets) == 1 {
		acc.get, acc.local = gets[0].get, gets[0].local
	}
	acc.call = func(obj Value) method {
		for _, a := range calls {
			if m := a.call(obj); m != nil {
				return m
			}
		}
		return nil
	}
	return acc
}

// kind tags a Val.
type kind uint8

const (
	kNil kind = iota
	kNum
	kBool
	kRef
	// kUnbound marks a frame slot or global whose name is not bound; no
	// expression ever yields it.
	kUnbound
)

// Val is a Value as compiled code carries it: numbers and booleans
// inline, so arithmetic and host-object reads allocate nothing; every
// other value rides along as a Value. The zero Val is nil.
type Val struct {
	k kind
	n float64 // kNum; kBool as 0 or 1
	r Value   // kRef: never a float64, bool or nil
}

// NumVal is the number f.
func NumVal(f float64) Val { return Val{k: kNum, n: f} }

// BoolVal is the boolean b.
func BoolVal(b bool) Val {
	if b {
		return Val{k: kBool, n: 1}
	}
	return Val{k: kBool}
}

// ValOf unboxes a Value.
func ValOf(v Value) Val {
	switch x := v.(type) {
	case nil:
		return Val{}
	case float64:
		return Val{k: kNum, n: x}
	case bool:
		return BoolVal(x)
	default:
		return Val{k: kRef, r: v}
	}
}

// Value boxes v.
func (v Val) Value() Value {
	switch v.k {
	case kNum:
		return v.n
	case kBool:
		return v.n != 0
	case kRef:
		return v.r
	default:
		return nil
	}
}

// Number returns v as a float64 or reports what it is instead.
func (v Val) Number() (float64, error) {
	if v.k == kNum {
		return v.n, nil
	}
	return Number(v.Value())
}

// Str returns v as a string or reports what it is instead.
func (v Val) Str() (string, error) { return Str(v.Value()) }

func (v Val) truthy() bool {
	switch v.k {
	case kNum:
		return v.n != 0 && !math.IsNaN(v.n)
	case kBool:
		return v.n != 0
	case kRef:
		return Truthy(v.r)
	default:
		return false
	}
}

// Truthy implements the language's boolean coercion: false, nil, 0 and ""
// are false; everything else is true.
func Truthy(v Value) bool {
	switch x := v.(type) {
	case nil:
		return false
	case bool:
		return x
	case float64:
		return x != 0 && !math.IsNaN(x)
	case string:
		return x != ""
	default:
		return true
	}
}

// TypeName labels a value's type for error messages.
func TypeName(v Value) string {
	switch x := v.(type) {
	case nil:
		return "nil"
	case bool:
		return "bool"
	case float64:
		return "number"
	case string:
		return "string"
	case *Array:
		return "array"
	case *Map:
		return "map"
	case *Closure:
		return "function"
	case HostFunc:
		return "function"
	case HostObject:
		return x.TypeName()
	default:
		return fmt.Sprintf("%T", v)
	}
}

// ToString renders a value for print() and string concatenation.
func ToString(v Value) string {
	switch x := v.(type) {
	case nil:
		return "nil"
	case bool:
		if x {
			return "true"
		}
		return "false"
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case string:
		return x
	case *Array:
		var b strings.Builder
		b.WriteByte('[')
		for i, e := range x.Elems {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(ToString(e))
		}
		b.WriteByte(']')
		return b.String()
	case *Map:
		keys := make([]string, 0, len(x.Items))
		for k := range x.Items {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		b.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s: %s", k, ToString(x.Items[k]))
		}
		b.WriteByte('}')
		return b.String()
	case *Closure:
		if name := x.Name(); name != "" {
			return "function " + name
		}
		return "function"
	case HostFunc:
		return "native function"
	case HostObject:
		return "<" + x.TypeName() + ">"
	default:
		return fmt.Sprintf("%v", v)
	}
}

// valuesEqual implements ==. Numbers, strings, bools and nil compare by
// value; arrays/maps/functions/host objects compare by identity.
func valuesEqual(a, b Value) bool {
	switch x := a.(type) {
	case nil:
		return b == nil
	case float64:
		y, ok := b.(float64)
		return ok && x == y
	case string:
		y, ok := b.(string)
		return ok && x == y
	case bool:
		y, ok := b.(bool)
		return ok && x == y
	case *Array:
		y, ok := b.(*Array)
		return ok && x == y
	case *Map:
		y, ok := b.(*Map)
		return ok && x == y
	case *Closure:
		y, ok := b.(*Closure)
		return ok && x == y
	default:
		return a == b
	}
}

// Number converts a value to float64 or reports an error.
func Number(v Value) (float64, error) {
	if f, ok := v.(float64); ok {
		return f, nil
	}
	return 0, fmt.Errorf("expected number, got %s", TypeName(v))
}

// Str converts a value to a string or reports an error.
func Str(v Value) (string, error) {
	if s, ok := v.(string); ok {
		return s, nil
	}
	return "", fmt.Errorf("expected string, got %s", TypeName(v))
}
