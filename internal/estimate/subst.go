package estimate

import "hermes/internal/term"

// subst maps the variables whose values are known at plan time to those
// values. It is an immutable chain of bindings, newest first: Bind
// allocates one node and shares the rest, so extending a substitution
// never copies it. The zero value is the empty substitution. A chain is as
// long as the bindings made in one rule body, so lookups walk it.
type subst struct{ b *binding }

type binding struct {
	name string
	val  term.Value
	next *binding
	n    int // distinct names bound in this node and the ones behind it
}

// Bind returns s extended with name bound to v, leaving s as it was. A name
// already bound is shadowed: the newest binding wins.
func (s subst) Bind(name string, v term.Value) subst {
	n := s.Len()
	if _, rebound := s.Lookup(name); !rebound {
		n++
	}
	return subst{&binding{name: name, val: v, next: s.b, n: n}}
}

// Len returns the number of variables bound in s.
func (s subst) Len() int {
	if s.b == nil {
		return 0
	}
	return s.b.n
}

// Lookup returns the binding of a variable.
func (s subst) Lookup(name string) (term.Value, bool) {
	for b := s.b; b != nil; b = b.next {
		if b.name == name {
			return b.val, true
		}
	}
	return nil, false
}
