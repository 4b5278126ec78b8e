package term

import (
	"fmt"
	"strings"
)

// Term is a syntactic term appearing in rules, queries and invariants:
// either a ground constant, or a variable optionally followed by an
// attribute path ($ans.1, P.name).
type Term struct {
	// Const is non-nil for constant terms.
	Const Value
	// Var is the variable name for variable terms ("" for constants).
	Var string
	// Path is the attribute path applied to the variable, possibly empty.
	Path []string
}

// C builds a constant term.
func C(v Value) Term { return Term{Const: v} }

// V builds a variable term.
func V(name string, path ...string) Term { return Term{Var: name, Path: path} }

// IsConst reports whether the term is a ground constant.
func (t Term) IsConst() bool { return t.Const != nil }

// IsVar reports whether the term is a bare variable (no attribute path).
func (t Term) IsVar() bool { return t.Const == nil && len(t.Path) == 0 }

// String renders the term in the mediator language syntax.
func (t Term) String() string {
	if t.IsConst() {
		return t.Const.String()
	}
	if len(t.Path) == 0 {
		return t.Var
	}
	return t.Var + "." + strings.Join(t.Path, ".")
}

// Vars appends the variable of t (if any) to dst and returns it.
func (t Term) Vars(dst []string) []string {
	if t.Var != "" {
		dst = append(dst, t.Var)
	}
	return dst
}

// Subst is a substitution: a binding environment mapping variable names to
// ground values. It is an immutable chain of bindings, newest first: Bind
// allocates one node and shares the rest, so extending a substitution never
// copies it and a Subst handed to several goroutines can be extended by each
// without synchronization. The zero value is the empty substitution. A chain
// is as long as the bindings made in one rule body, so lookups walk it.
type Subst struct{ b *binding }

type binding struct {
	name string
	val  Value
	next *binding
	n    int // distinct names bound in this node and the ones behind it
}

// Bind returns s extended with name bound to v, leaving s as it was. A name
// already bound is shadowed: the newest binding wins.
func (s Subst) Bind(name string, v Value) Subst {
	n := s.Len()
	if _, rebound := s.Lookup(name); !rebound {
		n++
	}
	return Subst{&binding{name: name, val: v, next: s.b, n: n}}
}

// Len returns the number of variables bound in s.
func (s Subst) Len() int {
	if s.b == nil {
		return 0
	}
	return s.b.n
}

// Each calls f once per bound variable with its value, newest binding first.
func (s Subst) Each(f func(name string, v Value)) {
	for b := s.b; b != nil; b = b.next {
		if !shadowed(s.b, b) {
			f(b.name, b.val)
		}
	}
}

// shadowed reports whether a node in front of b rebinds b's name.
func shadowed(head, b *binding) bool {
	for a := head; a != b; a = a.next {
		if a.name == b.name {
			return true
		}
	}
	return false
}

// Lookup returns the binding of a variable.
func (s Subst) Lookup(name string) (Value, bool) {
	for b := s.b; b != nil; b = b.next {
		if b.name == name {
			return b.val, true
		}
	}
	return nil, false
}

// Eval resolves a term to a ground value under the substitution. It fails
// if the term's variable is unbound or the attribute path does not resolve.
func (s Subst) Eval(t Term) (Value, error) {
	if t.IsConst() {
		return t.Const, nil
	}
	v, ok := s.Lookup(t.Var)
	if !ok {
		return nil, fmt.Errorf("variable %s is unbound", t.Var)
	}
	if len(t.Path) == 0 {
		return v, nil
	}
	sel, err := Select(v, t.Path)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", t, err)
	}
	return sel, nil
}

// Ground reports whether t evaluates to a ground value under s.
func (s Subst) Ground(t Term) bool {
	if t.IsConst() {
		return true
	}
	_, ok := s.Lookup(t.Var)
	return ok
}

// Unify matches a term against a ground value, extending the substitution.
// Constants must equal the value; bound variables must agree with their
// binding; unbound bare variables are bound to the value. Terms with
// attribute paths must already be resolvable and equal to the value (they
// cannot be bound, since the enclosing record is unknown).
func (s Subst) Unify(t Term, v Value) (Subst, bool) {
	if t.IsConst() {
		if Equal(t.Const, v) {
			return s, true
		}
		return Subst{}, false
	}
	if len(t.Path) > 0 {
		cur, err := s.Eval(t)
		if err != nil {
			return Subst{}, false
		}
		if Equal(cur, v) {
			return s, true
		}
		return Subst{}, false
	}
	if bound, ok := s.Lookup(t.Var); ok {
		if Equal(bound, v) {
			return s, true
		}
		return Subst{}, false
	}
	return Subst{&binding{name: t.Var, val: v, next: s.b, n: s.Len() + 1}}, true
}

// UnifyAll unifies a list of terms against a list of ground values.
func (s Subst) UnifyAll(ts []Term, vs []Value) (Subst, bool) {
	if len(ts) != len(vs) {
		return Subst{}, false
	}
	cur := s
	for i, t := range ts {
		next, ok := cur.Unify(t, vs[i])
		if !ok {
			return Subst{}, false
		}
		cur = next
	}
	return cur, true
}

// RelOp is a comparison operator of the mediator language.
type RelOp int

// Comparison operators.
const (
	OpEQ RelOp = iota
	OpNE
	OpLT
	OpLE
	OpGT
	OpGE
)

// ParseRelOp recognizes a comparison operator token.
func ParseRelOp(s string) (RelOp, bool) {
	switch s {
	case "=", "==":
		return OpEQ, true
	case "!=", "<>":
		return OpNE, true
	case "<":
		return OpLT, true
	case "<=", "=<":
		return OpLE, true
	case ">":
		return OpGT, true
	case ">=", "=>":
		return OpGE, true
	}
	return 0, false
}

func (op RelOp) String() string {
	switch op {
	case OpEQ:
		return "="
	case OpNE:
		return "!="
	case OpLT:
		return "<"
	case OpLE:
		return "<="
	case OpGT:
		return ">"
	case OpGE:
		return ">="
	}
	return "?"
}

// Holds evaluates `a op b` over ground values.
func (op RelOp) Holds(a, b Value) (bool, error) {
	if op == OpEQ || op == OpNE {
		eq := Equal(a, b)
		// Numeric cross-kind equality (2 = 2.0) goes through Compare.
		if !eq {
			if _, aNum := Numeric(a); aNum {
				if _, bNum := Numeric(b); bNum {
					c, err := Compare(a, b)
					if err != nil {
						return false, err
					}
					eq = c == 0
				}
			}
		}
		if op == OpEQ {
			return eq, nil
		}
		return !eq, nil
	}
	c, err := Compare(a, b)
	if err != nil {
		return false, err
	}
	switch op {
	case OpLT:
		return c < 0, nil
	case OpLE:
		return c <= 0, nil
	case OpGT:
		return c > 0, nil
	case OpGE:
		return c >= 0, nil
	}
	return false, fmt.Errorf("unknown operator %v", op)
}
