package term

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
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
	if t.IsVar() {
		return t.Var
	}
	var buf [stackBuf]byte
	return string(t.AppendTo(buf[:0]))
}

// AppendTo appends t.String() to dst. A float constant keeps a point, as
// in 2.0, so that its rendering parses back to a float; an infinity or NaN,
// which the language cannot write, renders as strconv writes it.
func (t Term) AppendTo(dst []byte) []byte {
	if f, ok := t.Const.(Float); ok {
		n := len(dst)
		dst = AppendString(dst, f)
		if !bytes.ContainsAny(dst[n:], ".eIN") {
			dst = append(dst, ".0"...)
		}
		return dst
	}
	if t.IsConst() {
		return AppendString(dst, t.Const)
	}
	dst = append(dst, t.Var...)
	for _, p := range t.Path {
		dst = append(append(dst, '.'), p...)
	}
	return dst
}

// Vars appends the variable of t (if any) to dst and returns it.
func (t Term) Vars(dst []string) []string {
	if t.Var != "" {
		dst = append(dst, t.Var)
	}
	return dst
}

// Slot is a term compiled against a numbering of its rule's or
// invariant's variables: the term, and the frame position of its variable
// (0 for a constant).
type Slot struct {
	Term *Term
	Pos  int
}

// Numbering assigns frame positions to variable names, in the order they
// are first numbered.
type Numbering []string

// Pos numbers name unless it already is, and returns its position.
func (n *Numbering) Pos(name string) int {
	if i := slices.Index(*n, name); i >= 0 {
		return i
	}
	*n = append(*n, name)
	return len(*n) - 1
}

// Slot compiles a term, numbering its variable unless it already is. The
// slot points at t, which must outlive it.
func (n *Numbering) Slot(t *Term) Slot {
	if t.IsConst() {
		return Slot{Term: t}
	}
	return Slot{Term: t, Pos: n.Pos(t.Var)}
}

// Slots appends the compiled terms to dst.
func (n *Numbering) Slots(dst []Slot, ts []Term) []Slot {
	for i := range ts {
		dst = append(dst, n.Slot(&ts[i]))
	}
	return dst
}

// Frame holds the values of one activation's variables by position, nil
// where a variable is unbound. Matching writes into it in place, so one
// frame serves a whole rule activation or invariant probe.
type Frame []Value

var errUnbound = errors.New("variable is unbound")

// Eval resolves a slot to a ground value. It fails if the slot's variable
// is unbound or the attribute path does not resolve.
func (f Frame) Eval(s Slot) (Value, error) {
	t := s.Term
	if t.Const != nil {
		return t.Const, nil
	}
	v := f[s.Pos]
	if v == nil {
		return nil, errUnbound
	}
	return Select(v, t.Path)
}

// EvalAll resolves slots to ground values, in order.
func (f Frame) EvalAll(ss []Slot) ([]Value, error) {
	vals := make([]Value, len(ss))
	for i, s := range ss {
		v, err := f.Eval(s)
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	return vals, nil
}

// Unify matches a slot against a ground value. An unbound bare variable
// is stored; a constant, a bound variable or a path must already equal
// the value (a path cannot be bound, since the enclosing record is
// unknown).
func (f Frame) Unify(s Slot, v Value) bool {
	if s.Term.IsVar() && f[s.Pos] == nil {
		f[s.Pos] = v
		return true
	}
	cur, err := f.Eval(s)
	return err == nil && Equal(cur, v)
}

// UnifyAll unifies slots against values position by position. On failure
// the frame may hold the bindings made before the mismatch.
func (f Frame) UnifyAll(ss []Slot, vs []Value) bool {
	if len(ss) != len(vs) {
		return false
	}
	for i, s := range ss {
		if !f.Unify(s, vs[i]) {
			return false
		}
	}
	return true
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
