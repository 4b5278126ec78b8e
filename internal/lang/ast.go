// Package lang defines the mediator rule language of the HERMES system and
// its parser: datalog-style rules whose bodies mix ordinary predicates,
// domain calls in(X, domain:function(args...)), and comparisons; queries;
// and the invariants used by the cache and invariant manager.
//
// Syntax summary (statements end with '.'):
//
//	routetosupplies(From, Sup, To, R) :-
//	    in(T, ingres:select_eq('inventory', 'item', Sup)) &
//	    T.loc = To &
//	    in(R, terrain:findrte(From, To)).
//
//	?- routetosupplies('place1', 'h-22 fuel', To, R).
//
//	Dist > 142 => spatial:range('map1', X, Y, Dist) = spatial:range('points', X, Y, 142).
//	V1 <= V2  => relation:select_lt(T, A, V2) >= relation:select_lt(T, A, V1).
//
// Variables begin with an upper-case letter, '_' or '$'; everything else in
// term position is a constant. '&' and ',' both separate body literals.
// '%' and '#' start line comments.
package lang

import (
	"strings"

	"hermes/internal/term"
)

// Atom is an ordinary (IDB) predicate occurrence: pred(t1, ..., tn).
type Atom struct {
	Pred string
	Args []term.Term
}

// String renders the atom.
func (a *Atom) String() string {
	if len(a.Args) == 0 {
		return a.Pred
	}
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.String()
	}
	return a.Pred + "(" + strings.Join(parts, ", ") + ")"
}

// Vars appends the variables of the atom to dst.
func (a *Atom) Vars(dst []string) []string {
	for _, t := range a.Args {
		dst = t.Vars(dst)
	}
	return dst
}

// CallTemplate is a (possibly non-ground) domain call: domain:function(args).
type CallTemplate struct {
	Domain   string
	Function string
	Args     []term.Term
}

// String renders the call template.
func (c *CallTemplate) String() string {
	parts := make([]string, len(c.Args))
	for i, t := range c.Args {
		parts[i] = t.String()
	}
	return c.Domain + ":" + c.Function + "(" + strings.Join(parts, ", ") + ")"
}

// Vars appends the variables of the call arguments to dst.
func (c *CallTemplate) Vars(dst []string) []string {
	for _, t := range c.Args {
		dst = t.Vars(dst)
	}
	return dst
}

// InCall is the literal in(X, domain:function(args...)): X ranges over the
// answer set of the call. Per the paper, the call arguments must be ground
// when the literal is executed; X may be bound (membership test, pruning
// the rest of the query) or free (enumeration).
type InCall struct {
	Out  term.Term
	Call CallTemplate
}

// String renders the literal.
func (l *InCall) String() string {
	return "in(" + l.Out.String() + ", " + l.Call.String() + ")"
}

// Vars appends the variables of the literal to dst.
func (l *InCall) Vars(dst []string) []string {
	dst = l.Out.Vars(dst)
	return l.Call.Vars(dst)
}

// Comparison is a relop literal: Left op Right, or relop(Left, Right).
type Comparison struct {
	Op    term.RelOp
	Left  term.Term
	Right term.Term
}

// String renders the comparison infix.
func (c *Comparison) String() string {
	return c.Left.String() + " " + c.Op.String() + " " + c.Right.String()
}

// Vars appends the variables of the comparison to dst.
func (c *Comparison) Vars(dst []string) []string {
	dst = c.Left.Vars(dst)
	return c.Right.Vars(dst)
}

// Holds evaluates the comparison over a frame, its sides compiled to the
// slots l and r. Both sides must be ground.
func (c *Comparison) Holds(f term.Frame, l, r term.Slot) (bool, error) {
	lv, err := f.Eval(l)
	if err != nil {
		return false, err
	}
	rv, err := f.Eval(r)
	if err != nil {
		return false, err
	}
	return c.Op.Holds(lv, rv)
}

// Literal is one conjunct of a rule body: an Atom, an InCall, or a
// Comparison.
type Literal interface {
	String() string
	Vars(dst []string) []string
	literal()
}

func (a *Atom) literal()       {}
func (l *InCall) literal()     {}
func (c *Comparison) literal() {}

// Rule is a mediator rule Head :- Body. A fact is a rule with empty body.
type Rule struct {
	Head Atom
	Body []Literal
}

// String renders the rule.
func (r *Rule) String() string {
	if len(r.Body) == 0 {
		return r.Head.String() + "."
	}
	parts := make([]string, len(r.Body))
	for i, l := range r.Body {
		parts[i] = l.String()
	}
	return r.Head.String() + " :- " + strings.Join(parts, " & ") + "."
}

// InvRel is the relationship asserted by an invariant between the answer
// sets of its two domain calls.
type InvRel int

// Invariant relationships: equality of answer sets, or Left ⊇ Right.
const (
	RelEqual InvRel = iota
	RelSuperset
)

func (r InvRel) String() string {
	if r == RelEqual {
		return "="
	}
	return ">="
}

// Invariant is semantic knowledge about a source:
//
//	Condition => Left Rel Right
//
// meaning that whenever Condition holds, answers(Left) Rel answers(Right).
// Invariants are sound but not necessarily complete rewrite rules (§4).
type Invariant struct {
	Cond  []Comparison
	Left  CallTemplate
	Right CallTemplate
	Rel   InvRel
}

// String renders the invariant.
func (inv *Invariant) String() string {
	var cond string
	if len(inv.Cond) == 0 {
		cond = "true"
	} else {
		parts := make([]string, len(inv.Cond))
		for i := range inv.Cond {
			parts[i] = inv.Cond[i].String()
		}
		cond = strings.Join(parts, " & ")
	}
	return cond + " => " + inv.Left.String() + " " + inv.Rel.String() + " " + inv.Right.String() + "."
}

// Query is a conjunctive query against the mediator.
type Query struct {
	Body []Literal
}

// String renders the query.
func (q *Query) String() string {
	parts := make([]string, len(q.Body))
	for i, l := range q.Body {
		parts[i] = l.String()
	}
	return "?- " + strings.Join(parts, " & ") + "."
}

// Program is a parsed mediator specification: rules plus invariants.
type Program struct {
	Rules      []*Rule
	Invariants []*Invariant
}

// RulesFor returns the rules whose head predicate is pred.
func (p *Program) RulesFor(pred string) []*Rule {
	var out []*Rule
	for _, r := range p.Rules {
		if r.Head.Pred == pred {
			out = append(out, r)
		}
	}
	return out
}

// String renders the whole program.
func (p *Program) String() string {
	var b strings.Builder
	for _, r := range p.Rules {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	for _, inv := range p.Invariants {
		b.WriteString(inv.String())
		b.WriteByte('\n')
	}
	return b.String()
}
