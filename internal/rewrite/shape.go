package rewrite

import (
	"slices"
	"sync/atomic"

	"hermes/internal/lang"
	"hermes/internal/term"
)

// Planner is a Rewriter with a fixed-size table from query shape to
// candidate plans, so that the queries of one shape are enumerated once.
// A shape is a query body but for its constants, each of which may change
// its value but not its kind; variable names are part of it. Enumeration
// reads a constant only for being one (an argument is ground, an equality
// selects on a value), never for its value, so the queries of one shape
// have the same plans but for the constants in their query lines. The one
// table is keyed two ways: a parsed query by its shape (Plans), a query's
// text by its tokens (Prepared, PlansFrom). A Planner is safe for
// concurrent use.
type Planner struct {
	rw     *Rewriter
	shapes [shapeSlots]atomic.Pointer[shape]
}

// shapeSlots is the size of a planner's table. A shape takes the slot its
// hash picks, replacing the shape there.
const shapeSlots = 256

// NewPlanner returns a planner over rw with an empty table.
func NewPlanner(rw *Rewriter) *Planner { return &Planner{rw: rw} }

// Plans returns q's candidate plans, as rw.Plans does. The first query of
// a shape enumerates them; every later one gets them with its own
// constants in a new query rule, sharing each plan's ordering, routing,
// rule section, fingerprint, function list and compiled program with the
// other queries of the shape. The plans are therefore read-only. A hit's
// allocations do not depend on the size of the rule sections.
func (p *Planner) Plans(q *lang.Query) ([]*Plan, error) {
	slot := &p.shapes[shapeHash(q)%shapeSlots]
	if sh := slot.Load(); sh != nil && sh.matches(q) {
		return sh.instantiate(q.Body), nil
	}
	return p.enumerate(slot, q, nil)
}

// Prepared returns the plans of the query lexed as toks when the table
// holds its shape from an earlier query's text, as Plans would return
// them: the query's body is lifted from toks by the shape's template, with
// no parse. ok is false on a miss, and PlansFrom then takes the query.
func (p *Planner) Prepared(toks lang.Tokens) (plans []*Plan, ok bool) {
	sh := p.shapes[toks.ShapeHash()%shapeSlots].Load()
	if sh == nil || sh.text == nil {
		return nil, false
	}
	body, ok := sh.text.Lift(toks)
	if !ok {
		return nil, false
	}
	return sh.instantiate(body), true
}

// PlansFrom returns the plans of tp's query, as Plans does, and keeps tp
// for Prepared to lift the later queries of the shape with. toks are the
// tokens tp was parsed from.
func (p *Planner) PlansFrom(toks lang.Tokens, tp *lang.Template) ([]*Plan, error) {
	return p.enumerate(&p.shapes[toks.ShapeHash()%shapeSlots], tp.Query, tp)
}

// enumerate derives q's plans and keeps its shape, with its template when
// it came as text, in slot.
func (p *Planner) enumerate(slot *atomic.Pointer[shape], q *lang.Query, tp *lang.Template) ([]*Plan, error) {
	sh, err := p.rw.prepare(q)
	if err != nil {
		return nil, err
	}
	sh.text = tp
	// Push-down is fixed when a shape is enumerated: a selection kept in
	// the mediator for a function listing that could not be read would
	// stay there once the listing is back.
	if sh.confirmed {
		slot.Store(sh)
	}
	return sh.plans, nil
}

// shape is the candidate plans of one query, kept for the other queries of
// its shape. It is immutable.
type shape struct {
	// body is the query body the plans were enumerated for; pushes are
	// the selection push-downs made on it.
	body   []lang.Literal
	pushes []push
	plans  []*Plan
	// text is the template of the query's text, when it came as text.
	text *lang.Template
	// confirmed: every function listing push-down read could be obtained.
	confirmed bool
}

// matches reports whether q has the shape.
func (s *shape) matches(q *lang.Query) bool {
	if len(q.Body) != len(s.body) {
		return false
	}
	for i, lit := range s.body {
		if !sameLiteral(lit, q.Body[i]) {
			return false
		}
	}
	return true
}

// instantiate returns the shape's plans for a query body of the shape: one
// query rule over the body with the shape's push-downs replayed, and the
// shape's plans otherwise. A one-candidate shape, as most are, hands its
// plan out in one allocation.
func (s *shape) instantiate(body []lang.Literal) []*Plan {
	body = applyPushes(body, s.pushes)
	if len(s.plans) == 1 {
		t := s.plans[0]
		one := &struct {
			rule lang.Rule
			pr   PlanRule
			plan Plan
			out  [1]*Plan
		}{rule: lang.Rule{Head: lang.Atom{Pred: QueryPred}, Body: body}}
		one.pr = PlanRule{Rule: &one.rule, Order: t.Query.Order, Routes: t.Query.Routes}
		one.plan = Plan{Query: &one.pr, Rules: t.Rules, shared: t.shared}
		one.out[0] = &one.plan
		return one.out[:]
	}
	rule := &lang.Rule{Head: lang.Atom{Pred: QueryPred}, Body: body}
	out := make([]*Plan, len(s.plans))
	plans := make([]Plan, len(s.plans))
	rules := make([]PlanRule, len(s.plans))
	for i, t := range s.plans {
		rules[i] = PlanRule{Rule: rule, Order: t.Query.Order, Routes: t.Query.Routes}
		plans[i] = Plan{Query: &rules[i], Rules: t.Rules, shared: t.shared}
		out[i] = &plans[i]
	}
	return out
}

// shapeHash hashes q's shape: queries one shape matches hash alike.
func shapeHash(q *lang.Query) uint64 {
	h := uint64(fnvOffset)
	for _, lit := range q.Body {
		switch l := lit.(type) {
		case *lang.Atom:
			h = hashString(mix(h, 'a'), l.Pred)
			h = hashTerms(h, l.Args)
		case *lang.InCall:
			h = hashTerm(mix(h, 'i'), l.Out)
			h = hashString(hashString(h, l.Call.Domain), l.Call.Function)
			h = hashTerms(h, l.Call.Args)
		case *lang.Comparison:
			h = mix(mix(h, 'c'), byte(l.Op))
			h = hashTerm(hashTerm(h, l.Left), l.Right)
		}
	}
	return h
}

// FNV-1a.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func mix(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

// hashString hashes s and a terminator, so that consecutive strings
// cannot trade bytes.
func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = mix(h, s[i])
	}
	return mix(h, 0)
}

// hashTerm hashes what sameTerm compares: a constant's kind, a variable's
// name and path.
func hashTerm(h uint64, t term.Term) uint64 {
	if t.IsConst() {
		return mix(mix(h, 'k'), byte(t.Const.Kind()))
	}
	h = hashString(mix(h, 'v'), t.Var)
	for _, a := range t.Path {
		h = hashString(h, a)
	}
	return mix(h, 0)
}

func hashTerms(h uint64, ts []term.Term) uint64 {
	for _, t := range ts {
		h = hashTerm(h, t)
	}
	return mix(h, 0)
}

// sameLiteral reports whether two literals have one shape.
func sameLiteral(a, b lang.Literal) bool {
	switch x := a.(type) {
	case *lang.Atom:
		y, ok := b.(*lang.Atom)
		return ok && x.Pred == y.Pred && sameTerms(x.Args, y.Args)
	case *lang.InCall:
		y, ok := b.(*lang.InCall)
		return ok && sameTerm(x.Out, y.Out) && x.Call.Domain == y.Call.Domain &&
			x.Call.Function == y.Call.Function && sameTerms(x.Call.Args, y.Call.Args)
	case *lang.Comparison:
		y, ok := b.(*lang.Comparison)
		return ok && x.Op == y.Op && sameTerm(x.Left, y.Left) && sameTerm(x.Right, y.Right)
	}
	return false
}

// sameTerm reports whether two terms have one shape: constants of one
// kind, or one variable with one path.
func sameTerm(a, b term.Term) bool {
	if a.IsConst() || b.IsConst() {
		return a.IsConst() && b.IsConst() && a.Const.Kind() == b.Const.Kind()
	}
	return a.Var == b.Var && slices.Equal(a.Path, b.Path)
}

func sameTerms(a, b []term.Term) bool {
	return slices.EqualFunc(a, b, sameTerm)
}
