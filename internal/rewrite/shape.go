package rewrite

import (
	"sync/atomic"

	"hermes/internal/lang"
)

// Planner is a Rewriter with a fixed-size table from query shape to
// candidate plans, so that the queries of one shape are enumerated once.
// A shape is a query's tokens but for its strings, integers and floats,
// each of which may change its value but not its kind; variable names are
// part of it. Enumeration reads a constant only for being one (an argument
// is ground, an equality selects on a value), never for its value, so the
// queries of one shape have the same plans but for the constants in their
// query lines. The table is keyed by a query's tokens (Prepared,
// PlansFrom). A Planner is safe for concurrent use.
type Planner struct {
	rw     *Rewriter
	shapes [shapeSlots]atomic.Pointer[shape]
}

// shapeSlots is the size of a planner's table. A shape takes the slot its
// hash picks, replacing the shape there.
const shapeSlots = 256

// NewPlanner returns a planner over rw with an empty table.
func NewPlanner(rw *Rewriter) *Planner { return &Planner{rw: rw} }

// Prepared returns the plans of the query lexed as toks when the table
// holds its shape from an earlier query's text: the query's body is lifted
// from toks by the shape's template, with no parse, and gets the shape's
// plans with its own constants in a new query rule, sharing each plan's
// ordering, routing, rule section, fingerprint, function list and compiled
// program with the other queries of the shape. The plans are therefore
// read-only. A hit's allocations do not depend on the size of the rule
// sections. ok is false on a miss, and PlansFrom then takes the query.
func (p *Planner) Prepared(toks lang.Tokens) (plans []*Plan, ok bool) {
	sh := p.shapes[toks.ShapeHash()%shapeSlots].Load()
	if sh == nil {
		return nil, false
	}
	body, ok := sh.text.Lift(toks)
	if !ok {
		return nil, false
	}
	return sh.instantiate(body), true
}

// PlansFrom returns the plans of tp's query, as rw.Plans does, and keeps
// them with tp for Prepared to lift the later queries of the shape with.
// toks are the tokens tp was parsed from.
func (p *Planner) PlansFrom(toks lang.Tokens, tp *lang.Template) ([]*Plan, error) {
	sh, err := p.rw.prepare(tp.Query)
	if err != nil {
		return nil, err
	}
	sh.text = tp
	// Push-down is fixed when a shape is enumerated: a selection kept in
	// the mediator for a function listing that could not be read would
	// stay there once the listing is back.
	if sh.confirmed {
		p.shapes[toks.ShapeHash()%shapeSlots].Store(sh)
	}
	return sh.plans, nil
}

// shape is the candidate plans of one query, kept for the other queries of
// its shape. It is immutable.
type shape struct {
	// pushes are the selection push-downs made on the query's body.
	pushes []push
	plans  []*Plan
	// text is the template of the query's text.
	text *lang.Template
	// confirmed: every function listing push-down read could be obtained.
	confirmed bool
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
