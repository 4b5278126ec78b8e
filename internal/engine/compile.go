package engine

// Slot-compiled plan rules. Each plan rule a query evaluates is compiled
// once, when evaluation first reaches it, for the adornment it enters
// with: variables are numbered in the order evaluation binds them and
// terms become frame slots, so each level decides once whether it tests
// or binds and writes only its own positions [lo, hi): backtracking needs
// no undo log.

import (
	"fmt"
	"slices"
	"sync"

	"hermes/internal/lang"
	"hermes/internal/rewrite"
	"hermes/internal/term"
)

// What a level does with its literal.
const (
	opFilter = iota // comparison over ground sides
	opAssign        // X = ground: store the ground side into X
	opMember        // in() with a ground output: membership test
	opBind          // in() with a fresh output: bind it per answer
	opAtom          // IDB occurrence
)

// ruleCode is one plan rule compiled for its entry adornment.
type ruleCode struct {
	c     *compiler
	vars  term.Numbering // frame position -> variable name
	head  []term.Slot
	lits  []litCode // in execution order
	indep []int     // independent in() levels, for a parallel query
}

// litCode is a body literal compiled at its level.
type litCode struct {
	lit lang.Literal
	// args are the literal's terms: a comparison's sides (an assignment's
	// variable first), an in()'s output then its call arguments, or an
	// atom's arguments.
	args   []term.Slot
	lo, hi int32 // the frame positions the level binds
	op     uint8
	route  rewrite.Route
	key    rewrite.PredKey
	rules  []*ruleCode // an atom's plan rules for key, once compiled (under mu)
}

// compiler compiles one query's plan, each (predicate, adornment) once.
type compiler struct {
	plan     *rewrite.Plan
	parallel bool
	mu       sync.Mutex // parallel lanes reach atoms concurrently
	done     []*litCode // the first atom of each key compiled so far
}

// rules returns an atom's plan rules, compiled when evaluation first
// reaches the atom (a memo hit never does), once per key per query.
func (c *compiler) rules(lc *litCode) ([]*ruleCode, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, d := range c.done {
		if d.key == lc.key {
			return d.rules, nil
		}
	}
	prs := c.plan.Rules[lc.key]
	if len(prs) == 0 {
		return nil, fmt.Errorf("engine: plan has no rules for %s", lc.key)
	}
	rules := make([]*ruleCode, len(prs))
	for i, pr := range prs {
		if h := pr.Rule.Head.Args; len(h) != len(lc.key.Adorn) {
			return nil, fmt.Errorf("engine: %s called with %d args, rule head has %d", lc.key.Pred, len(lc.key.Adorn), len(h))
		}
		rules[i] = c.rule(pr, lc.key.Adorn)
	}
	lc.rules = rules
	c.done = append(c.done, lc)
	return rules, nil
}

// rule compiles a plan rule entered with the head positions adorn marks
// 'b' bound.
func (c *compiler) rule(pr *rewrite.PlanRule, adorn rewrite.Adornment) *ruleCode {
	rc := &ruleCode{c: c, vars: make(term.Numbering, 0, 8), lits: make([]litCode, len(pr.Order))}
	n := &rc.vars
	for i, h := range pr.Rule.Head.Args {
		if i < len(adorn) && adorn[i] == 'b' && h.IsVar() {
			n.Pos(h.Var)
		}
	}
	lo := 0
	bound := func(t term.Term) bool { return t.IsConst() || slices.Contains((*n)[:lo], t.Var) }
	for level, bi := range pr.Order {
		lc := &rc.lits[level]
		lo = len(*n)
		lc.lit, lc.route, lc.lo = pr.Rule.Body[bi], pr.Routes[bi], int32(lo)
		switch l := lc.lit.(type) {
		// A side, output or argument left unbound here fails to evaluate
		// when the level is reached, as the rewriter's ordering rules out.
		case *lang.Comparison:
			switch lg, rg := bound(l.Left), bound(l.Right); {
			case l.Op == term.OpEQ && rg && !lg && l.Left.IsVar():
				lc.op = opAssign
				n.Pos(l.Left.Var)
			case l.Op == term.OpEQ && lg && !rg && l.Right.IsVar():
				lc.op = opAssign
				n.Pos(l.Right.Var)
			}
		case *lang.InCall:
			if !bound(l.Out) && l.Out.IsVar() {
				lc.op = opBind
				n.Pos(l.Out.Var)
			} else {
				lc.op = opMember
			}
		case *lang.Atom:
			ad := make([]byte, len(l.Args))
			for i, t := range l.Args {
				ad[i] = 'b'
				if !bound(t) {
					ad[i] = 'f'
					if t.IsVar() {
						n.Pos(t.Var)
					}
				}
			}
			lc.op, lc.key = opAtom, rewrite.PredKey{Pred: l.Pred, Adorn: rewrite.Adornment(ad)}
		}
		lc.hi = int32(len(*n))
	}
	// Slots last: a term may name a variable a later level binds.
	rc.head = n.Slots(nil, pr.Rule.Head.Args)
	for level := range rc.lits {
		switch lc := &rc.lits[level]; l := lc.lit.(type) {
		case *lang.Comparison:
			lc.args = []term.Slot{n.Slot(&l.Left), n.Slot(&l.Right)}
			if lc.op == opAssign && (!l.Left.IsVar() || lc.args[0].Pos < int(lc.lo)) {
				lc.args[0], lc.args[1] = lc.args[1], lc.args[0] // the ground side was left
			}
		case *lang.InCall:
			lc.args = n.Slots(append(make([]term.Slot, 0, 1+len(l.Call.Args)), n.Slot(&l.Out)), l.Call.Args)
		case *lang.Atom:
			lc.args = n.Slots(nil, l.Args)
		}
	}
	if c.parallel {
		rc.indep = rewrite.IndependentInCalls(pr, rewrite.HeadBoundVars(pr.Rule, adorn))
	}
	return rc
}
