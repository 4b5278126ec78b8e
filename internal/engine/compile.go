package engine

// Slot-compiled plan rules. A plan is compiled once for every query of its
// shape (rewrite.Plan.Compiled): its query rule when the first query of
// the shape runs, and each plan rule when evaluation first reaches it, for
// the adornment it enters with. Variables are numbered in the order
// evaluation binds them and terms become frame slots, so each level decides
// once whether it tests or binds and writes only its own positions
// [lo, hi): backtracking needs no undo log. The query's constants are
// frame positions bound before the first level, so the one compiled query
// rule serves every query of the shape, each with its own constants.

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

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
	// lit is the literal, bi its index in the rule's body. The query
	// rule's literals have a variable for each constant: a query's own
	// literal is its body's at bi.
	lit lang.Literal
	bi  int
	// args are the literal's terms: a comparison's sides (an assignment's
	// variable first), an in()'s output then its call arguments, or an
	// atom's arguments.
	args   []term.Slot
	lo, hi int32 // the frame positions the level binds
	op     uint8
	route  rewrite.Route
	key    rewrite.PredKey
	rules  atomic.Pointer[[]*ruleCode] // an atom's plan rules for key, once compiled
}

// program is a plan compiled for every query of its shape.
type program struct {
	compiler
	query *ruleCode
	// consts locates the query's constants, in the order of the frame
	// positions they are bound at.
	consts []constAt
	// vars are the query's variables in first-occurrence order, pos their
	// frame positions.
	vars []string
	pos  []int
}

// constAt locates a constant of a query: a literal of its body and a term
// of the literal (lang.TermAt).
type constAt struct{ lit, term int }

// compile compiles a plan's query rule. Each constant of the body becomes
// a variable of the rule's head, bound on entry: the rule is then the same
// for every query of the shape.
func compile(plan *rewrite.Plan) *program {
	p := &program{compiler: compiler{plan: plan}}
	body := plan.Query.Rule.Body
	rule := &lang.Rule{Head: lang.Atom{Pred: rewrite.QueryPred}, Body: slices.Clone(body)}
	for i, lit := range body {
		for j := 0; lang.TermAt(lit, j) != nil; j++ {
			if !lang.TermAt(lit, j).IsConst() {
				continue
			}
			if rule.Body[i] == lit {
				rule.Body[i] = lang.CloneLiteral(lit)
			}
			// No variable's name starts with '#': the lexer reads it as a
			// comment.
			v := term.V("#" + strconv.Itoa(len(p.consts)))
			*lang.TermAt(rule.Body[i], j) = v
			rule.Head.Args = append(rule.Head.Args, v)
			p.consts = append(p.consts, constAt{i, j})
		}
	}
	pr := &rewrite.PlanRule{Rule: rule, Order: plan.Query.Order, Routes: plan.Query.Routes}
	p.query = p.rule(pr, rewrite.Adornment(strings.Repeat("b", len(p.consts))))
	for _, lit := range body {
		for _, v := range lit.Vars(nil) {
			if !slices.Contains(p.vars, v) {
				p.vars, p.pos = append(p.vars, v), append(p.pos, p.query.vars.Pos(v))
			}
		}
	}
	return p
}

// frame returns a frame for the query rule with a query's constants bound:
// body is the query's, of the program's shape.
func (p *program) frame(body []lang.Literal) term.Frame {
	f := make(term.Frame, len(p.query.vars))
	for k, c := range p.consts {
		f[k] = lang.TermAt(body[c.lit], c.term).Const
	}
	return f
}

// compiler compiles a plan's rules, each (predicate, adornment) once, for
// every query of the plan's shape.
type compiler struct {
	// plan is the plan compiled: its rule section and fingerprint are
	// those of every plan of its shape.
	plan *rewrite.Plan
	mu   sync.Mutex // serializes compiling
	done []*litCode // the first atom of each key compiled so far (under mu)
}

// rules returns an atom's plan rules, compiled when evaluation first
// reaches the atom (a memo hit never does), once per key. Concurrent
// queries of the shape share them: they are published once compiled.
func (c *compiler) rules(lc *litCode) ([]*ruleCode, error) {
	if rules := lc.rules.Load(); rules != nil {
		return *rules, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if rules := lc.rules.Load(); rules != nil {
		return *rules, nil
	}
	for _, d := range c.done {
		if d.key == lc.key {
			lc.rules.Store(d.rules.Load())
			return *d.rules.Load(), nil
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
	lc.rules.Store(&rules)
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
		lc.lit, lc.bi, lc.route, lc.lo = pr.Rule.Body[bi], bi, pr.Routes[bi], int32(lo)
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
	rc.indep = rewrite.IndependentInCalls(pr, rewrite.HeadBoundVars(pr.Rule, adorn))
	return rc
}
