package rewrite

// Slot-compiled plan rules, the one binding model of planning and
// execution: the engine evaluates them and the estimator prices them. A
// plan is compiled once for every query of its shape (Plan.Program): its
// query rule when the first query of the shape is ranked or run, and each
// plan rule when costing or evaluation first reaches it, for the adornment
// it enters with. Variables are numbered in the order evaluation binds
// them and terms become frame slots, so each level decides once whether it
// tests or binds and writes only its own positions [Lo, Hi): the positions
// below a level's Lo are exactly the variables bound when it is reached,
// and backtracking needs no undo log. The query's constants are frame
// positions bound before the first level, so the one compiled query rule
// serves every query of the shape, each with its own constants.

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"hermes/internal/lang"
	"hermes/internal/term"
)

// What a level does with its literal.
const (
	OpFilter = iota // comparison over ground sides
	OpAssign        // X = ground: store the ground side into X
	OpMember        // in() with a ground output: membership test
	OpBind          // in() with a fresh output: bind it per answer
	OpAtom          // IDB occurrence
)

// RuleCode is one plan rule compiled for its entry adornment.
type RuleCode struct {
	Prog  *Program
	Vars  term.Numbering // frame position -> variable name
	Head  []term.Slot
	Lits  []LitCode // in execution order
	Indep []int     // independent in() levels, for a parallel query
}

// LitCode is a body literal compiled at its level.
type LitCode struct {
	// Lit is the literal, BI its index in the rule's body. The query
	// rule's literals have a variable for each constant: a query's own
	// literal is its body's at BI.
	Lit lang.Literal
	BI  int
	// Args are the literal's terms: a comparison's sides (an assignment's
	// variable first), an in()'s output then its call arguments, or an
	// atom's arguments.
	Args   []term.Slot
	Lo, Hi int32 // the frame positions the level binds
	Op     uint8
	Route  Route
	Key    PredKey
	rules  atomic.Pointer[[]*RuleCode] // an atom's plan rules for Key, once compiled
}

// Program is a plan compiled for every query of its shape.
type Program struct {
	// Plan is the plan compiled: its rule section and fingerprint are
	// those of every plan of its shape.
	Plan *Plan
	mu   sync.Mutex // serializes compiling
	done []*LitCode // the first atom of each key compiled so far (under mu)

	Query *RuleCode
	// consts locates the query's constants, in the order of the frame
	// positions they are bound at.
	consts []constAt
	// Vars are the query's variables in first-occurrence order, Pos their
	// frame positions.
	Vars []string
	Pos  []int
}

// constAt locates a constant of a query: a literal of its body and a term
// of the literal (lang.TermAt).
type constAt struct{ lit, term int }

// compile compiles a plan's query rule. Each constant of the body becomes
// a variable of the rule's head, bound on entry: the rule is then the same
// for every query of the shape.
func compile(plan *Plan) *Program {
	p := &Program{Plan: plan}
	body := plan.Query.Rule.Body
	rule := &lang.Rule{Head: lang.Atom{Pred: QueryPred}, Body: slices.Clone(body)}
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
	pr := &PlanRule{Rule: rule, Order: plan.Query.Order, Routes: plan.Query.Routes}
	p.Query = p.rule(pr, Adornment(strings.Repeat("b", len(p.consts))))
	for _, lit := range body {
		for _, v := range lit.Vars(nil) {
			if !slices.Contains(p.Vars, v) {
				p.Vars, p.Pos = append(p.Vars, v), append(p.Pos, p.Query.Vars.Pos(v))
			}
		}
	}
	return p
}

// AppendFrame appends to f a frame for the query rule with a query's
// constants bound: body is the query's, of the program's shape.
func (p *Program) AppendFrame(f term.Frame, body []lang.Literal) term.Frame {
	n := len(f)
	f = append(f, make(term.Frame, len(p.Query.Vars))...)
	for k, c := range p.consts {
		f[n+k] = lang.TermAt(body[c.lit], c.term).Const
	}
	return f
}

// Rules returns an atom's plan rules, compiled when costing or evaluation
// first reaches the atom, once per key. Concurrent queries of the shape
// share them: they are published once compiled.
func (p *Program) Rules(lc *LitCode) ([]*RuleCode, error) {
	if rules := lc.rules.Load(); rules != nil {
		return *rules, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if rules := lc.rules.Load(); rules != nil {
		return *rules, nil
	}
	for _, d := range p.done {
		if d.Key == lc.Key {
			lc.rules.Store(d.rules.Load())
			return *d.rules.Load(), nil
		}
	}
	prs := p.Plan.Rules[lc.Key]
	if len(prs) == 0 {
		return nil, fmt.Errorf("rewrite: plan has no rules for %s", lc.Key)
	}
	rules := make([]*RuleCode, len(prs))
	for i, pr := range prs {
		if h := pr.Rule.Head.Args; len(h) != len(lc.Key.Adorn) {
			return nil, fmt.Errorf("rewrite: %s called with %d args, rule head has %d", lc.Key.Pred, len(lc.Key.Adorn), len(h))
		}
		rules[i] = p.rule(pr, lc.Key.Adorn)
	}
	lc.rules.Store(&rules)
	p.done = append(p.done, lc)
	return rules, nil
}

// rule compiles a plan rule entered with the head positions adorn marks
// 'b' bound.
func (p *Program) rule(pr *PlanRule, adorn Adornment) *RuleCode {
	rc := &RuleCode{Prog: p, Vars: make(term.Numbering, 0, 8), Lits: make([]LitCode, len(pr.Order))}
	n := &rc.Vars
	for i, h := range pr.Rule.Head.Args {
		if i < len(adorn) && adorn[i] == 'b' && h.IsVar() {
			n.Pos(h.Var)
		}
	}
	lo := 0
	bound := func(t term.Term) bool { return t.IsConst() || slices.Contains((*n)[:lo], t.Var) }
	for level, bi := range pr.Order {
		lc := &rc.Lits[level]
		lo = len(*n)
		lc.Lit, lc.BI, lc.Route, lc.Lo = pr.Rule.Body[bi], bi, pr.Routes[bi], int32(lo)
		switch l := lc.Lit.(type) {
		// A side, output or argument left unbound here fails to evaluate
		// when the level is reached, as the rewriter's ordering rules out.
		case *lang.Comparison:
			switch lg, rg := bound(l.Left), bound(l.Right); {
			case l.Op == term.OpEQ && rg && !lg && l.Left.IsVar():
				lc.Op = OpAssign
				n.Pos(l.Left.Var)
			case l.Op == term.OpEQ && lg && !rg && l.Right.IsVar():
				lc.Op = OpAssign
				n.Pos(l.Right.Var)
			}
		case *lang.InCall:
			if !bound(l.Out) && l.Out.IsVar() {
				lc.Op = OpBind
				n.Pos(l.Out.Var)
			} else {
				lc.Op = OpMember
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
			lc.Op, lc.Key = OpAtom, PredKey{Pred: l.Pred, Adorn: Adornment(ad)}
		}
		lc.Hi = int32(len(*n))
	}
	// Slots last: a term may name a variable a later level binds.
	rc.Head = n.Slots(nil, pr.Rule.Head.Args)
	for level := range rc.Lits {
		switch lc := &rc.Lits[level]; l := lc.Lit.(type) {
		case *lang.Comparison:
			lc.Args = []term.Slot{n.Slot(&l.Left), n.Slot(&l.Right)}
			if lc.Op == OpAssign && (!l.Left.IsVar() || lc.Args[0].Pos < int(lc.Lo)) {
				lc.Args[0], lc.Args[1] = lc.Args[1], lc.Args[0] // the ground side was left
			}
		case *lang.InCall:
			lc.Args = n.Slots(append(make([]term.Slot, 0, 1+len(l.Call.Args)), n.Slot(&l.Out)), l.Call.Args)
		case *lang.Atom:
			lc.Args = n.Slots(nil, l.Args)
		}
	}
	rc.Indep = IndependentInCalls(pr, HeadBoundVars(pr.Rule, adorn))
	return rc
}
