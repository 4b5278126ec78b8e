// Package rewrite implements the rule rewriter of the paper (§5): it takes
// a mediator program and a query and derives the alternative execution
// plans allowed by the permissible adornments of the program. A plan fixes,
// for the query body and for every reachable (predicate, adornment) pair,
// a subgoal ordering such that every domain call is ground when reached,
// plus the decision whether each call is routed through the cache and
// invariant manager. Selections are pushed into sources where the source
// exports an equality-select function.
//
// Rule multiplicity follows the paper's two readings: by default, multiple
// rules for a predicate are a union (all feasible rules execute); a
// predicate declared access-equivalent (the paper's (M1) style, where each
// rule is an alternative access path to the same source data, e.g. d1:p_ff
// vs d1:p_fb) contributes exactly one rule per plan, and the choice is a
// plan branch point — this is what produces the paper's (P8) vs (P12).
// Access-equivalence is declared in the program with facts of the form
//
//	access_equivalent('p', 2).
package rewrite

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"io"
	"slices"
	"strings"
	"sync/atomic"

	"hermes/internal/lang"
	"hermes/internal/term"
)

// Route says how an in() literal is executed.
type Route int

// Routes: direct source call, or through the CIM.
const (
	RouteDirect Route = iota
	RouteCIM
)

func (r Route) String() string {
	if r == RouteCIM {
		return "cim"
	}
	return "direct"
}

// Adornment is a binding pattern: one 'b' (bound) or 'f' (free) per
// argument position.
type Adornment string

// PredKey identifies a predicate occurrence context: predicate name plus
// adornment.
type PredKey struct {
	Pred  string
	Adorn Adornment
}

// String renders the key like the paper's p^bf notation.
func (k PredKey) String() string { return k.Pred + "^" + string(k.Adorn) }

// PlanRule is one rule with a fixed body ordering and per-literal routing.
type PlanRule struct {
	// Rule is the original rule.
	Rule *lang.Rule
	// Order is the execution permutation of the body: Order[i] is the index
	// into Rule.Body executed at step i.
	Order []int
	// Routes[i] is the routing of body literal Rule.Body[i] (meaningful for
	// in() literals).
	Routes []Route
}

// BodyInOrder returns the body literals in execution order.
func (pr *PlanRule) BodyInOrder() []lang.Literal {
	out := make([]lang.Literal, len(pr.Order))
	for i, bi := range pr.Order {
		out[i] = pr.Rule.Body[bi]
	}
	return out
}

// String renders the plan rule with its ordering applied.
func (pr *PlanRule) String() string {
	parts := make([]string, len(pr.Order))
	for i, bi := range pr.Order {
		s := pr.Rule.Body[bi].String()
		if pr.Routes[bi] == RouteCIM {
			if _, isIn := pr.Rule.Body[bi].(*lang.InCall); isIn {
				s = "CIM[" + s + "]"
			}
		}
		parts[i] = s
	}
	return pr.Rule.Head.String() + " :- " + strings.Join(parts, " & ") + "."
}

// Plan is one rewriting of the query and program: the paper's (P8), (P12).
type Plan struct {
	// Query is the ordered query body with routing.
	Query *PlanRule
	// Rules maps every reachable (pred, adornment) to the plan's chosen
	// rules (one per access-equivalent predicate; all feasible rules for
	// union predicates).
	Rules map[PredKey][]*PlanRule

	// shared is what every plan a shape hands out for one candidate
	// shares with the candidate, beside its rule section.
	shared *planShared
}

// planShared is what a candidate plan shares with every plan its shape
// hands out: Fingerprint and Functions, cached (fp 0 = not yet computed),
// and its compiled program.
type planShared struct {
	fp    atomic.Uint64
	funcs atomic.Pointer[[][2]string]
	prog  atomic.Pointer[Program]
}

// Program returns the plan compiled for every plan of its shape's
// candidate: the first call compiles, and concurrent first calls may each
// compile, keeping one result. The program depends only on the plan's
// shape and rule section, never on its query's constants.
func (p *Plan) Program() *Program {
	c := &p.shared.prog
	if v := c.Load(); v != nil {
		return v
	}
	c.CompareAndSwap(nil, compile(p))
	return c.Load()
}

// Fingerprint hashes the plan's rule section — every (pred, adornment) key
// with its chosen rules, orderings and routings, but not the query line —
// so memo entries built under one plan are never replayed under a plan
// that could evaluate a subgoal differently, while α-equivalent queries
// over the same program share entries. Stable within a process run; the
// result is cached on the plan.
func (p *Plan) Fingerprint() uint64 {
	if fp := p.shared.fp.Load(); fp != 0 {
		return fp
	}
	h := fnv.New64a()
	for _, key := range sortedKeys(p.Rules) {
		io.WriteString(h, key.String())
		io.WriteString(h, "\n")
		for _, pr := range p.Rules[key] {
			io.WriteString(h, pr.String())
			io.WriteString(h, "\n")
		}
	}
	fp := h.Sum64()
	if fp == 0 {
		fp = 1
	}
	p.shared.fp.Store(fp)
	return fp
}

// Functions lists the distinct (domain, function) pairs of the in()
// literals the plan can reach, the query's first. The list is cached on
// the plan and shared with the plans of the same shape: it is read-only.
func (p *Plan) Functions() [][2]string {
	if fs := p.shared.funcs.Load(); fs != nil {
		return *fs
	}
	seen := map[[2]string]bool{}
	var out [][2]string
	add := func(pr *PlanRule) {
		for _, lit := range pr.Rule.Body {
			if ic, ok := lit.(*lang.InCall); ok {
				df := [2]string{ic.Call.Domain, ic.Call.Function}
				if !seen[df] {
					seen[df] = true
					out = append(out, df)
				}
			}
		}
	}
	add(p.Query)
	for _, key := range sortedKeys(p.Rules) {
		for _, pr := range p.Rules[key] {
			add(pr)
		}
	}
	p.shared.funcs.Store(&out)
	return out
}

// AppendQueryLine appends the query statement alone: its literals in
// execution order, CIM-routed calls marked. It is the line String starts
// with: a string constant renders escaped, so the statement is one line.
func (p *Plan) AppendQueryLine(dst []byte) []byte {
	dst = append(dst, "?- "...)
	for i, bi := range p.Query.Order {
		if i > 0 {
			dst = append(dst, " & "...)
		}
		l := p.Query.Rule.Body[bi]
		if _, isIn := l.(*lang.InCall); isIn && p.Query.Routes[bi] == RouteCIM {
			dst = append(l.AppendTo(append(dst, "CIM["...)), ']')
		} else {
			dst = l.AppendTo(dst)
		}
	}
	return append(dst, '.')
}

// QueryLine is a plan's query statement as a trace span keeps it, as its
// name or a tag's value: rendered by AppendQueryLine when the trace is
// first read. A plan does not change once built.
type QueryLine struct{ Plan *Plan }

// AppendTo appends the plan's query line.
func (q QueryLine) AppendTo(dst []byte) []byte { return q.Plan.AppendQueryLine(dst) }

// String renders the whole plan.
func (p *Plan) String() string {
	b := append(p.AppendQueryLine(nil), '\n')
	for _, key := range sortedKeys(p.Rules) {
		for _, pr := range p.Rules[key] {
			b = fmt.Appendf(b, "  %s  %s\n", key, pr)
		}
	}
	return string(b)
}

func sortedKeys(m map[PredKey][]*PlanRule) []PredKey {
	out := make([]PredKey, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.SortFunc(out, func(a, b PredKey) int {
		return cmp.Or(strings.Compare(a.Pred, b.Pred), strings.Compare(string(a.Adorn), string(b.Adorn)))
	})
	return out
}

// Config tunes the rewriter.
type Config struct {
	// CIMDomains lists the domains whose calls are routed through the CIM
	// (the paper's "send all calls for a certain domain" decision, made
	// prior to query execution).
	CIMDomains map[string]bool
}

// Enumeration caps: plans generated per query, and body permutations
// explored per rule.
const (
	maxPlans     = 128
	maxOrderings = 24
)

// SelectPusher reports whether a domain supports source-side equality
// selection for scans, so that in(T, d:all(Tbl)) & T.attr = v can be pushed
// to in(T, d:equal(Tbl, attr, v)). A non-nil error says the domain's
// listing could not be obtained: the function is unconfirmed, and the
// selection stays in the mediator. Satisfied by *domain.Registry via
// HasFunction.
type SelectPusher interface {
	HasFunction(dom, fn string, arity int) (bool, error)
}

// Rewriter derives plans for queries over a program. It holds nothing of
// any one query: one rewriter serves every query over its program,
// concurrently.
type Rewriter struct {
	prog   *lang.Program
	cfg    Config
	pusher SelectPusher
	// equivalent predicates: "pred/arity" declared access-equivalent.
	equivalent map[string]bool
}

// AccessEquivalentFacts is the predicate name whose facts declare
// access-equivalent predicates.
const AccessEquivalentFacts = "access_equivalent"

// New builds a rewriter. Equality selections on scans are pushed to the
// sources pusher reports support for; a nil pusher pushes none.
func New(prog *lang.Program, cfg Config, pusher SelectPusher) *Rewriter {
	rw := &Rewriter{prog: prog, cfg: cfg, pusher: pusher, equivalent: map[string]bool{}}
	for _, r := range prog.Rules {
		if r.Head.Pred == AccessEquivalentFacts && len(r.Body) == 0 && len(r.Head.Args) == 2 {
			name, okN := r.Head.Args[0].Const.(term.Str)
			arity, okA := r.Head.Args[1].Const.(term.Int)
			if okN && okA {
				rw.equivalent[fmt.Sprintf("%s/%d", string(name), int64(arity))] = true
			}
		}
	}
	return rw
}

// IsAccessEquivalent reports whether pred/arity was declared
// access-equivalent.
func (rw *Rewriter) IsAccessEquivalent(pred string, arity int) bool {
	return rw.equivalent[fmt.Sprintf("%s/%d", pred, arity)]
}

// groundUnder reports whether a term is ground given the bound-variable
// set.
func groundUnder(t term.Term, bound map[string]bool) bool {
	if t.IsConst() {
		return true
	}
	return bound[t.Var]
}

// schedulable reports whether a literal may execute next given the bound
// variables, and returns the variables it would newly bind.
func schedulable(lit lang.Literal, bound map[string]bool) (ok bool, binds []string) {
	switch l := lit.(type) {
	case *lang.InCall:
		for _, a := range l.Call.Args {
			if !groundUnder(a, bound) {
				return false, nil
			}
		}
		// The output may be bound (membership test) or a fresh variable.
		if l.Out.IsConst() {
			return true, nil
		}
		if len(l.Out.Path) > 0 {
			// Cannot bind through an attribute path; the root must be bound.
			return bound[l.Out.Var], nil
		}
		if bound[l.Out.Var] {
			return true, nil
		}
		return true, []string{l.Out.Var}
	case *lang.Atom:
		// IDB predicates accept any adornment here; rule-level feasibility
		// is checked when the subplan is built.
		var nb []string
		for _, a := range l.Args {
			if a.Var != "" && !bound[a.Var] && len(a.Path) == 0 {
				nb = append(nb, a.Var)
			}
			if a.Var != "" && len(a.Path) > 0 && !bound[a.Var] {
				return false, nil // cannot produce a binding through a path
			}
		}
		return true, nb
	case *lang.Comparison:
		lg := groundUnder(l.Left, bound)
		rg := groundUnder(l.Right, bound)
		if l.Op == term.OpEQ {
			switch {
			case lg && rg:
				return true, nil
			case lg && l.Right.IsVar():
				return true, []string{l.Right.Var}
			case rg && l.Left.IsVar():
				return true, []string{l.Left.Var}
			}
			return false, nil
		}
		return lg && rg, nil
	}
	return false, nil
}

// orderings enumerates permissible body orderings (capped). A permissible
// ordering executes every literal only when it is schedulable.
func (rw *Rewriter) orderings(body []lang.Literal, bound map[string]bool) [][]int {
	var out [][]int
	used := make([]bool, len(body))
	order := make([]int, 0, len(body))
	b := cloneSet(bound)
	var rec func()
	rec = func() {
		if len(out) >= maxOrderings {
			return
		}
		if len(order) == len(body) {
			out = append(out, append([]int(nil), order...))
			return
		}
		for i := range body {
			if used[i] {
				continue
			}
			ok, binds := schedulable(body[i], b)
			if !ok {
				continue
			}
			used[i] = true
			order = append(order, i)
			for _, v := range binds {
				b[v] = true
			}
			rec()
			for _, v := range binds {
				delete(b, v)
			}
			order = order[:len(order)-1]
			used[i] = false
		}
	}
	rec()
	return out
}

func cloneSet(s map[string]bool) map[string]bool {
	out := make(map[string]bool, len(s))
	for k, v := range s {
		if v {
			out[k] = v
		}
	}
	return out
}

// AtomAdornment computes the adornment of an atom occurrence given the
// variables bound before it executes. The estimator keys its plan lookups
// with it too, so the two cannot disagree on a predicate's adornment.
func AtomAdornment(a *lang.Atom, bound map[string]bool) Adornment {
	var b strings.Builder
	for _, t := range a.Args {
		if groundUnder(t, bound) {
			b.WriteByte('b')
		} else {
			b.WriteByte('f')
		}
	}
	return Adornment(b.String())
}
