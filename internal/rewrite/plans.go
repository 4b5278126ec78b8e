package rewrite

import (
	"fmt"

	"hermes/internal/lang"
)

// QueryPred is the pseudo-predicate name used for the query body's plan
// rule.
const QueryPred = "_query"

// Plans derives the execution plans for a query: the paper's rewriter
// output, ready for the rule cost estimator to rank. It errors when no
// permissible plan exists (e.g. a domain call whose arguments can never be
// ground).
func (rw *Rewriter) Plans(q *lang.Query) ([]*Plan, error) {
	s, err := rw.prepare(q)
	if err != nil {
		return nil, err
	}
	return s.plans, nil
}

// prepare derives q's plans, as Plans does, keeping what a Planner needs to
// hand them out again to the other queries of q's shape.
func (rw *Rewriter) prepare(q *lang.Query) (*shape, error) {
	body, pushes, confirmed := rw.pushBody(q.Body)
	qRule := &lang.Rule{Head: lang.Atom{Pred: QueryPred}, Body: body}
	ords := rw.orderings(body, map[string]bool{})
	if len(ords) == 0 {
		return nil, fmt.Errorf("rewrite: query %s has no permissible subgoal ordering", q)
	}
	as := &assembler{rw: rw, altCache: map[PredKey][][]*PlanRule{}, confirmed: confirmed}
	routes := rw.routes(body)
	for _, ord := range ords {
		qpr := &PlanRule{Rule: qRule, Order: ord, Routes: routes}
		plan := &Plan{Query: qpr, Rules: map[PredKey][]*PlanRule{}}
		pending, err := rw.neededKeys(qpr, map[string]bool{})
		if err != nil {
			return nil, err
		}
		if err := as.run(plan, pending, nil); err != nil {
			return nil, err
		}
		if len(as.plans) >= maxPlans {
			break
		}
	}
	if len(as.plans) == 0 {
		return nil, fmt.Errorf("rewrite: no feasible plan for query %s (some predicate has no feasible rules for its adornment)", q)
	}
	return &shape{body: q.Body, pushes: pushes, plans: as.plans, confirmed: as.confirmed}, nil
}

// routes returns a body's routing vector: CIM for the calls whose domain
// is in CIMDomains, direct otherwise.
func (rw *Rewriter) routes(body []lang.Literal) []Route {
	out := make([]Route, len(body))
	for i, lit := range body {
		if in, ok := lit.(*lang.InCall); ok && rw.cfg.CIMDomains[in.Call.Domain] {
			out[i] = RouteCIM
		}
	}
	return out
}

// neededKeys walks a plan rule in execution order and returns the
// (predicate, adornment) keys of its IDB subgoals.
func (rw *Rewriter) neededKeys(pr *PlanRule, headBound map[string]bool) ([]PredKey, error) {
	bound := cloneSet(headBound)
	var keys []PredKey
	for _, bi := range pr.Order {
		lit := pr.Rule.Body[bi]
		if a, ok := lit.(*lang.Atom); ok {
			keys = append(keys, PredKey{Pred: a.Pred, Adorn: AtomAdornment(a, bound)})
		}
		ok, binds := schedulable(lit, bound)
		if !ok {
			return nil, fmt.Errorf("rewrite: internal: ordering made literal %s unschedulable", lit)
		}
		for _, v := range binds {
			bound[v] = true
		}
	}
	return keys, nil
}

// assembler enumerates complete plans by resolving pending predicate keys
// depth-first.
type assembler struct {
	rw       *Rewriter
	plans    []*Plan
	altCache map[PredKey][][]*PlanRule
	// confirmed stays true while every function listing push-down read
	// could be obtained.
	confirmed bool
}

// run resolves pending keys into plan.Rules, emitting completed plans.
// chain tracks the key dependency path for recursion detection.
func (as *assembler) run(plan *Plan, pending []PredKey, chain []PredKey) error {
	if len(as.plans) >= maxPlans {
		return nil
	}
	// Skip keys already resolved (shared subgoals, benign cross-references).
	for len(pending) > 0 {
		if _, done := plan.Rules[pending[0]]; !done {
			break
		}
		pending = pending[1:]
	}
	if len(pending) == 0 {
		as.plans = append(as.plans, clonePlan(plan))
		return nil
	}
	key := pending[0]
	rest := pending[1:]
	for _, c := range chain {
		if c == key {
			// Recursion through the same adornment: this enumeration branch
			// cannot be planned (the engine's semi-naive support is future
			// work); treat it as infeasible rather than failing the whole
			// plan space.
			return nil
		}
	}
	alts, err := as.alternatives(key)
	if err != nil {
		return err
	}
	for _, alt := range alts {
		plan.Rules[key] = alt
		var nested []PredKey
		feasible := true
		for _, pr := range alt {
			hb := HeadBoundVars(pr.Rule, key.Adorn)
			ks, err := as.rw.neededKeys(pr, hb)
			if err != nil {
				feasible = false
				break
			}
			nested = append(nested, ks...)
		}
		if feasible {
			if err := as.run(plan, append(append([]PredKey{}, nested...), rest...), append(chain, key)); err != nil {
				delete(plan.Rules, key)
				return err
			}
		}
		delete(plan.Rules, key)
		if len(as.plans) >= maxPlans {
			return nil
		}
	}
	return nil
}

// HeadBoundVars returns the variables of a rule head bound under an
// adornment.
func HeadBoundVars(r *lang.Rule, adorn Adornment) map[string]bool {
	bound := map[string]bool{}
	for i, t := range r.Head.Args {
		if i < len(adorn) && adorn[i] == 'b' && t.Var != "" {
			bound[t.Var] = true
		}
	}
	return bound
}

// alternatives enumerates the rule-set choices for a (pred, adornment):
// for an access-equivalent predicate, one feasible rule (with one chosen
// ordering) per alternative; for a union predicate, a single alternative
// kind combining one ordering choice of every feasible rule — but only
// when every rule is feasible, since dropping a union rule would lose
// answers.
func (as *assembler) alternatives(key PredKey) ([][]*PlanRule, error) {
	if alts, ok := as.altCache[key]; ok {
		return alts, nil
	}
	rw := as.rw
	rules := rw.prog.RulesFor(key.Pred)
	if len(rules) == 0 {
		return nil, fmt.Errorf("rewrite: no rules for predicate %s/%d", key.Pred, len(key.Adorn))
	}
	arity := len(rules[0].Head.Args)
	if len(key.Adorn) != arity {
		return nil, fmt.Errorf("rewrite: predicate %s has arity %d, adornment %q", key.Pred, arity, key.Adorn)
	}
	// Per-rule ordering/routing variants.
	perRule := make([][]*PlanRule, 0, len(rules))
	for _, r := range rules {
		body, _, confirmed := rw.pushBody(r.Body)
		as.confirmed = as.confirmed && confirmed
		eff := &lang.Rule{Head: r.Head, Body: body}
		hb := HeadBoundVars(eff, key.Adorn)
		var variants []*PlanRule
		routes := rw.routes(body)
		for _, ord := range rw.orderings(body, hb) {
			variants = append(variants, &PlanRule{Rule: eff, Order: ord, Routes: routes})
		}
		perRule = append(perRule, variants)
	}
	var alts [][]*PlanRule
	if rw.IsAccessEquivalent(key.Pred, arity) {
		for _, variants := range perRule {
			for _, v := range variants {
				alts = append(alts, []*PlanRule{v})
			}
		}
	} else {
		// Union semantics: all rules must be feasible.
		feasible := true
		for _, variants := range perRule {
			if len(variants) == 0 {
				feasible = false
				break
			}
		}
		if feasible {
			alts = product(perRule, maxPlans)
		}
	}
	as.altCache[key] = alts
	return alts, nil
}

// product builds the capped cartesian product of per-rule variants.
func product(perRule [][]*PlanRule, cap int) [][]*PlanRule {
	out := [][]*PlanRule{{}}
	for _, variants := range perRule {
		var next [][]*PlanRule
		for _, prefix := range out {
			for _, v := range variants {
				comb := append(append([]*PlanRule{}, prefix...), v)
				next = append(next, comb)
				if len(next) >= cap {
					break
				}
			}
			if len(next) >= cap {
				break
			}
		}
		out = next
	}
	return out
}

func clonePlan(p *Plan) *Plan {
	rules := make(map[PredKey][]*PlanRule, len(p.Rules))
	for k, v := range p.Rules {
		rules[k] = append([]*PlanRule(nil), v...)
	}
	return &Plan{Query: p.Query, Rules: rules, shared: new(planShared)}
}
