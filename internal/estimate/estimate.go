// Package estimate implements the rule cost estimator of the paper (§7):
// it associates a cost vector [Tf, Ta, Card] with every plan produced by
// the rule rewriter, combining per-call estimates obtained from the DCSM
// under the pipelined nested-loops execution model with no duplicate
// elimination:
//
//	Ta(body)   = Σ_i  Ta_i · Π_{j<i} Card_j
//	Tf(body)   = Σ_i  Tf_i
//	Card(body) = Π_i  Card_i
//
// Plan-time-known constants propagate through head unification (the
// pattern d1:p_bf(a)); values bound only at run time become $b. Calls
// routed through the CIM are costed against the cache's current contents
// (exact/equality hits cost a cache serve; partial hits overlap the actual
// call; misses add the lookup overhead).
package estimate

import (
	"fmt"
	"time"

	"hermes/internal/cim"
	"hermes/internal/dcsm"
	"hermes/internal/domain"
	"hermes/internal/lang"
	"hermes/internal/memo"
	"hermes/internal/rewrite"
	"hermes/internal/term"
)

// maxDepth bounds recursive predicate costing.
const maxDepth = 32

// defaultCost is assumed for calls with no statistics and no native
// estimator, so that planning can proceed on cold systems; PlanCost
// reports how many literals fell back to it.
var defaultCost = domain.CostVector{TFirst: 500 * time.Millisecond, TAll: 2 * time.Second, Card: 10}

// Estimator costs plans.
type Estimator struct {
	db    *dcsm.DB
	cache *cim.Manager // nil when no CIM is deployed

	// calQuantile, when > 0, turns on calibration-inflated costing: every
	// call's time components are multiplied by the calQuantile q-error the
	// DCSM's calibration holds for its (domain, function), or by
	// coldInflate when the function has never been graded. Because the
	// inflation quantile is pessimistic (p90, not the median), the
	// inflated cost *is* a worst-plausible-case cost — so ranking plans by
	// minimum inflated cost is exactly the robust (minimize worst case)
	// plan choice the rough grade calls for.
	calQuantile float64
	coldInflate float64
	// memo, when set, prices subgoals whose memo key is currently
	// resident at their replay cost instead of their source cost, so
	// α-equivalent repeat queries pick orders that reuse warm entries.
	memo *memo.Cache
}

// New builds an estimator over the DCSM. cache may be nil.
func New(db *dcsm.DB, cache *cim.Manager) *Estimator {
	return &Estimator{db: db, cache: cache}
}

// SetCalibration sets calibration-inflated costing. quantile selects the
// q-error quantile read per (domain, function) from the DCSM's
// calibration — pessimistic values (0.9) make the ranking robust rather
// than optimistic, and 1 reads the window's maximum; quantile <= 0 turns
// inflation off. coldInflate is the factor applied to functions with no
// observations at all; values <= 1 disable cold-start inflation.
func (e *Estimator) SetCalibration(quantile, coldInflate float64) {
	e.calQuantile, e.coldInflate = quantile, coldInflate
}

// SetMemo enables memo-residency-aware costing (nil disables it).
func (e *Estimator) SetMemo(m *memo.Cache) { e.memo = m }

// CostDetail reports how a plan's estimate was put together, beyond the
// cost vector itself.
type CostDetail struct {
	// Defaulted counts literals with no statistics that used defaultCost.
	Defaulted int
	// Inflated counts calls whose cost was inflated by an observed
	// q-error factor > 1; ColdInflated counts calls that took the
	// cold-start factor instead.
	Inflated     int
	ColdInflated int
	// MaxInflation is the largest factor applied to any single call (1
	// when nothing was inflated).
	MaxInflation float64
	// MemoHits counts subgoals priced at their memo replay cost.
	MemoHits int
}

// PlanCost estimates the cost vector of executing a plan in all-answers
// mode. defaulted reports how many literals had no statistics and used
// defaultCost.
func (e *Estimator) PlanCost(p *rewrite.Plan) (cv domain.CostVector, defaulted int, err error) {
	cv, d, err := e.PlanCostDetail(p)
	return cv, d.Defaulted, err
}

// PlanCostDetail is PlanCost plus the full accounting of inflation and
// memo-residency adjustments.
func (e *Estimator) PlanCostDetail(p *rewrite.Plan) (cv domain.CostVector, d CostDetail, err error) {
	st := &costState{est: e, plan: p, maxInflation: 1}
	cv, err = st.costPlanRule(p.Query, subst{}, map[string]bool{}, 0)
	return cv, st.detail(), err
}

// Best ranks plans by estimated all-answers time and returns the winner
// with its cost. byFirstAnswer ranks by time-to-first-answer instead
// (interactive mode).
func (e *Estimator) Best(plans []*rewrite.Plan, byFirstAnswer bool) (*rewrite.Plan, domain.CostVector, error) {
	p, cv, _, err := e.BestDetail(plans, byFirstAnswer)
	return p, cv, err
}

// BestDetail is Best plus the winner's CostDetail. When calibration
// inflation is enabled the ranking minimizes the *inflated* cost, i.e.
// the worst-plausible-case cost under the observed q-error tail, which
// makes the choice robust exactly when the numbers are rough.
func (e *Estimator) BestDetail(plans []*rewrite.Plan, byFirstAnswer bool) (*rewrite.Plan, domain.CostVector, CostDetail, error) {
	if len(plans) == 0 {
		return nil, domain.CostVector{}, CostDetail{}, fmt.Errorf("estimate: no plans to rank")
	}
	var best *rewrite.Plan
	var bestCV domain.CostVector
	var bestD CostDetail
	for _, p := range plans {
		cv, d, err := e.PlanCostDetail(p)
		if err != nil {
			return nil, domain.CostVector{}, CostDetail{}, err
		}
		better := best == nil
		if !better {
			if byFirstAnswer {
				better = cv.TFirst < bestCV.TFirst
			} else {
				better = cv.TAll < bestCV.TAll
			}
		}
		if better {
			best, bestCV, bestD = p, cv, d
		}
	}
	return best, bestCV, bestD, nil
}

// costState threads plan context and fallback accounting.
type costState struct {
	est          *Estimator
	plan         *rewrite.Plan
	defaulted    int
	inflated     int
	coldInflated int
	maxInflation float64
	memoHits     int
}

func (st *costState) detail() CostDetail {
	return CostDetail{
		Defaulted:    st.defaulted,
		Inflated:     st.inflated,
		ColdInflated: st.coldInflated,
		MaxInflation: st.maxInflation,
		MemoHits:     st.memoHits,
	}
}

// inflate scales a call's time components by the observed pessimistic
// q-error for its function, or by the cold-start factor when the
// function has never been observed. Cardinality is left alone: the Ta
// q-error already folds cardinality misestimates into time, and scaling
// Card would double-count them through the nested-loop multiplier.
func (st *costState) inflate(cv domain.CostVector, dom, fn string) domain.CostVector {
	e := st.est
	if e.calQuantile <= 0 {
		return cv
	}
	q, n := e.db.Calibration().QErrQuantile(dom, fn, e.calQuantile)
	factor := 1.0
	switch {
	case n == 0:
		if e.coldInflate > 1 {
			factor = e.coldInflate
			st.coldInflated++
		}
	case q > 1:
		factor = q
		st.inflated++
	}
	if factor == 1 {
		return cv
	}
	if factor > st.maxInflation {
		st.maxInflation = factor
	}
	cv.TFirst = time.Duration(float64(cv.TFirst) * factor)
	cv.TAll = time.Duration(float64(cv.TAll) * factor)
	return cv
}

// costPlanRule costs one plan rule body under the plan-time-known constant
// substitution and runtime-bound variable set of its head.
func (st *costState) costPlanRule(pr *rewrite.PlanRule, known subst, bound map[string]bool, depth int) (domain.CostVector, error) {
	if depth > maxDepth {
		return domain.CostVector{}, fmt.Errorf("estimate: recursion deeper than %d while costing %s", maxDepth, pr.Rule.Head.Pred)
	}
	bound = cloneBound(bound)
	total := domain.CostVector{Card: 1}
	mult := 1.0 // Π Card_j over already-costed literals
	for i, bi := range pr.Order {
		lit := pr.Rule.Body[bi]
		var cv domain.CostVector
		var err error
		switch l := lit.(type) {
		case *lang.InCall:
			cv, err = st.costInCall(l, pr.RouteInOrder(i), known, bound)
			if err != nil {
				return domain.CostVector{}, err
			}
			if l.Out.IsVar() && !bound[l.Out.Var] {
				bound[l.Out.Var] = true
			} else if cv.Card > 1 {
				// Membership test: at most one continuation per probe.
				cv.Card = 1
			}
		case *lang.Atom:
			cv, err = st.costAtom(l, known, bound, depth)
			if err != nil {
				return domain.CostVector{}, err
			}
			for _, t := range l.Args {
				if t.IsVar() && !bound[t.Var] {
					bound[t.Var] = true
				}
			}
		case *lang.Comparison:
			// The paper's estimator ignores a comparison's selectivity.
			cv = domain.CostVector{Card: 1}
			if l.Op == term.OpEQ {
				known = propagateEquality(l, known, bound)
			}
		}
		total.TFirst += cv.TFirst
		total.TAll += time.Duration(mult * float64(cv.TAll))
		mult *= cv.Card
		if mult < 0 {
			mult = 0
		}
	}
	total.Card = mult
	return total, nil
}

func cloneBound(b map[string]bool) map[string]bool {
	out := make(map[string]bool, len(b))
	for k, v := range b {
		if v {
			out[k] = true
		}
	}
	return out
}

// propagateEquality records X = const (either orientation) as a plan-time
// known binding and returns the extended substitution.
func propagateEquality(c *lang.Comparison, known subst, bound map[string]bool) subst {
	bindIfConst := func(v, other term.Term) {
		if !v.IsVar() || bound[v.Var] {
			return
		}
		if other.IsConst() {
			known = known.Bind(v.Var, other.Const)
		} else if other.Var != "" && len(other.Path) == 0 {
			if val, ok := known.Lookup(other.Var); ok {
				known = known.Bind(v.Var, val)
			}
		}
		bound[v.Var] = true
	}
	bindIfConst(c.Left, c.Right)
	bindIfConst(c.Right, c.Left)
	return known
}

// callPattern converts an in() call template into a DCSM pattern: constant
// terms and plan-time-known variables become constants, runtime-bound
// variables become $b.
func callPattern(ct *lang.CallTemplate, known subst) domain.Pattern {
	args := make([]domain.PatternArg, len(ct.Args))
	for i, t := range ct.Args {
		if t.IsConst() {
			args[i] = domain.Const(t.Const)
			continue
		}
		// A path selects from a known record when it resolves; anything
		// else is runtime-bound.
		args[i] = domain.Bound
		if v, ok := known.Lookup(t.Var); ok {
			if v, err := term.Select(v, t.Path); err == nil {
				args[i] = domain.Const(v)
			}
		}
	}
	return domain.Pattern{Domain: ct.Domain, Function: ct.Function, Args: args}
}

// costInCall estimates one in() literal via the DCSM, adjusting for CIM
// routing.
func (st *costState) costInCall(l *lang.InCall, route rewrite.Route, known subst, bound map[string]bool) (domain.CostVector, error) {
	p := callPattern(&l.Call, known)
	actual, err := st.est.db.Cost(p)
	if err != nil {
		// No statistics: assume the default cost. (For CIM-routed calls a
		// cache probe below may still refine hits to their serve cost.)
		actual = defaultCost
		st.defaulted++
	}
	// Calibration inflation applies to the source-call cost only: a CIM
	// exact/equality hit below replaces it with a serve cost, which is a
	// local replay whose price the estimator knows exactly.
	actual = st.inflate(actual, l.Call.Domain, l.Call.Function)
	if route != rewrite.RouteCIM || st.est.cache == nil {
		return actual, nil
	}
	cm := st.est.cache.CostModel()
	// The CIM decision is only precise for fully-known patterns; otherwise
	// assume a miss and charge the lookup overhead.
	call, ground := groundCall(p)
	if !ground {
		actual.TFirst += cm.Lookup
		actual.TAll += cm.Lookup
		return actual, nil
	}
	src, n := st.est.cache.Probe(call)
	serve := func(k int) domain.CostVector {
		return domain.CostVector{
			TFirst: cm.Lookup + cm.PerAnswer,
			TAll:   cm.Lookup + time.Duration(k)*cm.PerAnswer,
			Card:   float64(k),
		}
	}
	switch src {
	case cim.SourceCacheExact, cim.SourceCacheEquality:
		return serve(n), nil
	case cim.SourceCachePartial:
		cached := serve(n)
		ta := cached.TAll + time.Duration(actual.Card)*cm.DedupProbe
		if actual.TAll > ta {
			ta = actual.TAll // parallel actual call dominates
		}
		return domain.CostVector{TFirst: cached.TFirst, TAll: ta, Card: actual.Card}, nil
	default: // miss
		actual.TFirst += cm.Lookup
		actual.TAll += cm.Lookup
		return actual, nil
	}
}

// groundCall converts a fully-known pattern to a ground call.
func groundCall(p domain.Pattern) (domain.Call, bool) {
	args := make([]term.Value, len(p.Args))
	for i, a := range p.Args {
		if !a.Known {
			return domain.Call{}, false
		}
		args[i] = a.Val
	}
	return domain.Call{Domain: p.Domain, Function: p.Function, Args: args}, true
}

// costAtom costs an IDB predicate occurrence: the plan's rules for its
// (pred, adornment) are costed recursively and combined by summing times
// and cardinalities (§7 step 2); the first answer comes from the first
// rule.
func (st *costState) costAtom(a *lang.Atom, known subst, bound map[string]bool, depth int) (domain.CostVector, error) {
	adorn := rewrite.AtomAdornment(a, bound)
	key := rewrite.PredKey{Pred: a.Pred, Adorn: adorn}
	rules, ok := st.plan.Rules[key]
	if !ok || len(rules) == 0 {
		return domain.CostVector{}, fmt.Errorf("estimate: plan has no rules for %s", key)
	}
	if cv, hit := st.memoServeCost(a, adorn, known, bound); hit {
		st.memoHits++
		return cv, nil
	}
	var total domain.CostVector
	for ri, pr := range rules {
		subKnown, subBound := headBindings(a, pr.Rule, known, bound)
		cv, err := st.costPlanRule(pr, subKnown, subBound, depth+1)
		if err != nil {
			return domain.CostVector{}, err
		}
		if ri == 0 {
			total.TFirst = cv.TFirst
		}
		total.TAll += cv.TAll
		total.Card += cv.Card
	}
	return total, nil
}

// memoServeCost prices an IDB subgoal occurrence at its memo replay cost
// when its memo key is currently resident. The key is the plan-time
// mirror of the engine's runtime key: constants and plan-time-known
// variables become bound positions, free variables stay free (the
// engine's α-renaming makes the names irrelevant). A position that is
// runtime-bound but whose value is not known at plan time makes the
// runtime key unknowable, so the subgoal is conservatively priced at
// source cost; likewise attribute-path arguments, which the engine
// refuses to memoize.
func (st *costState) memoServeCost(a *lang.Atom, adorn rewrite.Adornment, known subst, bound map[string]bool) (domain.CostVector, bool) {
	m := st.est.memo
	if m == nil {
		return domain.CostVector{}, false
	}
	args := make([]memo.KeyArg, len(a.Args))
	for i, t := range a.Args {
		switch {
		case t.IsConst():
			args[i] = memo.KeyArg{Bound: true, ValueKey: t.Const.Key()}
		case len(t.Path) > 0:
			return domain.CostVector{}, false
		default:
			if v, ok := known.Lookup(t.Var); ok {
				args[i] = memo.KeyArg{Bound: true, ValueKey: v.Key()}
			} else if bound[t.Var] {
				return domain.CostVector{}, false
			} else {
				args[i] = memo.KeyArg{Var: t.Var}
			}
		}
	}
	key := memo.KeyOf(st.plan.Fingerprint(), a.Pred, string(adorn), args)
	n, ok := m.EstimateServe(key)
	if !ok {
		return domain.CostVector{}, false
	}
	lookup, per := m.LookupCost(), m.PerTupleCost()
	return domain.CostVector{
		TFirst: lookup + per,
		TAll:   lookup + time.Duration(n)*per,
		Card:   float64(n),
	}, true
}

// headBindings unifies an atom occurrence with a rule head at plan time:
// constants (literal or known) flow into head variables; runtime-bound
// arguments mark head variables bound.
func headBindings(a *lang.Atom, r *lang.Rule, known subst, bound map[string]bool) (subst, map[string]bool) {
	subKnown := subst{}
	subBound := map[string]bool{}
	for i, arg := range a.Args {
		if i >= len(r.Head.Args) {
			break
		}
		h := r.Head.Args[i]
		if !h.IsVar() {
			continue
		}
		switch {
		case arg.IsConst():
			subKnown = subKnown.Bind(h.Var, arg.Const)
			subBound[h.Var] = true
		case arg.Var != "" && bound[arg.Var]:
			if v, ok := known.Lookup(arg.Var); ok && len(arg.Path) == 0 {
				subKnown = subKnown.Bind(h.Var, v)
			}
			subBound[h.Var] = true
		}
	}
	return subKnown, subBound
}
