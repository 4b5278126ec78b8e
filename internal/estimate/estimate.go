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
// It costs the plan the engine runs: each candidate's slot program
// (rewrite.Program), compiled once per query shape, walked level by level
// in execution order. What is bound at a level is what the compiler
// numbered before it; the plan-time-known constants (the query's, those
// X = const assigns, and those head unification carries into a callee
// through its compiled head slots: the pattern d1:p_bf(a)) sit in a
// scratch frame, and values bound only at run time become $b. Calls
// routed through the CIM are costed against the cache's current contents
// (exact/equality hits cost a cache serve; partial hits overlap the actual
// call; misses add the lookup overhead), and an IDB subgoal whose memo key
// (memo.AppendKey, the engine's own) is resident costs its replay.
package estimate

import (
	"fmt"
	"sync"
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
// estimator, so that planning can proceed on cold systems; CostDetail
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
// mode, with the accounting of how it was put together.
func (e *Estimator) PlanCost(p *rewrite.Plan) (domain.CostVector, CostDetail, error) {
	st := e.scratch()
	defer st.release()
	return st.cost(p)
}

// Best ranks plans by estimated all-answers time and returns the winner
// with its cost and CostDetail. byFirstAnswer ranks by time-to-first-answer
// instead (interactive mode). When calibration inflation is enabled the
// ranking minimizes the *inflated* cost, i.e. the worst-plausible-case
// cost under the observed q-error tail, which makes the choice robust
// exactly when the numbers are rough.
func (e *Estimator) Best(plans []*rewrite.Plan, byFirstAnswer bool) (*rewrite.Plan, domain.CostVector, CostDetail, error) {
	if len(plans) == 0 {
		return nil, domain.CostVector{}, CostDetail{}, fmt.Errorf("estimate: no plans to rank")
	}
	st := e.scratch() // one scratch for the whole ranking
	defer st.release()
	var best *rewrite.Plan
	var bestCV domain.CostVector
	var bestD CostDetail
	for _, p := range plans {
		cv, d, err := st.cost(p)
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

// costState costs plans over their compiled programs (rewrite.Program),
// the ones the engine runs, keeping the accounting of the plan being
// costed and scratch that one ranking reuses from plan to plan.
type costState struct {
	est  *Estimator
	prog *rewrite.Program
	d    CostDetail
	// known holds the plan-time-known values of each rule activation
	// being costed, a window of its frame's size apiece, innermost last:
	// the query's constants, what X = const assigns and what head
	// unification carries into a callee; nil where a variable is unbound
	// or bound only at run time.
	known []term.Value
	// Reused buffers: a call's DCSM pattern and ground arguments, and an
	// occurrence's memo key and the values it is built from.
	pattern []domain.PatternArg
	args    []term.Value
	in      []term.Value
	key     []byte
}

// scratches recycles costStates, so that a ranking's buffers are grown
// once and a warm ranking allocates none.
var scratches = sync.Pool{New: func() any { return new(costState) }}

func (e *Estimator) scratch() *costState {
	st := scratches.Get().(*costState)
	st.est = e
	return st
}

// release returns the scratch to the pool, holding no values.
func (st *costState) release() {
	clear(st.known[:cap(st.known)])
	clear(st.pattern[:cap(st.pattern)])
	clear(st.args[:cap(st.args)])
	clear(st.in[:cap(st.in)])
	st.est, st.prog = nil, nil
	scratches.Put(st)
}

// cost costs one plan, starting from its query's constants.
func (st *costState) cost(p *rewrite.Plan) (domain.CostVector, CostDetail, error) {
	st.prog, st.d = p.Program(), CostDetail{MaxInflation: 1}
	st.known = st.prog.AppendFrame(st.known[:0], p.Query.Rule.Body)
	cv, err := st.rule(st.prog.Query, 0, 0)
	return cv, st.d, err
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
			st.d.ColdInflated++
		}
	case q > 1:
		factor = q
		st.d.Inflated++
	}
	if factor == 1 {
		return cv
	}
	if factor > st.d.MaxInflation {
		st.d.MaxInflation = factor
	}
	cv.TFirst = time.Duration(float64(cv.TFirst) * factor)
	cv.TAll = time.Duration(float64(cv.TAll) * factor)
	return cv
}

// rule costs a compiled rule body, §7's fold over its levels in
// execution order; base is where its activation's window of known values
// starts. A level binds exactly the positions [Lo, Hi) the compiler gave
// it, so what is bound before it needs no bookkeeping here.
func (st *costState) rule(rc *rewrite.RuleCode, base, depth int) (domain.CostVector, error) {
	total := domain.CostVector{Card: 1}
	mult := 1.0 // Π Card_j over already-costed literals
	for i := range rc.Lits {
		lc := &rc.Lits[i]
		// The paper's estimator ignores a comparison's selectivity.
		cv := domain.CostVector{Card: 1}
		var err error
		switch lc.Op {
		case rewrite.OpAssign:
			st.known[base+lc.Args[0].Pos] = st.value(base, lc.Args[1])
		case rewrite.OpMember, rewrite.OpBind:
			cv, err = st.inCall(lc, base)
			if lc.Op == rewrite.OpMember && cv.Card > 1 {
				// Membership test: at most one continuation per probe.
				cv.Card = 1
			}
		case rewrite.OpAtom:
			cv, err = st.atom(lc, base, depth)
		}
		if err != nil {
			return domain.CostVector{}, err
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

// value is a term's plan-time value in the activation at base: a constant,
// or a bare variable's known value. It is nil for a variable bound only at
// run time and for an attribute path, which is then not selected from a
// known record.
func (st *costState) value(base int, s term.Slot) term.Value {
	if s.Term.IsConst() {
		return s.Term.Const
	}
	if !s.Term.IsVar() {
		return nil
	}
	return st.known[base+s.Pos]
}

// inCall estimates one in() literal via the DCSM, adjusting for CIM
// routing.
func (st *costState) inCall(lc *rewrite.LitCode, base int) (domain.CostVector, error) {
	p := st.callPattern(lc, base)
	actual, err := st.est.db.Cost(p)
	if err != nil {
		// No statistics: assume the default cost. (For CIM-routed calls a
		// cache probe below may still refine hits to their serve cost.)
		actual = defaultCost
		st.d.Defaulted++
	}
	// Calibration inflation applies to the source-call cost only: a CIM
	// exact/equality hit below replaces it with a serve cost, which is a
	// local replay whose price the estimator knows exactly.
	actual = st.inflate(actual, p.Domain, p.Function)
	if lc.Route != rewrite.RouteCIM || st.est.cache == nil {
		return actual, nil
	}
	cm := st.est.cache.CostModel()
	// The CIM decision is only precise for fully-known patterns; otherwise
	// assume a miss and charge the lookup overhead.
	ground := true
	st.args = st.args[:0]
	for _, a := range p.Args {
		st.args, ground = append(st.args, a.Val), ground && a.Known
	}
	if !ground {
		actual.TFirst += cm.Lookup
		actual.TAll += cm.Lookup
		return actual, nil
	}
	src, n := st.est.cache.Probe(domain.Call{Domain: p.Domain, Function: p.Function, Args: st.args})
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

// callPattern builds an in() literal's DCSM pattern in a reused buffer: a
// constant where an argument is one, names a plan-time-known variable, or
// selects a path that resolves from a known record, and $b anywhere else.
func (st *costState) callPattern(lc *rewrite.LitCode, base int) domain.Pattern {
	ct := &lc.Lit.(*lang.InCall).Call
	st.pattern = st.pattern[:0]
	for _, s := range lc.Args[1:] {
		arg := domain.Bound
		if s.Term.IsConst() {
			arg = domain.Const(s.Term.Const)
		} else if v := st.known[base+s.Pos]; v != nil {
			if v, err := term.Select(v, s.Term.Path); err == nil {
				arg = domain.Const(v)
			}
		}
		st.pattern = append(st.pattern, arg)
	}
	return domain.Pattern{Domain: ct.Domain, Function: ct.Function, Args: st.pattern}
}

// atom costs an IDB predicate occurrence: the plan's rules for its
// (pred, adornment) are costed recursively and combined by summing times
// and cardinalities (§7 step 2); the first answer comes from the first
// rule. Each rule is entered as the engine enters it: the caller's
// plan-time values flow through the rule's compiled head slots.
func (st *costState) atom(lc *rewrite.LitCode, base, depth int) (domain.CostVector, error) {
	rules, err := st.prog.Rules(lc)
	if err != nil {
		return domain.CostVector{}, err
	}
	if cv, hit := st.memoServeCost(lc, base); hit {
		st.d.MemoHits++
		return cv, nil
	}
	if depth >= maxDepth {
		return domain.CostVector{}, fmt.Errorf("estimate: recursion deeper than %d while costing %s", maxDepth, lc.Key.Pred)
	}
	var total domain.CostVector
	for ri, rc := range rules {
		cb := len(st.known)
		st.known = append(st.known, make([]term.Value, len(rc.Vars))...)
		for i, h := range rc.Head {
			if v := st.value(base, lc.Args[i]); v != nil && h.Term.IsVar() {
				st.known[cb+h.Pos] = v
			}
		}
		cv, err := st.rule(rc, cb, depth+1)
		st.known = st.known[:cb]
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
// when its memo key is currently resident. The key is the engine's own
// (memo.AppendKey over the occurrence's slots), built from the plan-time
// values: a bound position whose value is not known at plan time makes
// the runtime key unknowable, so the subgoal is conservatively priced at
// source cost; likewise an attribute-path argument.
func (st *costState) memoServeCost(lc *rewrite.LitCode, base int) (domain.CostVector, bool) {
	m := st.est.memo
	if m == nil {
		return domain.CostVector{}, false
	}
	st.in = st.in[:0]
	for _, s := range lc.Args {
		st.in = append(st.in, st.value(base, s))
	}
	key, ok := memo.AppendKey(st.key[:0], st.prog.Plan.Fingerprint(), lc.Key.Pred, string(lc.Key.Adorn), lc.Args, st.in)
	st.key = key
	if !ok {
		return domain.CostVector{}, false
	}
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
