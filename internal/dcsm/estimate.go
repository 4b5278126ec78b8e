package dcsm

import (
	"fmt"
	"sync"
	"sync/atomic"

	"hermes/internal/domain"
	"hermes/internal/term"
)

// Cost estimates the cost vector of a domain call pattern: the module's
// single entry point, DCSM:cost (§6). Resolution order:
//
//  1. A native estimator registered for the domain, if it covers the
//     pattern. Components the native model cannot provide are filled in
//     from cached statistics.
//  2. Summary tables, most specific first: a table whose dimension set
//     equals the pattern's known positions is probed directly; on a miss,
//     known constants are relaxed to $b one at a time, breadth-first, down
//     to the fully-general single-row table (§6.3).
//  3. When AllowRawAggregation is set, levels without a matching summary
//     table are answered from the raw cost vector database instead: the
//     average over the matching records, read off the function's index for
//     that dimension set (created the first time a level asks for it).
//
// An estimate allocates nothing and formats nothing, whether a table or an
// index answers it and however much history the function has;
// TestCostAllocsFlat holds it to that.
//
// Cost is the planner's read: it moves hermes_dcsm_estimates_total and the
// access counters AutoTune reads. A read that only displays or prices a
// number uses Peek.
func (db *DB) Cost(p domain.Pattern) (domain.CostVector, error) {
	return db.cost(p, nil, true)
}

// Peek is Cost for a read that only displays or prices a number: EXPLAIN's
// per-call estimate, the CIM ledger's avoided cost and calibration grading.
// It takes the ground call itself, resolves in the same order and returns
// the same vector as Cost(domain.PatternOf(c)), but counts nothing, so
// whether anyone watches never changes which summary tables AutoTune
// keeps. The statistics are searched with c.Args as they are; a pattern is
// built only for a domain with a native estimator, which takes one, and
// its arguments are a recycled slice (the estimator may not retain them),
// so a Peek allocates nothing in the steady state. ok is false where Cost
// returns ErrNoStatistics.
func (db *DB) Peek(c domain.Call) (cv domain.CostVector, ok bool) {
	if db.estimator(c.Domain) != nil {
		buf := patternArgs.Get().(*[]domain.PatternArg)
		args := (*buf)[:0]
		for _, v := range c.Args {
			args = append(args, domain.Const(v))
		}
		cv, err := db.cost(domain.Pattern{Domain: c.Domain, Function: c.Function, Args: args}, nil, false)
		clear(args)
		*buf = args
		patternArgs.Put(buf)
		return cv, err == nil
	}
	return db.costFromStats(target{keyOf(c), c.Args, groundMask(len(c.Args))}, nil, false)
}

// patternArgs recycles the argument slices Peek builds a native
// estimator's pattern in.
var patternArgs = sync.Pool{New: func() any { return new([]domain.PatternArg) }}

// CostWithTrace is Cost plus a human-readable trace of the lookup path.
// It renders the lines TestPaperSection63RelaxationOrder pins against the
// paper's §6.3 walk-through and examples/logistics prints; Cost itself
// formats nothing.
func (db *DB) CostWithTrace(p domain.Pattern) (domain.CostVector, []string, error) {
	trace := &lookupTrace{p: p}
	cv, err := db.cost(p, trace, true)
	return cv, trace.lines, err
}

// lookupTrace collects the lines of a traced lookup, rendering each search
// level from the pattern being estimated.
type lookupTrace struct {
	p     domain.Pattern
	lines []string
}

func (t *lookupTrace) add(format string, args ...any) {
	t.lines = append(t.lines, fmt.Sprintf(format, args...))
}

// estimator returns the native cost model registered for a domain, or nil.
func (db *DB) estimator(dom string) domain.Estimator {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.estimators[dom]
}

// cost resolves an estimate, appending the lookup path to trace when one
// is asked for, and tallies it when count is set.
func (db *DB) cost(p domain.Pattern, trace *lookupTrace, count bool) (domain.CostVector, error) {
	var buf [8]term.Value
	q := target{k: funcKey{p.Domain, p.Function, len(p.Args)}, vals: buf[:0], full: p.Mask()}
	for _, a := range p.Args {
		q.vals = append(q.vals, a.Val)
	}
	if est := db.estimator(p.Domain); est != nil {
		if cv, missing, ok := est.EstimateCost(p); ok {
			db.tally(count, estimateNative, nil)
			if trace != nil {
				trace.add("native estimator for %s: %s", p.Domain, cv)
			}
			if len(missing) == 0 {
				return cv, nil
			}
			if statCV, ok := db.costFromStats(q, trace, count); ok {
				for _, field := range missing {
					switch field {
					case "tf":
						cv.TFirst = statCV.TFirst
					case "ta":
						cv.TAll = statCV.TAll
					case "card":
						cv.Card = statCV.Card
					}
				}
			}
			return cv, nil
		}
		if trace != nil {
			trace.add("native estimator for %s declined pattern", p.Domain)
		}
	}
	if cv, ok := db.costFromStats(q, trace, count); ok {
		return cv, nil
	}
	return domain.CostVector{}, fmt.Errorf("%w: %s", ErrNoStatistics, p)
}

// target is what a statistics search looks for: a function and argument
// values, of which only the known positions full are read. A pattern's
// values are copied out of it (nil at $b); a ground call's are its Args,
// every position known.
type target struct {
	k    funcKey
	vals []term.Value
	full uint64
}

// groundMask is the known-position mask of a ground call of the arity:
// every position a mask can name, as domain.PatternOf(c).Mask() has it.
func groundMask(arity int) uint64 {
	if arity >= maxDims {
		return ^uint64(0)
	}
	return 1<<uint(arity) - 1
}

// tally records where a counted estimate was resolved and, for one a
// summary table or the raw database served, bumps the access counter
// AutoTune reads (served; nil otherwise).
func (db *DB) tally(count bool, source int, served *atomic.Int64) {
	if !count {
		return
	}
	db.estimates[source].Inc()
	if served != nil {
		served.Add(1)
	}
}

// costFromStats runs the relaxation search for q under the read lock.
// Only when it reaches a level whose index does not exist yet (the first
// estimate to ask for that mask, or the first after the records moved)
// does it start over under the write lock, which may build indexes as it
// goes. ok is false when no level has statistics.
func (db *DB) costFromStats(q target, trace *lookupTrace, count bool) (cv domain.CostVector, ok bool) {
	traced := 0
	if trace != nil {
		traced = len(trace.lines)
	}
	db.mu.RLock()
	cv, ok, done := db.search(&q, trace, false, count)
	db.mu.RUnlock()
	if done {
		return cv, ok
	}
	if trace != nil {
		trace.lines = trace.lines[:traced]
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	cv, ok, _ = db.search(&q, trace, true, count)
	return cv, ok
}

// search is the breadth-first relaxation of §6.3 over dimension masks:
// q's own known positions first, then every way of relaxing one
// constant to $b, then two, down to the fully-general level. At each level
// a summary table with exactly those dimensions is probed if one exists;
// otherwise, with AllowRawAggregation, the raw database's index for the
// mask is. ok reports that a level had statistics. done=false means an
// index was missing and build was not set; nothing has been counted and
// the caller retries.
func (db *DB) search(q *target, trace *lookupTrace, build, count bool) (cv domain.CostVector, ok, done bool) {
	g := db.view(q.k)
	full, vals := q.full, q.vals
	var (
		hashBuf [8]uint64
		maskBuf [16]uint64
	)
	argHashes := hashArgs(hashBuf[:0], vals)

	queue := append(maskBuf[:0], full)
	for head := 0; head < len(queue); head++ {
		mask := queue[head]
		if t := g.tables[mask]; t != nil {
			if row, _ := t.find(hashTuple(mask, argHashes), vals); row >= 0 {
				r := &t.rows[row]
				if cv, valid := r.vector(); valid {
					db.tally(count, estimateSummary, &t.hits)
					if trace != nil {
						trace.add("summary table %s hit for %s (l=%d)", dimsKey(t.Dims), relaxTo(trace.p, mask), r.L)
					}
					return cv, true, true
				}
			}
			if trace != nil {
				trace.add("summary table %s: no row for %s", dimsKey(t.Dims), relaxTo(trace.p, mask))
			}
		} else if db.cfg.AllowRawAggregation && len(g.recs) > 0 {
			ix, built := g.index(mask, build, db.cfg.RecencyHalfLife > 0)
			if !built {
				return domain.CostVector{}, false, false
			}
			if cv, hit := db.probe(g, ix, vals, argHashes); hit {
				db.tally(count, estimateRaw, &ix.serves)
				if trace != nil {
					trace.add("raw aggregation over cost vector database for %s", relaxTo(trace.p, mask))
				}
				return cv, true, true
			}
			if trace != nil {
				trace.add("raw database: no records match %s", relaxTo(trace.p, mask))
			}
		} else if trace != nil {
			trace.add("no table with dims %s for %s", dimsKey(maskDims(mask)), relaxTo(trace.p, mask))
		}
		// Relax one known constant at a time (nondeterministic choice in the
		// paper; breadth-first here, so more specific levels win), lowest
		// position first. A mask is reachable by relaxing its missing
		// positions in any order; enqueueing it only from the parent that
		// relaxes them in ascending order — so only positions above every
		// one already relaxed — visits each mask once, at the place a
		// visited-set would have kept.
		relaxed := full &^ mask
		for rest := mask; rest != 0; rest &= rest - 1 {
			if bit := rest & -rest; bit > relaxed {
				queue = append(queue, mask&^bit)
			}
		}
	}
	db.tally(count, estimateNone, nil)
	return domain.CostVector{}, false, true
}

// relaxTo renders the pattern a search level stands for: p with every
// position outside the mask generalized to $b. Trace-only.
func relaxTo(p domain.Pattern, mask uint64) domain.Pattern {
	q := domain.Pattern{Domain: p.Domain, Function: p.Function, Args: make([]domain.PatternArg, len(p.Args))}
	for i, a := range p.Args {
		if a.Known && mask&(1<<uint(i)) != 0 {
			q.Args[i] = a
		}
	}
	return q
}
