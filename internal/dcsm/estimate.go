package dcsm

import (
	"fmt"

	"hermes/internal/domain"
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
//     table aggregate the raw cost vector database instead (the expensive
//     average the summaries exist to avoid).
func (db *DB) Cost(p domain.Pattern) (domain.CostVector, error) {
	cv, _, err := db.CostWithTrace(p)
	return cv, err
}

// CostWithTrace is Cost plus a human-readable trace of the lookup path,
// used by tests reproducing the paper's §6.3 example and by the CLI's
// explain mode.
func (db *DB) CostWithTrace(p domain.Pattern) (domain.CostVector, []string, error) {
	var trace []string
	db.mu.RLock()
	est, hasEst := db.estimators[p.Domain]
	db.mu.RUnlock()
	if hasEst {
		if cv, missing, ok := est.EstimateCost(p); ok {
			db.estimates[estimateNative].Inc()
			trace = append(trace, fmt.Sprintf("native estimator for %s: %s", p.Domain, cv))
			if len(missing) == 0 {
				return cv, trace, nil
			}
			if statCV, statTrace, err := db.costFromStats(p); err == nil {
				trace = append(trace, statTrace...)
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
			return cv, trace, nil
		}
		trace = append(trace, fmt.Sprintf("native estimator for %s declined pattern", p.Domain))
	}
	cv, statTrace, err := db.costFromStats(p)
	trace = append(trace, statTrace...)
	return cv, trace, err
}

// knownPositions returns the ascending positions of known constants.
func knownPositions(p domain.Pattern) []int {
	var out []int
	for i, a := range p.Args {
		if a.Known {
			out = append(out, i)
		}
	}
	return out
}

// rowVector converts a summary row to a cost vector, applying the same
// conservative gap-filling as raw aggregation.
func rowVector(r *SummaryRow) (domain.CostVector, bool) {
	if r.wTf == 0 && r.wTa == 0 && r.wCard == 0 {
		return domain.CostVector{}, false
	}
	cv := domain.CostVector{TFirst: r.AvgTf, TAll: r.AvgTa, Card: r.AvgCard}
	if r.wTa == 0 {
		cv.TAll = cv.TFirst
	}
	if r.wCard == 0 {
		cv.Card = 1
	}
	return cv, true
}

// costFromStats runs the breadth-first relaxation search over summary
// tables and (optionally) the raw database.
func (db *DB) costFromStats(p domain.Pattern) (domain.CostVector, []string, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var trace []string
	arity := len(p.Args)
	gk := groupKey(p.Domain, p.Function, arity)
	recs := db.records[gk]

	queue := []domain.Pattern{p}
	visited := map[uint64]bool{p.Mask(): true}
	for len(queue) > 0 {
		q := queue[0]
		queue = queue[1:]
		dims := knownPositions(q)
		tk := tableKey(p.Domain, p.Function, arity, dims)
		if t, ok := db.summaries[tk]; ok {
			if row, hit := t.lookupRow(q); hit {
				if cv, valid := rowVector(row); valid {
					db.access.noteTableHit(tk)
					db.estimates[estimateSummary].Inc()
					trace = append(trace, fmt.Sprintf("summary table %s hit for %s (l=%d)", dimsKey(dims), q, row.L))
					return cv, trace, nil
				}
			}
			trace = append(trace, fmt.Sprintf("summary table %s: no row for %s", dimsKey(dims), q))
		} else if db.cfg.AllowRawAggregation && len(recs) > 0 {
			if cv, ok := db.aggregate(recs, func(r Record) bool { return matchPattern(q, r.Call) }); ok {
				db.access.noteRawServe(tk, p.Domain, p.Function, arity, dims)
				db.estimates[estimateRaw].Inc()
				trace = append(trace, fmt.Sprintf("raw aggregation over cost vector database for %s", q))
				return cv, trace, nil
			}
			trace = append(trace, fmt.Sprintf("raw database: no records match %s", q))
		} else {
			trace = append(trace, fmt.Sprintf("no table with dims %s for %s", dimsKey(dims), q))
		}
		// Relax one known constant at a time (nondeterministic choice in the
		// paper; breadth-first here, so more specific levels win).
		for _, d := range dims {
			r := q.Relax(d)
			if m := r.Mask(); !visited[m] {
				visited[m] = true
				queue = append(queue, r)
			}
		}
	}
	db.estimates[estimateNone].Inc()
	return domain.CostVector{}, trace, fmt.Errorf("%w: %s", ErrNoStatistics, p)
}
