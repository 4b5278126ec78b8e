package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"hermes/internal/core"
	"hermes/internal/dcsm"
	"hermes/internal/estimate"
	"hermes/internal/netsim"
	"hermes/internal/workload"
)

// OptQualityRow is one random query of the optimizer-quality study: the
// actual all-answers time of the plan the optimizer chose, against the
// best and worst plan in its candidate set.
type OptQualityRow struct {
	Query  string
	Plans  int
	Chosen time.Duration
	Best   time.Duration
	Worst  time.Duration
	// Regret is Chosen/Best - 1 (0 = optimal).
	Regret float64
}

// OptimizerQuality extends §8 quantitatively: over random join queries on
// a randomized federation, run every candidate plan and measure how close
// the statistics-driven choice comes to the true optimum.
func OptimizerQuality(n int) ([]OptQualityRow, error) {
	store, rel := workload.Federation(workload.DefaultFederation())
	sys := core.NewSystem(paperProfile(core.Options{DisableCIM: true}))
	sys.Register(netsim.Wrap(store, SiteUSA))
	sys.Register(rel)
	if err := sys.LoadProgram(`
		objs(V, F, L, O) :- in(O, avis:frames_to_objects(V, F, L)).
		entry(T, K, V) :- in(P, rel:all(T)), =(P.k, K), =(P.v, V).
	`); err != nil {
		return nil, err
	}
	// Train statistics on a representative sample.
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 25; i++ {
		v := fmt.Sprintf("video%02d", rng.Intn(4))
		f := rng.Intn(120)
		q := fmt.Sprintf("?- objs('%s', %d, %d, O).", v, f, f+10+rng.Intn(60))
		if _, _, err := sys.QueryAll(q); err != nil {
			return nil, err
		}
	}
	for i := 0; i < 3; i++ {
		if _, _, err := sys.QueryAll(fmt.Sprintf("?- entry('table%02d', K, V).", i)); err != nil {
			return nil, err
		}
	}
	statsDB := dcsm.New(dcsm.DefaultConfig(), sys.Clock.Now)
	if err := copyStats(sys.DCSM, statsDB); err != nil {
		return nil, err
	}
	est := estimate.New(statsDB, nil)

	var rows []OptQualityRow
	for i := 0; i < n; i++ {
		v := fmt.Sprintf("video%02d", rng.Intn(4))
		tbl := fmt.Sprintf("table%02d", rng.Intn(3))
		f := rng.Intn(100)
		q := fmt.Sprintf("?- objs('%s', %d, %d, O) & entry('%s', K, Val) & Val > %d.",
			v, f, f+10+rng.Intn(50), tbl, 300+rng.Intn(600))
		plans, err := sys.Plans(q)
		if err != nil {
			return nil, err
		}
		chosenPlan, _, _, err := est.Best(plans, false)
		if err != nil {
			return nil, err
		}
		row := OptQualityRow{Query: q, Plans: len(plans)}
		best := time.Duration(1<<62 - 1)
		worst := time.Duration(0)
		for _, p := range plans {
			_, m, err := runPlan(sys, p)
			if err != nil {
				return nil, err
			}
			if m.TAll < best {
				best = m.TAll
			}
			if m.TAll > worst {
				worst = m.TAll
			}
			if p == chosenPlan {
				row.Chosen = m.TAll
			}
		}
		row.Best, row.Worst = best, worst
		if best > 0 {
			row.Regret = float64(row.Chosen)/float64(best) - 1
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatOptimizerQuality renders the study with a summary line.
func FormatOptimizerQuality(rows []OptQualityRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %6s %10s %10s %10s %9s\n", "q#", "plans", "chosen", "best", "worst", "regret")
	var sumRegret float64
	optimal := 0
	for i, r := range rows {
		fmt.Fprintf(&b, "%-4d %6d %8dms %8dms %8dms %8.1f%%\n",
			i+1, r.Plans, r.Chosen.Milliseconds(), r.Best.Milliseconds(),
			r.Worst.Milliseconds(), r.Regret*100)
		sumRegret += r.Regret
		if r.Regret < 0.01 {
			optimal++
		}
	}
	if len(rows) > 0 {
		fmt.Fprintf(&b, "chose the optimal plan %d/%d times; mean regret %.1f%%\n",
			optimal, len(rows), sumRegret/float64(len(rows))*100)
	}
	return b.String()
}
