package dcsm

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"hermes/internal/domain"
	"hermes/internal/obs"
	"hermes/internal/term"
)

// TestLosslessPropertyRandomized: for randomly generated statistics, the
// lossless summary gives exactly the same estimate as the raw cost vector
// database for every fully-known pattern that has records — the defining
// property of §6.2.1, beyond the paper's worked example. Exactly means ==:
// a table row is the same fold as an index row, divided once.
func TestLosslessPropertyRandomized(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		raw := New(DefaultConfig(), nil)
		nArgs := 1 + rng.Intn(3)
		var calls []domain.Call
		for i := 0; i < 30; i++ {
			args := make([]term.Value, nArgs)
			for a := range args {
				args[a] = term.Int(int64(rng.Intn(4))) // few distinct values: collisions guaranteed
			}
			c := domain.Call{Domain: "d", Function: "f", Args: args}
			calls = append(calls, c)
			raw.Observe(domain.Measurement{
				Call: c,
				Cost: domain.CostVector{
					TFirst: time.Duration(rng.Intn(1000)) * time.Millisecond,
					TAll:   time.Duration(1000+rng.Intn(5000)) * time.Millisecond,
					Card:   float64(rng.Intn(50)),
				},
				Complete: rng.Intn(4) != 0, // some incomplete records
			})
		}
		// Build the summarized twin and drop its raw detail.
		sum := New(Config{AllowRawAggregation: false}, nil)
		replay(raw, sum, nArgs)
		if _, err := sum.SummarizeLossless("d", "f", nArgs); err != nil {
			t.Fatal(err)
		}
		sum.DropDetail("d", "f", nArgs)

		for _, c := range calls {
			p := domain.PatternOf(c)
			cvRaw, errRaw := raw.Cost(p)
			cvSum, errSum := sum.Cost(p)
			if errRaw != nil || errSum != nil {
				t.Fatalf("trial %d %s: errors %v / %v", trial, p, errRaw, errSum)
			}
			if cvRaw != cvSum {
				t.Fatalf("trial %d %s: raw %v != summarized %v", trial, p, cvRaw, cvSum)
			}
		}
	}
}

func replay(src, dst *DB, arity int) {
	for _, rec := range src.Records("d", "f", arity) {
		dst.observeRecord(rec)
	}
}

// TestRelaxationAlwaysTerminates: estimation over random patterns and
// random table configurations never loops and either answers or reports
// ErrNoStatistics.
func TestRelaxationAlwaysTerminates(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		db := New(Config{AllowRawAggregation: rng.Intn(2) == 0}, nil)
		arity := 1 + rng.Intn(4)
		for i := 0; i < rng.Intn(20); i++ {
			args := make([]term.Value, arity)
			for a := range args {
				args[a] = term.Int(int64(rng.Intn(3)))
			}
			db.Observe(domain.Measurement{
				Call:     domain.Call{Domain: "d", Function: "f", Args: args},
				Cost:     domain.CostVector{TAll: time.Second, Card: 1},
				Complete: true,
			})
		}
		// Random subset of summary tables.
		for k := 0; k < rng.Intn(4); k++ {
			var dims []int
			for d := 0; d < arity; d++ {
				if rng.Intn(2) == 0 {
					dims = append(dims, d)
				}
			}
			if _, err := db.Summarize("d", "f", arity, dims); err != nil {
				t.Fatal(err)
			}
		}
		// Random pattern.
		args := make([]domain.PatternArg, arity)
		for a := range args {
			if rng.Intn(2) == 0 {
				args[a] = domain.Const(term.Int(int64(rng.Intn(3))))
			} else {
				args[a] = domain.Bound
			}
		}
		_, err := db.Cost(domain.Pattern{Domain: "d", Function: "f", Args: args})
		if err != nil && db.Storage().RawRecords > 0 && db.cfg.AllowRawAggregation {
			// With raw fallback and records present, the fully-relaxed
			// pattern always aggregates something.
			t.Fatalf("trial %d: unexpected failure: %v", trial, err)
		}
	}
}

// TestSummaryStringStable: rendering is deterministic (rows sorted by
// dimension keys).
func TestSummaryStringStable(t *testing.T) {
	db := New(DefaultConfig(), nil)
	for i := 0; i < 10; i++ {
		db.Observe(domain.Measurement{
			Call:     domain.Call{Domain: "d", Function: "f", Args: []term.Value{term.Int(int64(9 - i))}},
			Cost:     domain.CostVector{TAll: time.Second, Card: 1},
			Complete: true,
		})
	}
	t1, err := db.SummarizeLossless("d", "f", 1)
	if err != nil {
		t.Fatal(err)
	}
	s1 := t1.String()
	t2, _ := db.SummarizeLossless("d", "f", 1)
	if s1 != t2.String() {
		t.Error("table rendering unstable")
	}
	// Observed 9 down to 0, listed 0 up to 9.
	rows := t1.Rows()
	if len(rows) != 10 {
		t.Fatalf("%d rows, want 10", len(rows))
	}
	for i, r := range rows {
		if len(r.DimVals) != 1 || !term.Equal(r.DimVals[0], term.Int(int64(i))) {
			t.Errorf("row %d holds %v, want [%d]", i, r.DimVals, i)
		}
	}
}

// stepEstimator is a native cost model whose answer turns on the first
// argument: a whole estimate, one missing Ta and Card (filled from the
// statistics), or none.
type stepEstimator struct{}

func (stepEstimator) EstimateCost(p domain.Pattern) (domain.CostVector, []string, bool) {
	n, _ := p.Args[0].Val.(term.Int)
	switch n % 3 {
	case 0:
		return domain.CostVector{TFirst: time.Millisecond, TAll: 7 * time.Millisecond, Card: 2}, nil, true
	case 1:
		return domain.CostVector{TFirst: 3 * time.Millisecond}, []string{"ta", "card"}, true
	}
	return domain.CostVector{}, nil, false
}

// TestPeekEqualsCostOfPattern: for generated ground calls, Peek(c) returns
// exactly what Cost(domain.PatternOf(c)) returns, and moves no counter.
// The trials cover a domain with a native estimator (whole, partial and
// declined estimates) and one without, with and without summary tables,
// raw aggregation and recency weighting, and calls with no statistics at
// all: an unseen argument tuple, an unseen arity, an unseen domain.
func TestPeekEqualsCostOfPattern(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(2000 + trial)))
		cfg := Config{AllowRawAggregation: rng.Intn(3) != 0}
		if rng.Intn(3) == 0 {
			cfg.RecencyHalfLife = time.Second
		}
		var now time.Duration
		db := New(cfg, func() time.Duration { return now })
		o := obs.NewObserver()
		db.SetObserver(o)
		db.RegisterEstimator("n", stepEstimator{})
		arity := 1 + rng.Intn(3)
		ground := func(dom string, arity int) domain.Call {
			args := make([]term.Value, arity)
			for a := range args {
				args[a] = term.Int(int64(rng.Intn(4)))
			}
			return domain.Call{Domain: dom, Function: "f", Args: args}
		}
		for i := 0; i < rng.Intn(40); i++ {
			now += time.Duration(rng.Intn(500)) * time.Millisecond
			db.Observe(domain.Measurement{
				Call: ground([]string{"d", "n"}[rng.Intn(2)], arity),
				Cost: domain.CostVector{
					TFirst: time.Duration(rng.Intn(1000)) * time.Millisecond,
					TAll:   time.Duration(1000+rng.Intn(5000)) * time.Millisecond,
					Card:   float64(rng.Intn(50)),
				},
				Complete: rng.Intn(4) != 0,
			})
		}
		for _, dom := range []string{"d", "n"} {
			for k := 0; k < rng.Intn(3); k++ {
				var dims []int
				for d := 0; d < arity; d++ {
					if rng.Intn(2) == 0 {
						dims = append(dims, d)
					}
				}
				if _, err := db.Summarize(dom, "f", arity, dims); err != nil {
					t.Fatal(err)
				}
			}
		}
		counters := func() string {
			var estimates [len(estimateSources)]int64
			for i, source := range estimateSources {
				estimates[i] = o.Counter("hermes_dcsm_estimates_total", "source", source).Value()
			}
			return fmt.Sprint(db.TableHits(), db.RawAggregations(), estimates)
		}
		for i := 0; i < 30; i++ {
			dom, n := []string{"d", "n", "e"}[rng.Intn(3)], arity
			if rng.Intn(6) == 0 {
				n++ // an arity no statistics were kept for
			}
			c := ground(dom, n)
			before := counters()
			peeked, ok := db.Peek(c)
			if after := counters(); after != before {
				t.Fatalf("trial %d: Peek(%s) moved the counters: %s -> %s", trial, c, before, after)
			}
			cv, err := db.Cost(domain.PatternOf(c))
			if ok != (err == nil) || peeked != cv {
				t.Fatalf("trial %d %s: Peek = %v, %v; Cost = %v, %v", trial, c, peeked, ok, cv, err)
			}
		}
	}
}
