package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hermes/internal/core"
	"hermes/internal/engine"
	"hermes/internal/obs"
)

// clients is the closed loop's width: each client sends its next query only
// when the previous one has fully answered, as a mediator's callers do. Two
// matches the two cores the benchmark is sized for.
const clients = 2

// answerSet is a query's answer multiset, reduced to what comparing needs:
// the count and an order-independent hash (the sum of per-answer hashes).
type answerSet struct {
	count int
	hash  uint64
}

// add folds one rendered answer in, hashing it with FNV-1a in place so the
// check allocates nothing inside the timed section.
func (s *answerSet) add(answer string) {
	h := uint64(14695981039346656037)
	for i := 0; i < len(answer); i++ {
		h = (h ^ uint64(answer[i])) * 1099511628211
	}
	s.count++
	s.hash += h
}

// drain pulls every answer off the cursor, rendering each as the /query
// handler does, and reports how long after t0 the first Next returned.
func drain(cur *engine.Cursor, t0 time.Time) (got answerSet, first time.Duration, err error) {
	for n := 0; ; n++ {
		a, ok, err := cur.Next()
		if n == 0 {
			first = time.Since(t0)
		}
		if err != nil || !ok {
			return got, first, err
		}
		got.add(a.String())
	}
}

// oracle evaluates every distinct query once on the naive system.
func oracle(queries ...[]string) (map[string]answerSet, error) {
	sys, err := newOracle()
	if err != nil {
		return nil, err
	}
	want := map[string]answerSet{}
	for _, list := range queries {
		for _, q := range list {
			if _, seen := want[q]; seen {
				continue
			}
			cur, err := sys.Query(q)
			if err == nil {
				want[q], _, err = drain(cur, time.Time{})
			}
			if err != nil {
				return nil, fmt.Errorf("oracle: %s: %w", q, err)
			}
		}
	}
	return want, nil
}

// outcome is what one query cost its caller.
type outcome struct {
	first, total time.Duration
	failed       bool
}

// serve answers one query the way cmd/hermesd's /query handler does: admit,
// optimize and execute under a traced root span, render every answer, then
// render EXPLAIN. The handler itself is in package main and cannot be
// imported, so the benchmark enters where it does.
func serve(sys *core.System, q string, want answerSet) outcome {
	t0 := time.Now()
	ctx, release, err := sys.AdmitCtx(context.Background(), 1)
	if err != nil {
		return outcome{total: time.Since(t0), failed: true}
	}
	defer release()
	cur, err := sys.QueryTracedCtx(ctx, q, false)
	if err != nil {
		return outcome{total: time.Since(t0), failed: true}
	}
	cur.Span().SetTag("node", "bench")
	got, first, err := drain(cur, t0)
	_ = obs.Explain(cur.Span().Snapshot())
	return outcome{first: first, total: time.Since(t0), failed: err != nil || got != want}
}

// replay sends the queries through a closed loop of n clients sharing one
// cursor into the list, and returns each query's outcome in list order.
func replay(sys *core.System, queries []string, want map[string]answerSet, n int) []outcome {
	out := make([]outcome, len(queries))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(queries) {
					return
				}
				out[i] = serve(sys, queries[i], want[queries[i]])
			}
		}()
	}
	wg.Wait()
	return out
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// warmed builds a fresh federation and replays the workload's warm list
// through it: the set-up every round pays before anything is timed.
func warmed(sp *spec, want map[string]answerSet) (*federation, error) {
	f, err := newFederation(sp)
	if err != nil {
		return nil, err
	}
	for _, o := range replay(f.sys, sp.warm, want, 1) {
		if o.failed {
			f.stop()
			return nil, fmt.Errorf("%s: a warm-pass query failed", sp.name)
		}
	}
	return f, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// timedRound takes one fresh system through set-up and the timed section
// with tracing off and returns the end-to-end metrics of that round. The
// percentiles are over the round's queries; runRounds takes each metric's
// median over the rounds.
func timedRound(sp *spec, want map[string]answerSet, clients int) (vals map[string]float64, attempted, failed int, err error) {
	runtime.GC()
	t0 := time.Now()
	f, err := warmed(sp, want)
	if err != nil {
		return nil, 0, 0, err
	}
	defer f.stop()
	setup := time.Since(t0)

	var before, after runtime.MemStats
	calls0 := f.sourceCalls()
	runtime.ReadMemStats(&before)
	cpu0, t1 := cpuTime(), time.Now()
	outcomes := replay(f.sys, sp.queries, want, clients)
	wall, cpu := time.Since(t1), cpuTime()-cpu0
	runtime.ReadMemStats(&after)
	calls := f.sourceCalls() - calls0

	// Live heap with the system still reachable: what the run left behind
	// in the DCSM, the caches and the flight recorder.
	runtime.GC()
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	runtime.KeepAlive(f)

	n := float64(len(outcomes))
	total := make([]float64, len(outcomes))
	first := make([]float64, len(outcomes))
	for i, o := range outcomes {
		total[i], first[i] = ms(o.total), ms(o.first)
		if o.failed {
			failed++
		}
	}
	return map[string]float64{
		"setup_s":                setup.Seconds(),
		"throughput_qps":         n / wall.Seconds(),
		"query_ms_p50":           quantile(total, 0.50),
		"query_ms_p95":           quantile(total, 0.95),
		"first_answer_ms_p50":    quantile(first, 0.50),
		"cpu_ms_per_query":       ms(cpu) / n,
		"allocs_per_query":       float64(after.Mallocs-before.Mallocs) / n,
		"alloc_kb_per_query":     float64(after.TotalAlloc-before.TotalAlloc) / 1024 / n,
		"source_calls_per_query": float64(calls) / n,
		"heap_live_mb":           float64(end.HeapAlloc) / (1 << 20),
		"correct_share":          (n - float64(failed)) / n,
	}, len(outcomes), failed, nil
}

// overRounds reduces a metric's per-round values to the one reported.
// Counts, sizes and set-up time are medians. A time or a rate of the timed
// section is the quartile on its fast side: on a shared two-core sandbox
// interference only ever slows a round down, for seconds at a stretch, so
// the fast quartile repeats from run to run about a third better than the
// median, and it still needs a quarter of the rounds to agree.
func overRounds(unit string, vs []float64) float64 {
	vs = append([]float64(nil), vs...)
	sort.Float64s(vs)
	switch unit {
	case "ms", "us":
		return quartile(vs, 1)
	case "1/s":
		return quartile(vs, 3)
	}
	return median(vs)
}

// runRounds repeats round on fresh systems for the given time and reduces
// each metric over the rounds with overRounds. A round does a fixed amount of
// work, so the state the system grows (DCSM records, cache entries) is the
// same in every round of every run; the clock only decides how many rounds
// there are. The loop stops when another round of average length would
// overrun.
func runRounds(decl []metric, seconds float64, round func() (map[string]float64, int, int, error)) (*result, error) {
	res := &result{rounds: map[string][]float64{}}
	start := time.Now()
	for n := 0; ; n++ {
		if el := time.Since(start).Seconds(); n > 0 && el+el/float64(n) > seconds {
			break
		}
		vals, attempted, failed, err := round()
		if err != nil {
			return nil, err
		}
		res.Attempted += attempted
		res.Failed += failed
		for k, v := range vals {
			res.rounds[k] = append(res.rounds[k], v)
		}
	}
	if len(res.rounds) != len(decl) {
		return nil, fmt.Errorf("measured %d metrics, declared %d", len(res.rounds), len(decl))
	}
	res.Metrics = make(map[string]reading, len(decl))
	for _, m := range decl {
		vs, ok := res.rounds[m.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.name)
		}
		v := overRounds(m.unit, vs)
		if m.name == "correct_share" {
			// A median would hide a round that failed.
			v = float64(res.Attempted-res.Failed) / float64(res.Attempted)
		}
		res.Metrics[m.name] = reading{v, m.unit}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

func (f *federation) sourceCalls() int64 {
	var n int64
	for _, w := range f.wrapped {
		n += w.calls.Load()
	}
	return n
}
