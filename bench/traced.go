package main

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"hermes/internal/cim"
	"hermes/internal/core"
	"hermes/internal/domain"
	"hermes/internal/lang"
	"hermes/internal/obs"
	"hermes/internal/rewrite"
	"hermes/internal/term"
)

// probeLimit caps how many of a workload's ground calls each probe section
// replays.
const probeLimit = 256

// queryTrace is what the traced replay keeps per query besides its spans.
type queryTrace struct {
	plans, answers, spanNodes, explainBytes int
	firstAnswer, simTAll                    time.Duration
	failed                                  bool
}

// serveTraced answers one query through the same public calls
// core.System.QueryTracedCtx makes, with a span around each, so that the
// time of a query divides among the layers. It builds the same obs span
// tree (root, rewrite, plan-choice) the daemon's EXPLAIN shows.
func serveTraced(sys *core.System, rec *recorder, q string, want answerSet) queryTrace {
	var qt queryTrace
	root := rec.start("query", -1)
	defer rec.end(root)
	step := func(name string) func() {
		id := rec.start(name, root)
		return func() { rec.end(id) }
	}

	done := step("admission.admit")
	ctx, release, err := sys.AdmitCtx(context.Background(), 1)
	done()
	if err != nil {
		return queryTrace{failed: true}
	}
	defer release()
	oroot := sys.Obs.StartQuery(strings.TrimSpace(q), ctx.Clock.Now())

	done = step("lang.parse")
	parsed, err := lang.ParseQuery(q)
	done()
	if err != nil {
		return queryTrace{failed: true}
	}

	rw := oroot.Child("rewrite", ctx.Clock.Now())
	done = step("rewrite.plans")
	plans, err := sys.PlansFor(parsed)
	done()
	if err != nil || len(plans) == 0 {
		return queryTrace{failed: true}
	}
	qt.plans = len(plans)
	rw.SetTag("plans", strconv.Itoa(len(plans)))
	rw.End(ctx.Clock.Now())

	pc := oroot.Child("plan-choice", ctx.Clock.Now())
	done = step("estimate.plan_cost")
	var best *rewrite.Plan
	var bestCV domain.CostVector
	for i, p := range plans {
		cv, err := sys.PlanCost(p)
		if err != nil {
			done()
			return queryTrace{failed: true}
		}
		if best == nil || cv.TAll < bestCV.TAll {
			best, bestCV = p, cv
			pc.SetTag("chosen", strconv.Itoa(i+1))
		}
	}
	done()
	line, _, _ := strings.Cut(best.String(), "\n")
	pc.SetTag("plan", line)
	pc.SetEstimate(obs.Cost{TFirst: bestCV.TFirst, TAll: bestCV.TAll, Card: bestCV.Card})
	pc.End(ctx.Clock.Now())

	exec := rec.start("engine.execute", root)
	rec.current.Store(int64(exec))
	t0 := time.Now()
	cur, err := sys.ExecuteCtx(ctx.WithSpan(oroot), best)
	var got answerSet
	if err == nil {
		got, qt.firstAnswer, err = drain(cur, t0)
	}
	rec.current.Store(-1)
	rec.end(exec)
	if err != nil {
		return queryTrace{failed: true}
	}
	qt.answers, qt.simTAll = got.count, cur.Metrics().TAll

	done = step("obs.explain")
	snap := cur.Span().Snapshot()
	qt.explainBytes = len(obs.Explain(snap))
	done()
	qt.spanNodes = countNodes(snap)
	qt.failed = got != want
	return qt
}

func countNodes(d obs.SpanData) int {
	n := 1
	for _, c := range d.Children {
		n += countNodes(c)
	}
	return n
}

// layerCounts reads the counters the layers keep themselves.
func layerCounts(f *federation) map[string]float64 {
	sys := f.sys
	c := map[string]float64{
		"dcsm.estimates_raw":  float64(sys.Obs.Counter("hermes_dcsm_estimates_total", "source", "raw").Value()),
		"dcsm.observations":   float64(sys.Obs.Counter("hermes_dcsm_observations_total").Value()),
		"engine.calls_direct": float64(sys.Obs.Counter("hermes_engine_calls_total", "route", "direct").Value()),
		"engine.calls_cim":    float64(sys.Obs.Counter("hermes_engine_calls_total", "route", "cim").Value()),
		"invindex.candidates": float64(sys.Obs.Counter("hermes_invindex_candidates_total").Value()),
		"remote.resumes":      float64(sys.Obs.Counter("hermes_remote_resumes_total", "side", "client").Value()),
	}
	if sys.CIM != nil {
		st := sys.CIM.Stats()
		c["cim.exact_hits"], c["cim.equality_hits"] = float64(st.ExactHits), float64(st.EqualityHits)
		c["cim.partial_hits"], c["cim.misses"] = float64(st.PartialHits), float64(st.Misses)
		c["cim.evictions"] = float64(st.Evictions)
	}
	if sys.Memo != nil {
		st := sys.Memo.Stats()
		c["memo.hits"], c["memo.misses"], c["memo.stores"] = float64(st.Hits), float64(st.Misses), float64(st.Stores)
		c["memo.invalidations"], c["memo.evictions"] = float64(st.Invalidations), float64(st.Evictions)
	}
	for _, w := range f.wrapped {
		if rw, ok := sys.Resilience(w.Name()); ok {
			m := rw.Metrics()
			c["resilience.retries"] += float64(m.Retries)
			c["resilience.breaker_rejections"] += float64(m.BreakerRejections)
		}
		c["source.calls"] += float64(w.calls.Load())
		c["source.answers"] += float64(w.answers.Load())
	}
	if f.peerObs != nil {
		c["remote.calls"] = float64(f.peerObs.Counter("hermes_remote_calls_total", "proto", "v2").Value())
		c["remote.resumes"] += float64(f.peerObs.Counter("hermes_remote_resumes_total", "side", "server").Value())
	}
	return c
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// tracedRound replays the first quarter of the workload on two fresh
// systems, untraced and then traced, both with one client, and then times
// the layers nested under the engine through their own public functions on
// the traced system's end-of-run state. It returns the traced replay's spans
// with the metrics.
func tracedRound(sp *spec, want map[string]answerSet) (vals map[string]float64, attempted, failed int, rec *recorder, err error) {
	prefix := sp.queries[:(len(sp.queries)+3)/4]

	ref, err := warmed(sp, want)
	if err != nil {
		return nil, 0, 0, nil, err
	}
	t0 := time.Now()
	replay(ref.sys, prefix, want, 1)
	untraced := time.Since(t0)
	ref.stop()

	f, err := warmed(sp, want)
	if err != nil {
		return nil, 0, 0, nil, err
	}
	defer f.stop()
	rec = newRecorder()
	for _, w := range f.wrapped {
		w.rec = rec
	}
	base := layerCounts(f)
	traces := make([]queryTrace, len(prefix))
	t0 = time.Now()
	for i, q := range prefix {
		rec.query.Store(int64(i))
		traces[i] = serveTraced(f.sys, rec, q, want[q])
	}
	traced := time.Since(t0)
	for _, w := range f.wrapped {
		w.rec = nil
	}
	delta := layerCounts(f)
	for k := range delta {
		delta[k] -= base[k]
	}

	n := float64(len(prefix))
	vals = map[string]float64{"trace.overhead_ratio": ratio(traced.Seconds(), untraced.Seconds()), "trace.spans": float64(len(rec.spans))}
	for _, k := range []string{"dcsm.estimates_raw", "dcsm.observations", "cim.exact_hits", "cim.equality_hits",
		"cim.partial_hits", "cim.misses", "cim.evictions", "memo.hits", "memo.stores", "memo.invalidations",
		"memo.evictions", "engine.calls_direct", "engine.calls_cim", "source.calls", "remote.calls",
		"remote.resumes", "resilience.retries", "resilience.breaker_rejections"} {
		vals[k] = delta[k]
	}
	hits := delta["cim.exact_hits"] + delta["cim.equality_hits"] + delta["cim.partial_hits"]
	vals["cim.hit_ratio"] = ratio(hits, hits+delta["cim.misses"])
	vals["invindex.candidates_per_probe"] = ratio(delta["invindex.candidates"], hits+delta["cim.misses"]-delta["cim.exact_hits"])
	vals["memo.hit_ratio"] = ratio(delta["memo.hits"], delta["memo.hits"]+delta["memo.misses"])
	vals["source.answers_per_call"] = ratio(delta["source.answers"], delta["source.calls"])
	vals["dcsm.raw_records"] = float64(f.sys.DCSM.Storage().RawRecords)
	vals["cim.entries"], vals["memo.entries"] = 0, 0
	if f.sys.CIM != nil {
		vals["cim.entries"] = float64(f.sys.CIM.Len())
	}
	if f.sys.Memo != nil {
		vals["memo.entries"] = float64(f.sys.Memo.Len())
	}

	// Span times: a layer entered once per query reports its mean span, the
	// two layers with children report their mean self time.
	self := selfTimes(rec.spans)
	sum, count := map[string]time.Duration{}, map[string]float64{}
	var selfSum, rootSum time.Duration
	for i, s := range rec.spans {
		d := s.End - s.Start
		if s.Parent < 0 {
			rootSum += d
		}
		if s.Name == "query" || s.Name == "engine.execute" {
			d = self[i]
		}
		sum[s.Name] += d
		count[s.Name]++
		selfSum += self[i]
	}
	for name, key := range map[string]string{
		"query": "core.query_self_us", "admission.admit": "admission.admit_us", "lang.parse": "lang.parse_us",
		"rewrite.plans": "rewrite.plans_us", "estimate.plan_cost": "estimate.plan_cost_us",
		"engine.execute": "engine.execute_self_us", "obs.explain": "obs.explain_us",
	} {
		vals[key] = ratio(us(sum[name]), count[name])
	}
	vals["source.call_us"] = ratio(us(sum["source.call"]+sum["source.next"]), count["source.call"])
	// Self times that do not add up to the queries' own spans mean spans
	// overlap or are missing, and no per-layer time above can be trusted.
	if r := ratio(selfSum.Seconds(), rootSum.Seconds()); r < 0.9 || r > 1.1 {
		return nil, 0, 0, nil, fmt.Errorf("%s: span self times sum to %.2f of the query spans", sp.name, r)
	}
	var plans, answers, nodes, bytes, first, tall float64
	for _, t := range traces {
		plans, answers = plans+float64(t.plans), answers+float64(t.answers)
		nodes, bytes = nodes+float64(t.spanNodes), bytes+float64(t.explainBytes)
		first, tall = first+us(t.firstAnswer), tall+ms(t.simTAll)
		if t.failed {
			failed++
		}
	}
	vals["rewrite.plans_per_query"], vals["engine.answers_per_query"] = plans/n, answers/n
	vals["obs.spans_per_query"], vals["obs.explain_bytes"] = nodes/n, bytes/n
	vals["engine.first_answer_us"], vals["engine.sim_tall_ms_mean"] = first/n, tall/n

	if err := probe(f, sp, vals); err != nil {
		return nil, 0, 0, nil, err
	}
	return vals, len(prefix), failed, rec, nil
}

// probe times the layers that only the engine calls, through their own
// public functions, over the workload's ground calls on the system's
// end-of-run state. The DCSM section comes last because Observe grows the
// statistics the other sections read.
func probe(f *federation, sp *spec, vals map[string]float64) error {
	calls := sp.probes
	if len(calls) > probeLimit {
		calls = calls[:probeLimit]
	}
	sys := f.sys

	// CIM: one CallThrough and drain per call, bucketed by how it was served.
	bucket := map[cim.Source][]float64{}
	if sys.CIM != nil {
		for _, c := range calls {
			t0 := time.Now()
			resp, err := sys.CIM.CallThrough(sys.Ctx(), c)
			if err != nil {
				return fmt.Errorf("cim probe %s: %w", c, err)
			}
			if _, err := domain.Collect(resp.Stream); err != nil {
				return fmt.Errorf("cim probe %s: %w", c, err)
			}
			bucket[resp.Source] = append(bucket[resp.Source], us(time.Since(t0)))
		}
	}
	vals["cim.exact_us"] = mean(bucket[cim.SourceCacheExact])
	vals["cim.equality_us"] = mean(bucket[cim.SourceCacheEquality])
	vals["cim.partial_us"] = mean(bucket[cim.SourceCachePartial])
	vals["cim.miss_us"] = mean(bucket[cim.SourceActual])

	// Sources, called directly: on two_hop this is remote.Client.Call, the
	// wire and node B's serving; the answer sets feed the term section.
	byName := map[string]domain.Domain{}
	for _, w := range f.wrapped {
		byName[w.Name()] = w.inner
	}
	var callUS, firstUS, encUS, decUS []float64
	values := 0
	for _, c := range calls {
		t0 := time.Now()
		s, err := byName[c.Domain].Call(sys.Ctx(), c.Function, c.Args)
		if err != nil {
			return fmt.Errorf("source probe %s: %w", c, err)
		}
		var answers []term.Value
		for {
			v, ok, err := s.Next()
			if err != nil {
				s.Close()
				return fmt.Errorf("source probe %s: %w", c, err)
			}
			if len(answers) == 0 {
				firstUS = append(firstUS, us(time.Since(t0)))
			}
			if !ok {
				break
			}
			answers = append(answers, v)
		}
		s.Close()
		callUS = append(callUS, us(time.Since(t0)))

		t0 = time.Now()
		wire, err := term.EncodeJSONs(answers)
		if err != nil {
			return fmt.Errorf("term probe %s: %w", c, err)
		}
		encUS = append(encUS, us(time.Since(t0)))
		t0 = time.Now()
		if _, err := term.DecodeJSONs(wire); err != nil {
			return fmt.Errorf("term probe %s: %w", c, err)
		}
		decUS = append(decUS, us(time.Since(t0)))
		values += len(answers)
	}
	vals["remote.call_us"], vals["remote.first_value_us"] = 0, 0
	if sp.twoHop {
		vals["remote.call_us"], vals["remote.first_value_us"] = mean(callUS), mean(firstUS)
	}
	vals["term.encode_json_us"], vals["term.decode_json_us"] = mean(encUS), mean(decUS)
	vals["term.values_per_call"] = ratio(float64(values), float64(len(calls)))

	// DCSM: the estimate the planner asks for per call, then the record a
	// finished call adds.
	t0 := time.Now()
	for _, c := range calls {
		_, _ = sys.DCSM.Cost(domain.PatternOf(c)) // a pattern without statistics is still a lookup
	}
	vals["dcsm.cost_us"] = ratio(us(time.Since(t0)), float64(len(calls)))
	t0 = time.Now()
	for _, c := range calls {
		sys.DCSM.Observe(domain.Measurement{Call: c, Complete: true,
			Cost: domain.CostVector{TFirst: time.Millisecond, TAll: 2 * time.Millisecond, Card: 1}})
	}
	vals["dcsm.observe_us"] = ratio(us(time.Since(t0)), float64(len(calls)))
	return nil
}
