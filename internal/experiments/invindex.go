package experiments

import (
	"fmt"
	"strings"
	"time"

	"hermes/internal/cim"
	"hermes/internal/core"
	"hermes/internal/domain"
	"hermes/internal/lang"
	"hermes/internal/rewrite"
	"hermes/internal/term"
)

// The invariant-index experiment answers the scaling question the
// federation roadmap item poses: with 10k+ invariants registered (each
// peer contributing its semantic knowledge), is matching a call against
// the invariant set still cheaper than calling the source? The linear
// scan the paper's prototype used degrades with every registered
// invariant; the discrimination index keeps per-probe work at the size
// of the call's bucket.

// InvindexPoint is one measured cache-probe latency at a given invariant
// inventory, linear scan vs discrimination index.
type InvindexPoint struct {
	Invariants        int     `json:"invariants"`
	LinearNsPerProbe  float64 `json:"linear_ns_per_probe"`
	IndexedNsPerProbe float64 `json:"indexed_ns_per_probe"`
	Speedup           float64 `json:"speedup"`
}

// InvindexReport is the committed BENCH_invindex.json: the probe-latency
// scaling curve plus the differential harness verdict at the largest
// inventory.
type InvindexReport struct {
	ProbesPerPoint int                         `json:"probes_per_point"`
	Points         []InvindexPoint             `json:"points"`
	Differential   *InvindexDifferentialReport `json:"differential"`
}

// InvindexDifferentialReport is the indexed-vs-linear answer diff over
// the harness workload with a large synthetic invariant inventory
// loaded.
type InvindexDifferentialReport struct {
	Queries    int `json:"queries"`
	Invariants int `json:"invariants"`
	// Mismatches counts queries whose answer multiset differed between
	// the indexed and the linear-scan configuration. Zero on a passing
	// run.
	Mismatches      int      `json:"mismatches"`
	MismatchDetails []string `json:"mismatch_details,omitempty"`
	// IndexedLinearScans must be zero: the indexed serve path never falls
	// back to a full scan. LinearLinearScans counts the oracle's scans.
	IndexedLinearScans int64 `json:"indexed_linear_scans"`
	LinearLinearScans  int64 `json:"linear_linear_scans"`
}

// syntheticInvariants generates n well-formed invariants that never
// apply to the experiment workload: they inflate the registered
// inventory the way federation peers would, so the linear scan pays for
// every one of them on every probe while the index skips them all. The
// mix mirrors real inventories — mostly equalities over distinct
// functions, a shared-function family that lands in one bucket, and
// range supersets.
func syntheticInvariants(n int) []*lang.Invariant {
	out := make([]*lang.Invariant, 0, n)
	for i := 0; i < n; i++ {
		var src string
		switch {
		case i%10 == 9:
			src = fmt.Sprintf("true => syn%d:catalog%d(V) >= syn%d:catalog_range%d(V, F, L).", i%7, i, i%7, i)
		case i%10 == 8:
			src = fmt.Sprintf("true => shared:feed('k%d', X) = shared:archive('k%d', X).", i, i)
		default:
			src = fmt.Sprintf("true => syn%d:lookup%d(X) = syn%d:probe%d(X).", i%7, i, i%7, i)
		}
		inv, err := lang.ParseInvariant(src)
		if err != nil {
			panic("experiments: synthetic invariant: " + err.Error())
		}
		out = append(out, inv)
	}
	return out
}

// invindexManager builds a stand-alone CIM with the AVIS invariants
// plus n synthetic ones (registered first, so a linear scan pays for
// them before reaching the invariant that matches), and one cached
// complete call an equality invariant can prove equivalent to a probe.
func invindexManager(n int, linear bool) (*cim.Manager, error) {
	cfg := lightCIMConfig()
	cfg.LinearMatching = linear
	m := cim.New(nil, cfg)
	synth := syntheticInvariants(n)
	for _, inv := range synth {
		if err := m.AddInvariant(inv); err != nil {
			return nil, err
		}
	}
	prog, err := lang.ParseProgram(avisInvariants)
	if err != nil {
		return nil, err
	}
	for _, inv := range prog.Invariants {
		if err := m.AddInvariant(inv); err != nil {
			return nil, err
		}
	}
	answers := []term.Value{term.Str("rope"), term.Str("chest"), term.Str("books")}
	m.Store(domain.Call{
		Domain: "avis", Function: "frames_to_objects",
		Args: []term.Value{term.Str("rope"), term.Int(0), term.Int(159)},
	}, answers, true, domain.CostVector{TAll: time.Second, Card: 3})
	return m, nil
}

// InvindexScaling measures wall-clock cache-probe latency against
// growing invariant inventories, linear scan vs discrimination index.
// Each point alternates an equality-hit probe (served via an AVIS
// invariant the linear scan only reaches after every synthetic
// invariant) with a miss probe (no invariant applies — the linear worst
// case, and the common case for any call outside the cached hot set).
func InvindexScaling() (*InvindexReport, error) {
	const probes = 400
	sizes := []int{1, 100, 1000, 10000}
	hit := domain.Call{
		Domain: "avis", Function: "objects_in_range",
		Args: []term.Value{term.Str("rope"), term.Int(0), term.Int(159)},
	}
	miss := domain.Call{
		Domain: "avis", Function: "video_size",
		Args: []term.Value{term.Str("rope")},
	}
	measure := func(m *cim.Manager) (float64, error) {
		// Warm once: fault in any lazy state before timing.
		if src, n := m.Probe(hit); src != cim.SourceCacheEquality || n != 3 {
			return 0, fmt.Errorf("experiments: invindex probe served %v (%d answers), want cache-equality with 3", src, n)
		}
		start := time.Now()
		for i := 0; i < probes; i++ {
			if i%2 == 0 {
				m.Probe(hit)
			} else {
				m.Probe(miss)
			}
		}
		return float64(time.Since(start).Nanoseconds()) / probes, nil
	}
	rep := &InvindexReport{ProbesPerPoint: probes}
	for _, n := range sizes {
		lm, err := invindexManager(n, true)
		if err != nil {
			return nil, err
		}
		im, err := invindexManager(n, false)
		if err != nil {
			return nil, err
		}
		linNs, err := measure(lm)
		if err != nil {
			return nil, err
		}
		idxNs, err := measure(im)
		if err != nil {
			return nil, err
		}
		p := InvindexPoint{Invariants: n, LinearNsPerProbe: linNs, IndexedNsPerProbe: idxNs}
		if idxNs > 0 {
			p.Speedup = linNs / idxNs
		}
		rep.Points = append(rep.Points, p)
	}
	diff, err := InvindexDifferential(0, 0)
	if err != nil {
		return nil, err
	}
	rep.Differential = diff
	return rep, nil
}

// InvindexDifferential replays the differential harness workload on two
// otherwise identical federations — one matching invariants through the
// discrimination index, one through the LinearMatching full-scan oracle
// — with a synthetic invariant inventory loaded on top of the AVIS
// invariants, and diffs every query's answer multiset. queries and
// invariants of 0 select the acceptance scale (220 queries, 10k
// invariants).
func InvindexDifferential(queries, invariants int) (*InvindexDifferentialReport, error) {
	if queries == 0 {
		queries = DefaultDifferentialOptions().Queries
	}
	if invariants == 0 {
		invariants = 10000
	}
	workload := differentialWorkload(DefaultDifferentialOptions().Seed, queries, DefaultDifferentialOptions().RepeatFraction)
	synth := syntheticInvariants(invariants)

	run := func(linear bool) (*diffRun, int64, error) {
		ccfg := paperCIMConfig()
		ccfg.LinearMatching = linear
		tb, err := NewTestbed(TestbedOptions{
			RouteViaCIM:    true,
			WithInvariants: true,
			Seed:           7,
			Core:           core.Options{CIM: &ccfg},
		})
		if err != nil {
			return nil, 0, err
		}
		for _, inv := range synth {
			if err := tb.Sys.CIM.AddInvariant(inv); err != nil {
				return nil, 0, err
			}
		}
		r := &diffRun{results: make([][]string, len(workload))}
		for i, q := range workload {
			var plan *rewrite.Plan
			plan, err = originalOrderPlan(tb.Sys, q.Text)
			if err != nil {
				return nil, 0, fmt.Errorf("invindex differential: plan %s: %w", q.Text, err)
			}
			answers, _, err := runPlan(tb.Sys, plan)
			if err != nil {
				return nil, 0, fmt.Errorf("invindex differential: run %s: %w", q.Text, err)
			}
			r.results[i] = answerMultiset(answers)
		}
		return r, tb.Sys.CIM.LinearScans(), nil
	}

	indexed, idxScans, err := run(false)
	if err != nil {
		return nil, err
	}
	linear, linScans, err := run(true)
	if err != nil {
		return nil, err
	}
	rep := &InvindexDifferentialReport{
		Queries:            queries,
		Invariants:         invariants + strings.Count(avisInvariants, "=>"),
		IndexedLinearScans: idxScans,
		LinearLinearScans:  linScans,
	}
	for i := range workload {
		if !multisetsEqual(indexed.results[i], linear.results[i]) {
			rep.Mismatches++
			if len(rep.MismatchDetails) < 5 {
				rep.MismatchDetails = append(rep.MismatchDetails, fmt.Sprintf(
					"%s: indexed %d answers, linear %d answers",
					workload[i].Text, len(indexed.results[i]), len(linear.results[i])))
			}
		}
	}
	return rep, nil
}

// FormatInvindex renders the scaling curve and the differential verdict.
func FormatInvindex(rep *InvindexReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cache-probe latency vs registered invariants (%d probes/point, wall clock):\n\n", rep.ProbesPerPoint)
	fmt.Fprintf(&b, "%12s %16s %16s %9s\n", "invariants", "linear ns/probe", "indexed ns/probe", "speedup")
	for _, p := range rep.Points {
		fmt.Fprintf(&b, "%12d %16.0f %16.0f %8.1fx\n",
			p.Invariants, p.LinearNsPerProbe, p.IndexedNsPerProbe, p.Speedup)
	}
	d := rep.Differential
	verdict := "PASS"
	if d.Mismatches > 0 || d.IndexedLinearScans != 0 {
		verdict = "FAIL"
	}
	fmt.Fprintf(&b, "\ndifferential: %d queries with %d invariants loaded: %d mismatches; linear scans indexed=%d oracle=%d — %s\n",
		d.Queries, d.Invariants, d.Mismatches, d.IndexedLinearScans, d.LinearLinearScans, verdict)
	for _, det := range d.MismatchDetails {
		fmt.Fprintf(&b, "  mismatch: %s\n", det)
	}
	return b.String()
}
