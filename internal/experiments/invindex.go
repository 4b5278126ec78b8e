package experiments

import (
	"fmt"
	"strings"
	"time"

	"hermes/internal/cim"
	"hermes/internal/core"
	"hermes/internal/domain"
	"hermes/internal/lang"
	"hermes/internal/term"
)

// The invariant-index experiment answers the scaling question the
// federation roadmap item poses: with 10k+ invariants registered (each
// peer contributing its semantic knowledge), is matching a call against
// the invariant set still cheaper than calling the source? The linear
// scan the paper's prototype used degrades with every registered
// invariant; the discrimination index keeps per-probe work at the size
// of the call's bucket, so probe latency stays flat as the inventory
// grows.

// InvindexPoint is one measured cache-probe latency at a given invariant
// inventory, with its ratio to the smallest inventory's.
type InvindexPoint struct {
	Invariants        int     `json:"invariants"`
	IndexedNsPerProbe float64 `json:"indexed_ns_per_probe"`
	VsSmallest        float64 `json:"vs_smallest"`
}

// InvindexReport is the committed BENCH_invindex.json: the probe-latency
// scaling curve plus the differential harness verdict at the largest
// inventory.
type InvindexReport struct {
	ProbesPerPoint int                         `json:"probes_per_point"`
	Points         []InvindexPoint             `json:"points"`
	Differential   *InvindexDifferentialReport `json:"differential"`
}

// InvindexDifferentialReport diffs the harness workload's answers with a
// large synthetic invariant inventory loaded against the AVIS invariants
// alone.
type InvindexDifferentialReport struct {
	Queries    int `json:"queries"`
	Invariants int `json:"invariants"`
	// Mismatches counts queries whose answer multiset differed between
	// the two inventories. Zero on a passing run.
	Mismatches      int      `json:"mismatches"`
	MismatchDetails []string `json:"mismatch_details,omitempty"`
}

// syntheticInvariants generates n well-formed invariants that never
// apply to the experiment workload: they inflate the registered
// inventory the way federation peers would, which a linear scan would pay
// for on every probe while the index skips them all. The
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
// plus n synthetic ones (registered first, so a linear scan would pay for
// them before reaching the invariant that matches), and one cached
// complete call an equality invariant can prove equivalent to a probe.
func invindexManager(n int) (*cim.Manager, error) {
	m := cim.New(nil, lightCIMConfig())
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
// growing invariant inventories. Each point alternates an equality-hit
// probe (served via an AVIS invariant registered after every synthetic
// one) with a miss probe (no invariant applies, the common case for any
// call outside the cached hot set).
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
	rep := &InvindexReport{ProbesPerPoint: probes}
	for _, n := range sizes {
		m, err := invindexManager(n)
		if err != nil {
			return nil, err
		}
		// Warm once: fault in any lazy state before timing.
		if src, got := m.Probe(hit); src != cim.SourceCacheEquality || got != 3 {
			return nil, fmt.Errorf("experiments: invindex probe served %v (%d answers), want cache-equality with 3", src, got)
		}
		start := time.Now()
		for i := 0; i < probes; i++ {
			if i%2 == 0 {
				m.Probe(hit)
			} else {
				m.Probe(miss)
			}
		}
		ns := float64(time.Since(start).Nanoseconds()) / probes
		smallest := ns
		if len(rep.Points) > 0 {
			smallest = rep.Points[0].IndexedNsPerProbe
		}
		rep.Points = append(rep.Points, InvindexPoint{Invariants: n, IndexedNsPerProbe: ns, VsSmallest: ns / smallest})
	}
	diff, err := InvindexDifferential(0, 0)
	if err != nil {
		return nil, err
	}
	rep.Differential = diff
	return rep, nil
}

// InvindexDifferential replays the differential harness workload on two
// otherwise identical federations, one with a synthetic invariant
// inventory loaded on top of the AVIS invariants and one with the AVIS
// invariants alone, and diffs every query's answer multiset: invariants
// that apply to no call must change no answer. queries and invariants of
// 0 select the acceptance scale (220 queries, 10k invariants).
func InvindexDifferential(queries, invariants int) (*InvindexDifferentialReport, error) {
	if queries == 0 {
		queries = DefaultDifferentialOptions().Queries
	}
	if invariants == 0 {
		invariants = 10000
	}
	workload := differentialWorkload(DefaultDifferentialOptions().Seed, queries, DefaultDifferentialOptions().RepeatFraction)

	run := func(synth []*lang.Invariant) (*diffRun, error) {
		ccfg := paperCIMConfig()
		tb, err := NewTestbed(TestbedOptions{
			RouteViaCIM:    true,
			WithInvariants: true,
			Seed:           7,
			Core:           core.Options{CIM: &ccfg},
		})
		if err != nil {
			return nil, err
		}
		for _, inv := range synth {
			if err := tb.Sys.CIM.AddInvariant(inv); err != nil {
				return nil, err
			}
		}
		r := &diffRun{results: make([][]string, len(workload))}
		for i, q := range workload {
			plan, err := originalOrderPlan(tb.Sys, q.Text)
			if err != nil {
				return nil, fmt.Errorf("invindex differential: plan %s: %w", q.Text, err)
			}
			answers, _, err := runPlan(tb.Sys, plan)
			if err != nil {
				return nil, fmt.Errorf("invindex differential: run %s: %w", q.Text, err)
			}
			r.results[i] = answerMultiset(answers)
		}
		return r, nil
	}

	loaded, err := run(syntheticInvariants(invariants))
	if err != nil {
		return nil, err
	}
	alone, err := run(nil)
	if err != nil {
		return nil, err
	}
	rep := &InvindexDifferentialReport{
		Queries:    queries,
		Invariants: invariants + strings.Count(avisInvariants, "=>"),
	}
	for i := range workload {
		if !multisetsEqual(loaded.results[i], alone.results[i]) {
			rep.Mismatches++
			if len(rep.MismatchDetails) < 5 {
				rep.MismatchDetails = append(rep.MismatchDetails, fmt.Sprintf(
					"%s: %d answers with the inventory loaded, %d without",
					workload[i].Text, len(loaded.results[i]), len(alone.results[i])))
			}
		}
	}
	return rep, nil
}

// FormatInvindex renders the scaling curve and the differential verdict.
func FormatInvindex(rep *InvindexReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cache-probe latency vs registered invariants (%d probes/point, wall clock):\n\n", rep.ProbesPerPoint)
	fmt.Fprintf(&b, "%12s %16s %12s\n", "invariants", "indexed ns/probe", "vs smallest")
	for _, p := range rep.Points {
		fmt.Fprintf(&b, "%12d %16.0f %11.2fx\n", p.Invariants, p.IndexedNsPerProbe, p.VsSmallest)
	}
	d := rep.Differential
	verdict := "PASS"
	if d.Mismatches > 0 {
		verdict = "FAIL"
	}
	fmt.Fprintf(&b, "\ndifferential: %d queries, %d invariants loaded vs the AVIS invariants alone: %d mismatches — %s\n",
		d.Queries, d.Invariants, d.Mismatches, verdict)
	for _, det := range d.MismatchDetails {
		fmt.Fprintf(&b, "  mismatch: %s\n", det)
	}
	return b.String()
}
