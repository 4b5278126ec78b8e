package experiments

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"hermes/internal/admission"
	"hermes/internal/core"
	"hermes/internal/domain"
	"hermes/internal/engine"
	"hermes/internal/obs"
)

// The admission fairness experiment drives K=8 concurrent query sessions
// against one mediator at several pool capacities and shows the two
// properties the server-level scheduler tier promises: the source never
// observes more concurrent calls than -max-inflight allows, no matter how
// many sessions run, and the admitted sessions share the lanes fairly —
// every one finishes with the full answer set in the same virtual time.
//
// The run is deterministic by construction. Sessions are admitted
// sequentially under the shed policy, so which sessions are admitted and
// which are shed depends only on capacity; and the capacities are chosen
// so each session's extra-lane grant is bound by its weighted fair share
// (capacity/K), never by the racy first-come order on the remaining free
// lanes. With identical single-query sessions, identical lane counts mean
// identical virtual times, bit for bit.

// AdmissionPoint is one pool capacity's measurements.
type AdmissionPoint struct {
	// MaxInflight is the pool capacity (-max-inflight).
	MaxInflight int `json:"max_inflight"`
	// Admitted and Shed count the K arriving sessions by admission
	// outcome.
	Admitted int `json:"admitted"`
	Shed     int `json:"shed"`
	// GrantsPerSession counts pool lane grants per admitted session: the
	// implicit admission lane plus every extra-lane acquisition during the
	// union's parallel branches. Identical across sessions by symmetry.
	GrantsPerSession int `json:"grants_per_session"`
	// PoolPeak is the most lanes held at one virtual instant: each
	// session's admission lane over its root span, plus the extra lanes of
	// every parallel union over the union's span. SourcePeak is the most
	// source calls open at one virtual instant, over the call spans. Both
	// must stay within MaxInflight, and both are functions of the run's
	// virtual time, not of how goroutines overlapped on the wall clock.
	PoolPeak   int `json:"pool_peak"`
	SourcePeak int `json:"source_peak"`
	// SessionTAllMs is each admitted session's all-answers virtual time,
	// in admission order; SpreadMs is max-min over them (0 = perfectly
	// fair).
	SessionTAllMs []float64 `json:"session_tall_ms"`
	SpreadMs      float64   `json:"spread_ms"`
}

// AdmissionResult is the whole experiment, serialized to
// BENCH_admission.json by benchrunner -fig admission.
type AdmissionResult struct {
	Query    string           `json:"query"`
	Sessions int              `json:"sessions"`
	Policy   string           `json:"policy"`
	Site     string           `json:"site"`
	Points   []AdmissionPoint `json:"points"`
}

// AdmissionFairness runs K=8 sessions of the 4-rule union query at pool
// capacities 4, 8, 16 and 32.
func AdmissionFairness() (*AdmissionResult, error) {
	const sessions = 8
	res := &AdmissionResult{
		Query:    "?- union4(S).",
		Sessions: sessions,
		Policy:   "shed",
		Site:     wanFlat.Name,
	}
	for _, capacity := range []int{4, 8, 16, 32} {
		// A fresh federation per capacity, traced: the peaks are read off
		// the sessions' span trees.
		sys, err := fourVideoSystem(core.Options{
			Parallelism:      4,
			MaxInflightCalls: capacity,
			ShedPolicy:       admission.PolicyShed,
			Obs:              obs.NewObserver(),
		}, fourVideoSource())
		if err != nil {
			return nil, err
		}
		plans, err := sys.Plans(res.Query)
		if err != nil || len(plans) == 0 {
			return nil, fmt.Errorf("experiments: admission plans: %v, %w", plans, err)
		}
		plan := plans[0]

		// Admit the K sessions sequentially: deterministic shed counts.
		type session struct {
			ctx     *domain.Ctx
			release func()
		}
		var admitted []session
		pt := AdmissionPoint{MaxInflight: capacity}
		for i := 0; i < sessions; i++ {
			ctx, release, err := sys.AdmitCtx(context.Background(), 1)
			if err != nil {
				if domain.IsOverloaded(err) {
					pt.Shed++
					continue
				}
				return nil, fmt.Errorf("experiments: admission admit %d: %w", i, err)
			}
			admitted = append(admitted, session{ctx, release})
		}
		pt.Admitted = len(admitted)

		// Run every admitted session concurrently; each must finish with
		// the full answer set (no starvation). Leases are released only
		// after ALL sessions finish: an early finisher returning its lane
		// mid-run would hand real-time-dependent extra lanes to whoever is
		// still running, and the figure would stop being reproducible.
		talls := make([]time.Duration, len(admitted))
		trees := make([]obs.SpanData, len(admitted))
		errs := make([]error, len(admitted))
		var wg sync.WaitGroup
		for i, s := range admitted {
			wg.Add(1)
			go func(i int, s session) {
				defer wg.Done()
				cur, err := sys.ExecuteCtx(s.ctx, plan)
				if err != nil {
					errs[i] = err
					return
				}
				answers, m, err := engine.CollectAll(cur)
				if err != nil {
					errs[i] = err
					return
				}
				if len(answers) != 4 {
					errs[i] = fmt.Errorf("session %d starved: %d answers, want 4", i, len(answers))
					return
				}
				talls[i], trees[i] = m.TAll, cur.Span().Snapshot()
			}(i, s)
		}
		wg.Wait()
		for _, s := range admitted {
			s.release()
		}
		for _, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("experiments: admission at C=%d: %w", capacity, err)
			}
		}

		var lanes, calls []interval
		for _, root := range trees {
			lanes = append(lanes, interval{root.Start, root.End, 1}) // the admission lane
			lanes, calls = spanIntervals(root.Children, lanes, calls)
		}
		pt.PoolPeak, pt.SourcePeak = peakOverlap(lanes), peakOverlap(calls)
		st := sys.Admission.Stats()
		if pt.Admitted > 0 {
			// Grants split evenly: identical sessions, and every extra-lane
			// request is bound by the fair share, never by arrival order.
			pt.GrantsPerSession = int(st.Granted) / pt.Admitted
		}
		var min, max time.Duration
		for i, t := range talls {
			if i == 0 || t < min {
				min = t
			}
			if t > max {
				max = t
			}
		}
		for _, t := range talls {
			pt.SessionTAllMs = append(pt.SessionTAllMs, float64(t)/float64(time.Millisecond))
		}
		pt.SpreadMs = float64(max-min) / float64(time.Millisecond)
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// interval is a weight held over the virtual-time span [start, end).
type interval struct {
	start, end time.Duration
	weight     int
}

// spanIntervals appends what the spans below a session's root record to
// lanes and calls: a union span tagged parallel=N holds N-1 extra lanes,
// and each call span is one open source call.
func spanIntervals(spans []obs.SpanData, lanes, calls []interval) ([]interval, []interval) {
	for _, d := range spans {
		switch {
		case strings.HasPrefix(d.Name, "union "):
			if n, err := strconv.Atoi(d.Tag("parallel")); err == nil {
				lanes = append(lanes, interval{d.Start, d.End, n - 1})
			}
		case strings.HasPrefix(d.Name, "call "):
			calls = append(calls, interval{d.Start, d.End, 1})
		}
		lanes, calls = spanIntervals(d.Children, lanes, calls)
	}
	return lanes, calls
}

// peakOverlap is the largest total weight of intervals that overlap at one
// instant. The overlap only grows where an interval starts, so the peak is
// the weight held at some start.
func peakOverlap(ivs []interval) (peak int) {
	for _, at := range ivs {
		held := 0
		for _, iv := range ivs {
			if iv.start <= at.start && at.start < iv.end {
				held += iv.weight
			}
		}
		peak = max(peak, held)
	}
	return peak
}

// FormatAdmission renders the fairness table.
func FormatAdmission(res *AdmissionResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "admission fairness: %d sessions of %s, policy %s\n", res.Sessions, res.Query, res.Policy)
	fmt.Fprintf(&b, "%-13s %9s %5s %7s %10s %11s %10s %9s\n",
		"max-inflight", "admitted", "shed", "grants", "pool peak", "source peak", "Tall", "spread")
	for _, p := range res.Points {
		tall := 0.0
		if len(p.SessionTAllMs) > 0 {
			tall = p.SessionTAllMs[0]
		}
		fmt.Fprintf(&b, "%-13d %9d %5d %7d %10d %11d %8.0fms %7.0fms\n",
			p.MaxInflight, p.Admitted, p.Shed, p.GrantsPerSession, p.PoolPeak, p.SourcePeak, tall, p.SpreadMs)
	}
	return b.String()
}
