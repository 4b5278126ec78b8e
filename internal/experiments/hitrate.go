package experiments

import (
	"fmt"
	"strings"
	"time"

	"hermes/internal/core"
	"hermes/internal/domain"
	"hermes/internal/vclock"
	"hermes/internal/workload"
)

// HitRateRow summarizes one cache configuration over a skewed call stream:
// the aggregate version of the paper's "caching with and without
// invariants" comparison.
type HitRateRow struct {
	Config        string
	ExactHits     int
	EqualityHits  int
	PartialHits   int
	Misses        int
	AnswersCached int
	TotalTime     time.Duration
}

// HitRate replays the same 150-call frame-range stream (30% exact repeats,
// 30% containment-widened) against three configurations — no cache, cache
// without invariants, cache with the containment invariants — in two
// consumption modes. In all-answers mode every stream is drained: partial
// hits still issue the actual call, so invariants cannot reduce total time
// there (the paper's caveat that "the size of the partial answer returned
// plays a significant role"). In interactive mode the consumer stops after
// the first 3 answers: partial hits whose cached prefix suffices never
// issue the actual call at all, which is where invariants shine.
func HitRate() ([]HitRateRow, error) {
	stream := workload.FrameRanges(workload.DefaultFrameRanges(150))
	var rows []HitRateRow
	for _, mode := range []struct {
		label string
		first int // 0 = drain all
	}{
		{"all answers", 0},
		{"first 3", 3},
	} {
		for _, cfg := range []struct {
			name       string
			disable    bool
			invariants bool
		}{
			{"no cache", true, false},
			{"cache, no invariants", false, false},
			{"cache + invariants", false, true},
		} {
			// This study characterizes the caching *policies*, so the CIM
			// runs at the profile's light cost set rather than the paper-era
			// constants used to reproduce Figure 5's absolute latencies.
			ccfg := lightCIMConfig()
			tb, err := NewTestbed(TestbedOptions{
				Site:           SiteUSA,
				DisableCIM:     cfg.disable,
				WithInvariants: cfg.invariants,
				RouteViaCIM:    !cfg.disable,
				Core:           core.Options{CIM: &ccfg},
			})
			if err != nil {
				return nil, err
			}
			ctx := domain.NewCtx(vclock.NewVirtual(0))
			for _, c := range stream {
				var s domain.Stream
				if cfg.disable {
					s, err = tb.Sys.Registry.Call(ctx, c)
					if err != nil {
						return nil, err
					}
				} else {
					resp, err2 := tb.Sys.CIM.CallThrough(ctx, c)
					if err2 != nil {
						return nil, err2
					}
					s = resp.Stream
				}
				if err := consume(s, mode.first); err != nil {
					return nil, err
				}
			}
			row := HitRateRow{Config: cfg.name + " (" + mode.label + ")", TotalTime: ctx.Clock.Now()}
			if !cfg.disable {
				st := tb.Sys.CIM.Stats()
				row.ExactHits = st.ExactHits
				row.EqualityHits = st.EqualityHits
				row.PartialHits = st.PartialHits
				row.Misses = st.Misses
				row.AnswersCached = st.ServedFromCache
			} else {
				row.Misses = len(stream)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// consume drains a stream, or pulls up to n answers and closes it.
func consume(s domain.Stream, n int) error {
	defer s.Close()
	for i := 0; n == 0 || i < n; i++ {
		_, ok, err := s.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
	}
	return nil
}

// FormatHitRate renders the hit-rate study.
func FormatHitRate(rows []HitRateRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %6s %6s %6s %6s %9s %12s\n",
		"Config", "exact", "equal", "part", "miss", "cachedAns", "total time")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s %6d %6d %6d %6d %9d %10sms\n",
			r.Config, r.ExactHits, r.EqualityHits, r.PartialHits, r.Misses,
			r.AnswersCached, vclock.Millis(r.TotalTime))
	}
	return b.String()
}
