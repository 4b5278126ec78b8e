package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"hermes/internal/domain"
	"hermes/internal/obs"
	"hermes/internal/term"
)

// The calibration experiment watches the DCSM learn: rounds of range
// queries run against a cold statistics module on the USA profile, and
// for every source call we grade the estimate the optimizer would have
// used right before the call against the cost the call actually measured
// (q-error = max(est/actual, actual/est), 1.0 = perfect). The very first
// call runs with no statistics and so no estimate; every later estimate
// aggregates the accumulated records, and the error shrinks as the
// workload's spread is averaged out. The same est/actual pairs feed the
// DCSM's calibration tracker, which is what hermesd serves at
// /debug/calibration.

// calibrationQuery gives the experiment a single-call query so each run
// appends exactly one cost record to grade against.
const calibrationQuery = `
	calq(First, Last, Object) :-
	    in(Object, avis:frames_to_objects('rope', First, Last)).
`

// CalibrationRound is one warm-up round's aggregate estimate quality.
type CalibrationRound struct {
	Round int `json:"round"`
	Calls int `json:"calls"`
	// Estimated counts calls the DCSM could price at all (the first call
	// of round 1 cannot be).
	Estimated   int     `json:"estimated"`
	MedianQTa   float64 `json:"median_qerr_ta"`
	MedianQCard float64 `json:"median_qerr_card"`
}

// CalibrationResult is the whole experiment, serialized to
// BENCH_calibration.json by benchrunner -fig calibration.
type CalibrationResult struct {
	Site   string             `json:"site"`
	Query  string             `json:"query"`
	Rounds []CalibrationRound `json:"rounds"`
	// TrackerSamples/TrackerMedianQTa are the DCSM's calibration
	// tracker's cumulative view of the same run (what /debug/calibration
	// reports).
	TrackerSamples   int64   `json:"tracker_samples"`
	TrackerMedianQTa float64 `json:"tracker_median_qerr_ta"`
}

// median returns the nearest-rank median of a non-empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

// CalibrationWarmup runs the rounds on a CIM-disabled testbed (every call
// is a real measured source execution) and grades each round's estimates.
func CalibrationWarmup() (*CalibrationResult, error) {
	tb, err := NewTestbed(TestbedOptions{DisableCIM: true, Seed: 11})
	if err != nil {
		return nil, err
	}
	sys := tb.Sys
	if err := sys.LoadProgram(calibrationQuery); err != nil {
		return nil, err
	}
	if err := tb.WarmConnections(); err != nil {
		return nil, err
	}

	res := &CalibrationResult{Site: SiteUSA.Name, Query: "?- calq(First, Last, Object)."}
	rng := rand.New(rand.NewSource(7))
	const rounds, callsPerRound = 6, 8
	for round := 1; round <= rounds; round++ {
		var qTa, qCard []float64
		estimated := 0
		for i := 0; i < callsPerRound; i++ {
			f := rng.Intn(100)
			l := f + 10 + rng.Intn(60)
			if l > 159 {
				l = 159
			}
			call := domain.Call{Domain: "avis", Function: "frames_to_objects",
				Args: []term.Value{term.Str("rope"), term.Int(int64(f)), term.Int(int64(l))}}
			// The estimate the optimizer would use right now, before this
			// call's own record lands in the statistics database.
			est, estErr := sys.DCSM.Cost(domain.PatternOf(call))
			if _, _, err := sys.QueryAll(fmt.Sprintf("?- calq(%d, %d, Object).", f, l)); err != nil {
				return nil, fmt.Errorf("experiments: calibration round %d: %w", round, err)
			}
			recs := sys.DCSM.Records("avis", "frames_to_objects", 3)
			if len(recs) == 0 {
				return nil, fmt.Errorf("experiments: calibration round %d: no cost record after query", round)
			}
			actual := recs[len(recs)-1].Cost
			if estErr != nil {
				continue
			}
			estimated++
			_, ta, card := obs.QErrs(est, actual)
			qTa = append(qTa, ta)
			qCard = append(qCard, card)
		}
		res.Rounds = append(res.Rounds, CalibrationRound{
			Round:       round,
			Calls:       callsPerRound,
			Estimated:   estimated,
			MedianQTa:   round2(median(qTa)),
			MedianQCard: round2(median(qCard)),
		})
	}
	res.TrackerMedianQTa, res.TrackerSamples = sys.DCSM.Calibration().Grade("avis", "frames_to_objects")
	res.TrackerMedianQTa = round2(res.TrackerMedianQTa)
	return res, nil
}

// FormatCalibration renders the warm-up table.
func FormatCalibration(res *CalibrationResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %6s %10s %10s %12s\n", "round", "calls", "estimated", "med(qTa)", "med(qCard)")
	for _, r := range res.Rounds {
		ta, card := "-", "-"
		if r.Estimated > 0 {
			ta = fmt.Sprintf("%.2f", r.MedianQTa)
			card = fmt.Sprintf("%.2f", r.MedianQCard)
		}
		fmt.Fprintf(&b, "%-6d %6d %10d %10s %12s\n", r.Round, r.Calls, r.Estimated, ta, card)
	}
	fmt.Fprintf(&b, "calibration tracker: %d samples, cumulative med(qTa) %.2f\n",
		res.TrackerSamples, res.TrackerMedianQTa)
	return b.String()
}
