package obs

import (
	"maps"
	"sort"
	"sync"
	"time"
)

// Calibration thresholds shared by the tracker and the planner-facing
// grade: a function is graded once it has CalMinSamples q-error
// observations, and a plan counts as ranked on trustworthy numbers when
// every graded function's median Ta q-error is at most CalTrustedQErr.
const (
	CalMinSamples  = 3
	CalTrustedQErr = 2.0
)

// qErrFloorMs saturates q-errors for sub-millisecond durations (and
// sub-row cardinalities): being "wrong" about a 30µs call is planning
// noise, not miscalibration, so both sides of the ratio are floored at
// one millisecond / one row before dividing.
const qErrFloorMs = 1.0

// QErr is the q-error of an estimate against a measurement: the factor
// by which the estimate is off, max(est/actual, actual/est), always
// >= 1. Both inputs are floored at 1 (one millisecond for durations,
// one row for cardinalities) so near-zero quantities don't explode the
// ratio.
func QErr(est, actual float64) float64 {
	if est < qErrFloorMs {
		est = qErrFloorMs
	}
	if actual < qErrFloorMs {
		actual = qErrFloorMs
	}
	if est > actual {
		return est / actual
	}
	return actual / est
}

// QErrs returns the per-component q-errors [Tf, Ta, Card] of an
// estimated cost vector against the measured one.
func QErrs(est, actual Cost) (qtf, qta, qcard float64) {
	const ms = float64(time.Millisecond)
	qtf = QErr(float64(est.TFirst)/ms, float64(actual.TFirst)/ms)
	qta = QErr(float64(est.TAll)/ms, float64(actual.TAll)/ms)
	qcard = QErr(est.Card, actual.Card)
	return
}

// calKey names one tracked function.
type calKey struct{ domain, function string }

// calEntry holds one function's q-error windows.
type calEntry struct{ qtf, qta, qcard Histogram }

// Calibration aggregates est-vs-actual q-errors per (domain, function)
// so operators can see how wrong the DCSM's cost model is and the
// planner can tell whether a plan was ranked on trustworthy numbers.
// It keeps a bounded sample window per function (the same windowed
// histogram the registry uses) and is safe for concurrent use; a nil
// *Calibration disables tracking. The DCSM owns one (dcsm.DB.Calibration)
// and feeds it as it records measurements. The windows are the only copy
// of the samples: the per-domain hermes_dcsm_qerror_{tf,ta,card} series
// merge them once SetRegistry names the registry.
type Calibration struct {
	mu      sync.Mutex
	entries map[calKey]*calEntry
	reg     *Registry // where each function's windows join its domain's series (nil: nowhere)
}

// NewCalibration returns an empty calibration table.
func NewCalibration() *Calibration {
	return &Calibration{entries: make(map[calKey]*calEntry)}
}

// entry returns (creating on first use) the function's windows. The
// caller holds c.mu.
func (c *Calibration) entry(dom, fn string) *calEntry {
	k := calKey{dom, fn}
	e := c.entries[k]
	if e == nil {
		e = &calEntry{}
		c.entries[k] = e
		c.attach(dom, &e.qtf, &e.qta, &e.qcard)
	}
	return e
}

// SetRegistry lists the table's per-domain q-error series in r: the
// windows of every function tracked so far, and of each one tracked later.
func (c *Calibration) SetRegistry(r *Registry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reg = r
	for k, e := range c.entries {
		c.attach(k.domain, &e.qtf, &e.qta, &e.qcard)
	}
}

// ListDomain lists dom's q-error series at zero, before the domain's
// first measured call. Nil-safe.
func (c *Calibration) ListDomain(dom string) {
	if c != nil {
		c.mu.Lock()
		c.attach(dom, nil, nil, nil)
		c.mu.Unlock()
	}
}

// attach lists dom's hermes_dcsm_qerror_{tf,ta,card} series and merges
// the given windows (nil: none) into them. The caller holds c.mu.
func (c *Calibration) attach(dom string, qtf, qta, qcard *Histogram) {
	c.reg.AttachHistogram("hermes_dcsm_qerror_tf", "q-error of DCSM first-answer time estimates vs measured calls", qtf, "domain", dom)
	c.reg.AttachHistogram("hermes_dcsm_qerror_ta", "q-error of DCSM total-time estimates vs measured calls", qta, "domain", dom)
	c.reg.AttachHistogram("hermes_dcsm_qerror_card", "q-error of DCSM cardinality estimates vs measured calls", qcard, "domain", dom)
}

// Observe feeds one completed call's estimate and measured actual into
// the function's q-error windows.
func (c *Calibration) Observe(dom, fn string, est, actual Cost) {
	if c == nil {
		return
	}
	qtf, qta, qcard := QErrs(est, actual)
	c.mu.Lock()
	e := c.entry(dom, fn)
	c.mu.Unlock()
	e.qtf.Observe(qtf)
	e.qta.Observe(qta)
	e.qcard.Observe(qcard)
}

// Grade reports a function's median Ta q-error and how many samples
// back it. n < CalMinSamples means the function is effectively
// ungraded (cold).
func (c *Calibration) Grade(dom, fn string) (medianQTa float64, n int64) {
	return c.QErrQuantile(dom, fn, 0.5)
}

// QErrQuantile reports a chosen quantile of a function's Ta q-error
// window and how many samples back it. The planner's calibration-
// inflated costing reads a pessimistic quantile (p90 by default) here:
// inflating by the median would under-correct half the time, while the
// upper tail is exactly the "how wrong could this estimate plausibly
// be" factor a robust plan ranking wants. n == 0 means the function
// has never been observed.
func (c *Calibration) QErrQuantile(dom, fn string, q float64) (qerr float64, n int64) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	e := c.entries[calKey{dom, fn}]
	c.mu.Unlock()
	if e == nil {
		return 0, 0
	}
	return e.qta.quantileCount(q)
}

// PlanGrade grades a plan by the (domain, function) pairs of the calls
// it would issue:
//
//   - "cold": no function has any q-error samples at all.
//   - "thin": some functions have samples, but none has reached
//     CalMinSamples. The numbers are real observations — just few —
//     so cold-start inflation must not apply; worstQ is the worst
//     observed median among the thinly-sampled functions.
//   - "trusted": every function with >= CalMinSamples samples has a
//     median Ta q-error at most CalTrustedQErr.
//   - "rough": otherwise.
//
// It also returns the worst graded median q-error (0 when cold).
// Distinguishing cold from thin matters because Grade floors q-errors
// at 1ms/1row: a function with two accurate observations already
// carries more signal than no observations, and treating it as cold
// would slap cold-start inflation on an estimate that has evidence
// behind it.
func (c *Calibration) PlanGrade(fns [][2]string) (grade string, worstQ float64) {
	graded, sampled := 0, 0
	var thinWorst float64
	for _, df := range fns {
		q, n := c.Grade(df[0], df[1])
		if n == 0 {
			continue
		}
		sampled++
		if n < CalMinSamples {
			if q > thinWorst {
				thinWorst = q
			}
			continue
		}
		graded++
		if q > worstQ {
			worstQ = q
		}
	}
	switch {
	case sampled == 0:
		return "cold", 0
	case graded == 0:
		return "thin", thinWorst
	case worstQ <= CalTrustedQErr:
		return "trusted", worstQ
	default:
		return "rough", worstQ
	}
}

// CalibrationRow is one function's aggregated calibration error, for
// the /debug/calibration ranking.
type CalibrationRow struct {
	Domain     string  `json:"domain"`
	Function   string  `json:"function"`
	Samples    int64   `json:"samples"`
	MedianQTf  float64 `json:"median_qerr_tf"`
	MedianQTa  float64 `json:"median_qerr_ta"`
	MedianQCrd float64 `json:"median_qerr_card"`
	P95QTa     float64 `json:"p95_qerr_ta"`
}

// Summary returns one row per tracked function, worst-calibrated first
// (by median Ta q-error, then by p95, then by name for determinism).
func (c *Calibration) Summary() []CalibrationRow {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	entries := maps.Clone(c.entries)
	c.mu.Unlock()
	rows := make([]CalibrationRow, 0, len(entries))
	for k, e := range entries {
		// qta is the window the planner reads, and so keeps sorted; qtf
		// and qcard are read only here, sorted at read so that a visit to
		// the calibration page does not make their every Observe pay.
		rows = append(rows, CalibrationRow{
			Domain:     k.domain,
			Function:   k.function,
			Samples:    e.qta.Count(),
			MedianQTf:  e.qtf.windowQuantile(0.5),
			MedianQTa:  e.qta.Quantile(0.5),
			MedianQCrd: e.qcard.windowQuantile(0.5),
			P95QTa:     e.qta.Quantile(0.95),
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].MedianQTa != rows[j].MedianQTa {
			return rows[i].MedianQTa > rows[j].MedianQTa
		}
		if rows[i].P95QTa != rows[j].P95QTa {
			return rows[i].P95QTa > rows[j].P95QTa
		}
		if rows[i].Domain != rows[j].Domain {
			return rows[i].Domain < rows[j].Domain
		}
		return rows[i].Function < rows[j].Function
	})
	return rows
}
