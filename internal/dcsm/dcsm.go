// Package dcsm implements the Domain Cost and Statistics Module of the
// paper (§6): a statistics cache that records the cost vectors [Tf, Ta,
// Card] of actual calls to source domains and answers cost-estimation
// queries DCSM:cost(domain:function(c1, ..., ck, $b, ..., $b)) from them.
//
// Statistics live in two forms: the cost vector database (one record per
// executed call, with its record time) and summary tables. A summary table
// keeps a chosen subset of argument positions as dimensions and aggregates
// the metrics of all records sharing dimension values into averages plus
// the count l of aggregated tuples. Keeping every position is the paper's
// lossless summarization; dropping positions (typically those that can
// never be instantiated at plan time) is lossy summarization. Estimation
// searches the most specific applicable table first and recursively relaxes
// known constants to $b on misses (§6.3).
//
// Domains that provide their own cost model plug in through
// domain.Estimator; the DCSM forwards their estimates and fills in only the
// missing components from cached statistics.
package dcsm

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"hermes/internal/domain"
	"hermes/internal/obs"
	"hermes/internal/term"
)

// ErrNoStatistics reports that neither a native estimator nor any recorded
// statistics can estimate a pattern.
var ErrNoStatistics = errors.New("dcsm: no statistics for call pattern")

// Config tunes the module.
type Config struct {
	// AllowRawAggregation lets estimation fall back to aggregating the raw
	// cost vector database when no summary table matches. Disabling it
	// restricts estimation to summary tables only (fast, possibly lossy).
	AllowRawAggregation bool
	// RecencyHalfLife, when non-zero, weights records by 0.5^(age/half-life)
	// during aggregation, biasing estimates toward recent observations
	// (the paper's "giving precedence to more recent statistics"
	// extension).
	RecencyHalfLife time.Duration
	// MaxRecordsPerCall bounds the raw records kept per domain:function
	// (0 = unlimited); the oldest are dropped first.
	MaxRecordsPerCall int
}

// DefaultConfig enables raw fallback with unbounded detail and no recency
// bias, matching the paper's baseline DCSM.
func DefaultConfig() Config {
	return Config{AllowRawAggregation: true}
}

// Record is one entry of the cost vector database: the observed cost of an
// executed call, stamped with the clock reading when it was recorded.
type Record struct {
	Call domain.Call
	Cost domain.CostVector
	// HasTf/HasTa/HasCard flag which components are valid: a call whose
	// stream was closed early (pruning, interactive stop) yields a valid
	// Tf but unusable Ta and Card (§6.1).
	HasTf, HasTa, HasCard bool
	RecordedAt            time.Duration
}

// groupKey identifies all records of one domain function.
func groupKey(dom, fn string, arity int) string {
	return fmt.Sprintf("%s:%s/%d", dom, fn, arity)
}

// DB is the domain cost and statistics module.
type DB struct {
	cfg Config

	mu         sync.RWMutex
	records    map[string][]Record      // groupKey -> raw cost vector database
	summaries  map[string]*SummaryTable // tableKey -> summary table
	estimators map[string]domain.Estimator
	now        func() time.Duration
	access     accessStats // per-table usage counters for AutoTune

	// Event tallies, attached to the metrics registry by SetObserver.
	observations obs.Counter
	estimates    [len(estimateSources)]obs.Counter
}

// Where a cost estimate was resolved: the source label of
// hermes_dcsm_estimates_total.
const (
	estimateNative = iota
	estimateSummary
	estimateRaw
	estimateNone
)

var estimateSources = [...]string{"native", "summary", "raw", "none"}

// New creates an empty module. The now function stamps record times; pass
// the execution clock's Now (nil uses a zero clock).
func New(cfg Config, now func() time.Duration) *DB {
	if now == nil {
		now = func() time.Duration { return 0 }
	}
	return &DB{
		cfg:        cfg,
		records:    make(map[string][]Record),
		summaries:  make(map[string]*SummaryTable),
		estimators: make(map[string]domain.Estimator),
		now:        now,
	}
}

// SetObserver attaches the module's tallies to the observer's metrics
// registry: the hermes_dcsm_observations_total and _estimates_total
// families are declared here and nowhere else.
func (db *DB) SetObserver(o *obs.Observer) {
	r := o.Registry()
	r.AttachCounter("hermes_dcsm_observations_total", "completed call measurements folded into DCSM statistics", db.observations.Value)
	for i, source := range estimateSources {
		r.AttachCounter("hermes_dcsm_estimates_total", "cost estimates served, by source (native, summary, raw, none)", db.estimates[i].Value, "source", source)
	}
}

// RegisterEstimator connects a domain's native cost model: estimates for
// that domain are directed to it, per the module's extensibility contract.
func (db *DB) RegisterEstimator(dom string, est domain.Estimator) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.estimators[dom] = est
}

// Observe records the measurement of an executed call into the cost vector
// database. Incomplete measurements contribute only their first-answer
// time.
func (db *DB) Observe(m domain.Measurement) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.observations.Inc()
	rec := Record{
		Call:       m.Call,
		Cost:       m.Cost,
		HasTf:      true,
		HasTa:      m.Complete,
		HasCard:    m.Complete,
		RecordedAt: db.now(),
	}
	key := groupKey(m.Call.Domain, m.Call.Function, len(m.Call.Args))
	recs := append(db.records[key], rec)
	if db.cfg.MaxRecordsPerCall > 0 && len(recs) > db.cfg.MaxRecordsPerCall {
		recs = recs[len(recs)-db.cfg.MaxRecordsPerCall:]
	}
	db.records[key] = recs
}

// ObserveRecord inserts a fully-specified record, preserving its original
// timestamp and validity flags. Used to replay one database's records into
// another (e.g. building a lossy twin for comparison experiments).
func (db *DB) ObserveRecord(rec Record) {
	db.mu.Lock()
	defer db.mu.Unlock()
	key := groupKey(rec.Call.Domain, rec.Call.Function, len(rec.Call.Args))
	recs := append(db.records[key], rec)
	if db.cfg.MaxRecordsPerCall > 0 && len(recs) > db.cfg.MaxRecordsPerCall {
		recs = recs[len(recs)-db.cfg.MaxRecordsPerCall:]
	}
	db.records[key] = recs
}

// RecordCount returns the number of raw records held for a function.
func (db *DB) RecordCount(dom, fn string, arity int) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.records[groupKey(dom, fn, arity)])
}

// Records returns a copy of the raw records for a function, in recording
// order.
func (db *DB) Records(dom, fn string, arity int) []Record {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return append([]Record(nil), db.records[groupKey(dom, fn, arity)]...)
}

// DropDetail deletes the raw records of a function, keeping only its
// summary tables — the space-saving motivation of §6.2.
func (db *DB) DropDetail(dom, fn string, arity int) {
	db.mu.Lock()
	defer db.mu.Unlock()
	delete(db.records, groupKey(dom, fn, arity))
}

// FunctionStat is one domain function's statistics footprint: how much
// raw and summarized evidence backs its cost estimates. The calibration
// debug view joins these counts against the observer's q-error table so
// operators can see whether a badly-calibrated function is starved of
// statistics or mis-summarized.
type FunctionStat struct {
	Domain        string `json:"domain"`
	Function      string `json:"function"`
	Arity         int    `json:"arity"`
	Records       int    `json:"records"`
	SummaryTables int    `json:"summary_tables"`
}

// FunctionStats returns one row per domain function that has raw records
// or summary tables, sorted by domain, function, arity.
func (db *DB) FunctionStats() []FunctionStat {
	db.mu.RLock()
	defer db.mu.RUnlock()
	byKey := map[string]*FunctionStat{}
	get := func(dom, fn string, arity int) *FunctionStat {
		key := groupKey(dom, fn, arity)
		st := byKey[key]
		if st == nil {
			st = &FunctionStat{Domain: dom, Function: fn, Arity: arity}
			byKey[key] = st
		}
		return st
	}
	for _, recs := range db.records {
		if len(recs) == 0 {
			continue
		}
		c := recs[0].Call
		get(c.Domain, c.Function, len(c.Args)).Records = len(recs)
	}
	for _, t := range db.summaries {
		get(t.Domain, t.Function, t.Arity).SummaryTables++
	}
	out := make([]FunctionStat, 0, len(byKey))
	for _, st := range byKey {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Domain != out[j].Domain {
			return out[i].Domain < out[j].Domain
		}
		if out[i].Function != out[j].Function {
			return out[i].Function < out[j].Function
		}
		return out[i].Arity < out[j].Arity
	})
	return out
}

// weight returns the recency weight of a record at summarization or
// estimation time.
func (db *DB) weight(rec Record, now time.Duration) float64 {
	if db.cfg.RecencyHalfLife <= 0 {
		return 1
	}
	age := now - rec.RecordedAt
	if age <= 0 {
		return 1
	}
	return math.Pow(0.5, float64(age)/float64(db.cfg.RecencyHalfLife))
}

// StorageStats reports the module's footprint: raw records, summary tables
// and summary rows. Used by the summarization ablation.
type StorageStats struct {
	RawRecords    int
	SummaryTables int
	SummaryRows   int
}

// Storage returns current footprint counters.
func (db *DB) Storage() StorageStats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var s StorageStats
	for _, recs := range db.records {
		s.RawRecords += len(recs)
	}
	s.SummaryTables = len(db.summaries)
	for _, t := range db.summaries {
		s.SummaryRows += len(t.rows)
	}
	return s
}

// aggregate folds a set of records into a cost vector, respecting missing
// components and recency weights. ok=false when no record contributes
// anything.
func (db *DB) aggregate(recs []Record, match func(Record) bool) (domain.CostVector, bool) {
	now := db.now()
	var sumTf, sumTa, sumCard float64
	var wTf, wTa, wCard float64
	for _, r := range recs {
		if !match(r) {
			continue
		}
		w := db.weight(r, now)
		if r.HasTf {
			sumTf += w * float64(r.Cost.TFirst)
			wTf += w
		}
		if r.HasTa {
			sumTa += w * float64(r.Cost.TAll)
			wTa += w
		}
		if r.HasCard {
			sumCard += w * r.Cost.Card
			wCard += w
		}
	}
	if wTf == 0 && wTa == 0 && wCard == 0 {
		return domain.CostVector{}, false
	}
	var cv domain.CostVector
	if wTf > 0 {
		cv.TFirst = time.Duration(sumTf / wTf)
	}
	if wTa > 0 {
		cv.TAll = time.Duration(sumTa / wTa)
	}
	if wCard > 0 {
		cv.Card = sumCard / wCard
	}
	// Fill gaps conservatively: a missing Ta is at least Tf.
	if wTa == 0 {
		cv.TAll = cv.TFirst
	}
	if wCard == 0 {
		cv.Card = 1
	}
	return cv, true
}

// matchPattern reports whether a record's call matches a pattern's known
// constants.
func matchPattern(p domain.Pattern, c domain.Call) bool {
	if len(p.Args) != len(c.Args) {
		return false
	}
	for i, a := range p.Args {
		if a.Known && !term.Equal(a.Val, c.Args[i]) {
			return false
		}
	}
	return true
}

// dimsKey canonically encodes a dimension set.
func dimsKey(dims []int) string {
	parts := make([]string, len(dims))
	for i, d := range dims {
		parts[i] = fmt.Sprintf("%d", d)
	}
	return strings.Join(parts, ",")
}

// tableKey identifies a summary table by function and dimension set.
func tableKey(dom, fn string, arity int, dims []int) string {
	return groupKey(dom, fn, arity) + "[" + dimsKey(dims) + "]"
}

// normalizeDims sorts and deduplicates a dimension list and validates it
// against the arity.
func normalizeDims(dims []int, arity int) ([]int, error) {
	out := append([]int(nil), dims...)
	sort.Ints(out)
	prev := -1
	for _, d := range out {
		if d < 0 || d >= arity {
			return nil, fmt.Errorf("dimension %d out of range for arity %d", d, arity)
		}
		if d == prev {
			return nil, fmt.Errorf("duplicate dimension %d", d)
		}
		prev = d
	}
	return out, nil
}
