// Package dcsm implements the Domain Cost and Statistics Module of the
// paper (§6): a statistics cache that records the cost vectors [Tf, Ta,
// Card] of actual calls to source domains and answers cost-estimation
// queries DCSM:cost(domain:function(c1, ..., ck, $b, ..., $b)) from them.
//
// Statistics live in two forms: the cost vector database (one record per
// executed call, with its record time) and summary tables. A summary table
// keeps a chosen subset of argument positions as dimensions; each row
// averages the metrics of the records sharing its dimension values and
// keeps their count, the paper's l. Keeping every position is lossless
// summarization; dropping some (typically those that can never be
// constants at plan time) is lossy. Estimation searches the most specific
// applicable table first and relaxes known constants to $b on misses
// (§6.3). Tables are snapshots and take precedence at their mask.
//
// Where no table covers a level, the raw database answers it through one
// index per dimension mask an estimate has asked for (§6.2.2's "create
// tables by access pattern", done automatically), folded forward on every
// Observe, rebuilt on demand when records are trimmed, dropped or loaded,
// and never persisted. Tables and indexes are one fold: weighted sums per
// row in recording order, one division per component, one gap-fill. So a
// lossless table built without recency weighting returns exactly the raw
// estimate, and both are probed by hash and term.Equal, without allocating.
//
// Domains that provide their own cost model plug in through
// domain.Estimator; the DCSM forwards their estimates and fills in only the
// missing components from cached statistics.
//
// The module grades its own estimates: Observe compares each complete
// measurement with the estimate it held just before, into the q-error
// windows of Calibration. Cost is the planner's read and the only one
// counted toward AutoTune; Peek serves every read that only displays or
// prices a number, so watching the module never changes what it keeps.
package dcsm

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"time"

	"hermes/internal/domain"
	"hermes/internal/obs"
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

// funcKey identifies one domain function: everything the module knows
// about it — raw records, per-mask indexes, summary tables — hangs off one
// group under this key.
type funcKey struct {
	domain, function string
	arity            int
}

func keyOf(c domain.Call) funcKey { return funcKey{c.Domain, c.Function, len(c.Args)} }

func (k funcKey) String() string { return fmt.Sprintf("%s:%s/%d", k.domain, k.function, k.arity) }

// group is the state of one domain function.
type group struct {
	recs    []Record                 // raw cost vector database, in recording order
	indexes map[uint64]*maskIndex    // by dimension mask; derived from recs
	tables  map[uint64]*SummaryTable // by dimension mask; explicit snapshots
}

// DB is the domain cost and statistics module.
type DB struct {
	cfg Config

	mu         sync.RWMutex
	groups     map[funcKey]*group
	estimators map[string]domain.Estimator
	now        func() time.Duration

	// cal grades the module's estimates against the measurements that
	// follow them: the q-error windows calibration-inflated costing reads.
	cal *obs.Calibration

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
		groups:     make(map[funcKey]*group),
		estimators: make(map[string]domain.Estimator),
		now:        now,
		cal:        obs.NewCalibration(),
	}
}

// SetObserver attaches the module's tallies to the observer's metrics
// registry: the hermes_dcsm_observations_total and _estimates_total
// families are declared here and nowhere else, and the calibration's
// per-domain hermes_dcsm_qerror_{tf,ta,card} series are attached here.
// The estimates family counts the planner's reads (Cost), not Peek's.
func (db *DB) SetObserver(o *obs.Observer) {
	r := o.Registry()
	r.AttachCounter("hermes_dcsm_observations_total", "completed call measurements folded into DCSM statistics", db.observations.Value)
	for i, source := range estimateSources {
		r.AttachCounter("hermes_dcsm_estimates_total", "cost estimates served, by source (native, summary, raw, none)", db.estimates[i].Value, "source", source)
	}
	db.cal.SetRegistry(r)
}

// Calibration returns the module's record of how wrong its estimates have
// been: per (domain, function) q-error windows, fed by Observe and Grade.
func (db *DB) Calibration() *obs.Calibration { return db.cal }

// RegisterEstimator connects a domain's native cost model: estimates for
// that domain are directed to it, per the module's extensibility contract.
func (db *DB) RegisterEstimator(dom string, est domain.Estimator) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.estimators[dom] = est
}

// Observe records the measurement of an executed call into the cost vector
// database. Incomplete measurements contribute only their first-answer
// time. A complete one is first graded against the estimate the module
// held just before recording it; an incomplete one carries no usable Ta or
// Card, and is not.
func (db *DB) Observe(m domain.Measurement) {
	if m.Complete {
		db.Grade(m.Call, m.Cost)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.observations.Inc()
	db.insert(Record{
		Call:       m.Call,
		Cost:       m.Cost,
		HasTf:      true,
		HasTa:      m.Complete,
		HasCard:    m.Complete,
		RecordedAt: db.now(),
	})
}

// Grade feeds the q-error of the module's current estimate for a call
// against its measured actual into the calibration. A call with no
// estimate yet has nothing to grade. Observe grades the module's own
// measurements; a mounted peer's reported actuals arrive here directly.
func (db *DB) Grade(c domain.Call, actual domain.CostVector) {
	if est, ok := db.Peek(c); ok {
		db.cal.Observe(c.Domain, c.Function, est, actual)
	}
}

// group returns the state of a function, creating it on first use. The
// caller holds the write lock.
func (db *DB) group(k funcKey) *group {
	g := db.groups[k]
	if g == nil {
		g = &group{}
		db.groups[k] = g
	}
	return g
}

// view returns the state of a function for reading; one never seen reads
// as empty.
func (db *DB) view(k funcKey) *group {
	if g := db.groups[k]; g != nil {
		return g
	}
	return &group{}
}

// insert appends a record and carries the function's indexes forward. A
// MaxRecordsPerCall trim shifts every record index, so it drops the indexes
// instead; the next estimate refolds the one it needs.
func (db *DB) insert(rec Record) {
	g := db.group(keyOf(rec.Call))
	g.recs = append(g.recs, rec)
	if max := db.cfg.MaxRecordsPerCall; max > 0 && len(g.recs) > max {
		g.recs = g.recs[len(g.recs)-max:]
		g.dropIndexes()
		return
	}
	g.indexLast(db.cfg.RecencyHalfLife > 0)
}

// Records returns a copy of the raw records for a function, in recording
// order.
func (db *DB) Records(dom, fn string, arity int) []Record {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return append([]Record(nil), db.view(funcKey{dom, fn, arity}).recs...)
}

// DropDetail deletes the raw records of a function, keeping only its
// summary tables — the space-saving motivation of §6.2.
func (db *DB) DropDetail(dom, fn string, arity int) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if g := db.groups[funcKey{dom, fn, arity}]; g != nil {
		g.recs = nil
		g.dropIndexes()
	}
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
	var out []FunctionStat
	for _, k := range db.sortedKeys() {
		g := db.groups[k]
		if len(g.recs) == 0 && len(g.tables) == 0 {
			continue
		}
		out = append(out, FunctionStat{Domain: k.domain, Function: k.function, Arity: k.arity,
			Records: len(g.recs), SummaryTables: len(g.tables)})
	}
	return out
}

// sortedKeys returns the function keys ordered by domain, function, arity:
// the one order every listing and the snapshot use.
func (db *DB) sortedKeys() []funcKey {
	keys := make([]funcKey, 0, len(db.groups))
	for k := range db.groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.domain != b.domain {
			return a.domain < b.domain
		}
		if a.function != b.function {
			return a.function < b.function
		}
		return a.arity < b.arity
	})
	return keys
}

// weight returns the recency weight of a record at summarization or
// estimation time.
func (db *DB) weight(rec *Record, now time.Duration) float64 {
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
	for _, g := range db.groups {
		s.RawRecords += len(g.recs)
		s.SummaryTables += len(g.tables)
		for _, t := range g.tables {
			s.SummaryRows += len(t.rows)
		}
	}
	return s
}

// dimsKey canonically encodes a dimension set.
func dimsKey(dims []int) string {
	parts := make([]string, len(dims))
	for i, d := range dims {
		parts[i] = fmt.Sprintf("%d", d)
	}
	return strings.Join(parts, ",")
}

// tableKey names a (function, dimension set) pair the way AutoTune and the
// access counters report it.
func tableKey(k funcKey, dims []int) string {
	return k.String() + "[" + dimsKey(dims) + "]"
}

// maxDims is how many argument positions a dimension mask can name.
// Pattern.Mask drops positions past it, so estimation treats them as $b.
const maxDims = 64

// normalizeDims sorts and deduplicates a dimension list and validates it
// against the arity.
func normalizeDims(dims []int, arity int) ([]int, error) {
	out := append([]int(nil), dims...)
	sort.Ints(out)
	prev := -1
	for _, d := range out {
		if d < 0 || d >= arity || d >= maxDims {
			return nil, fmt.Errorf("dimension %d out of range for arity %d", d, arity)
		}
		if d == prev {
			return nil, fmt.Errorf("duplicate dimension %d", d)
		}
		prev = d
	}
	return out, nil
}

// dimsMask is the bitmask form of a normalized dimension list; maskDims is
// its inverse.
func dimsMask(dims []int) uint64 {
	var m uint64
	for _, d := range dims {
		m |= 1 << uint(d)
	}
	return m
}

func maskDims(mask uint64) []int {
	dims := make([]int, 0, bits.OnesCount64(mask))
	for ; mask != 0; mask &= mask - 1 {
		dims = append(dims, bits.TrailingZeros64(mask))
	}
	return dims
}
