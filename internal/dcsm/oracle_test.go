package dcsm

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hermes/internal/domain"
	"hermes/internal/term"
)

// The oracle: raw estimation as this package did it before the per-mask
// indexes — a breadth-first relaxation with a visited set, each level a
// linear fold over every record of the function. It lives on only here,
// as the definition the index has to reproduce bit for bit.

func refWeight(cfg Config, rec Record, now time.Duration) float64 {
	if cfg.RecencyHalfLife <= 0 {
		return 1
	}
	age := now - rec.RecordedAt
	if age <= 0 {
		return 1
	}
	return math.Pow(0.5, float64(age)/float64(cfg.RecencyHalfLife))
}

func refAggregate(cfg Config, now time.Duration, recs []Record, match func(Record) bool) (domain.CostVector, bool) {
	var sumTf, sumTa, sumCard float64
	var wTf, wTa, wCard float64
	for _, r := range recs {
		if !match(r) {
			continue
		}
		w := refWeight(cfg, r, now)
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
	if wTa == 0 {
		cv.TAll = cv.TFirst
	}
	if wCard == 0 {
		cv.Card = 1
	}
	return cv, true
}

func refMatchPattern(p domain.Pattern, c domain.Call) bool {
	if len(p.Args) != len(c.Args) {
		return false
	}
	for i, a := range p.Args {
		if a.Known && a.Val.Key() != c.Args[i].Key() {
			return false
		}
	}
	return true
}

func refKnownPositions(p domain.Pattern) []int {
	var out []int
	for i, a := range p.Args {
		if a.Known {
			out = append(out, i)
		}
	}
	return out
}

// refCost estimates p from recs alone (no summary tables, no native
// estimator) and returns the lookup trace CostWithTrace renders.
func refCost(cfg Config, now time.Duration, recs []Record, p domain.Pattern) (domain.CostVector, []string, bool) {
	var trace []string
	queue := []domain.Pattern{p}
	visited := map[uint64]bool{p.Mask(): true}
	for len(queue) > 0 {
		q := queue[0]
		queue = queue[1:]
		dims := refKnownPositions(q)
		if cfg.AllowRawAggregation && len(recs) > 0 {
			if cv, ok := refAggregate(cfg, now, recs, func(r Record) bool { return refMatchPattern(q, r.Call) }); ok {
				trace = append(trace, fmt.Sprintf("raw aggregation over cost vector database for %s", q))
				return cv, trace, true
			}
			trace = append(trace, fmt.Sprintf("raw database: no records match %s", q))
		} else {
			trace = append(trace, fmt.Sprintf("no table with dims %s for %s", dimsKey(dims), q))
		}
		for _, d := range dims {
			r := q.Relax(d)
			if m := r.Mask(); !visited[m] {
				visited[m] = true
				queue = append(queue, r)
			}
		}
	}
	return domain.CostVector{}, trace, false
}

// A small value alphabet per position, so that tuples repeat, partially
// overlap and sometimes never occur; position 1 mixes kinds whose keys
// differ though they compare numerically equal. The snapshot format cannot
// carry a NaN argument and reads -0 back as +0, so the runs that Save leave
// those to the runs that do not.
var oracleAlphabet = [][]term.Value{
	{term.Str("a"), term.Str("b"), term.Str(`q"uote`), term.Str("unseen")},
	{term.Int(1), term.Float(1), term.Float(0), term.Int(0)},
	{term.Tuple{term.Int(1), term.Str("x")}, term.Tuple{term.Int(1), term.Str("y")}, term.Bool(true)},
}

var oracleAlphabetNoSave = [][]term.Value{
	oracleAlphabet[0],
	append([]term.Value{term.Float(math.NaN()), term.Float(math.Float64frombits(0x7ff8000000000123)),
		term.Float(math.Copysign(0, -1))}, oracleAlphabet[1]...),
	oracleAlphabet[2],
}

const oracleArity = 3

func oraclePattern(rng *rand.Rand, alphabet [][]term.Value, mask int) domain.Pattern {
	p := domain.Pattern{Domain: "d", Function: "f", Args: make([]domain.PatternArg, oracleArity)}
	for i := range p.Args {
		if mask&(1<<i) != 0 {
			p.Args[i] = domain.Const(alphabet[i][rng.Intn(len(alphabet[i]))])
		}
	}
	return p
}

func oracleRecord(rng *rand.Rand, alphabet [][]term.Value, at time.Duration) Record {
	args := make([]term.Value, oracleArity)
	for i := range args {
		// Never draw the last letter of position 0: "unseen" stays unseen.
		n := len(alphabet[i])
		if i == 0 {
			n--
		}
		args[i] = alphabet[i][rng.Intn(n)]
	}
	return Record{
		Call: domain.Call{Domain: "d", Function: "f", Args: args},
		Cost: domain.CostVector{
			TFirst: time.Duration(rng.Int63n(int64(time.Second))),
			TAll:   time.Duration(rng.Int63n(int64(5 * time.Second))),
			Card:   rng.Float64() * 40, // non-integer on purpose
		},
		HasTf: rng.Intn(10) != 0, HasTa: rng.Intn(4) != 0, HasCard: rng.Intn(4) != 0,
		RecordedAt: at,
	}
}

// checkAgainstOracle compares the module with the reference fold on a
// random pattern of every mask: same vector (==, no tolerance), same
// lookup path, same verdict.
func checkAgainstOracle(t *testing.T, db *DB, cfg Config, now time.Duration, recs []Record, rng *rand.Rand, alphabet [][]term.Value, step int) {
	t.Helper()
	for mask := 0; mask < 1<<oracleArity; mask++ {
		p := oraclePattern(rng, alphabet, mask)
		want, wantTrace, wantOK := refCost(cfg, now, recs, p)
		got, gotTrace, err := db.CostWithTrace(p)
		if (err == nil) != wantOK || got != want {
			t.Fatalf("step %d %s over %d records: got %v (err %v), reference %v (ok %v)", step, p, len(recs), got, err, want, wantOK)
		}
		if !reflect.DeepEqual(gotTrace, wantTrace) {
			t.Fatalf("step %d %s: lookup path\n got %q\nwant %q", step, p, gotTrace, wantTrace)
		}
		if plain, plainErr := db.Cost(p); plain != got || (plainErr == nil) != (err == nil) {
			t.Fatalf("step %d %s: Cost %v (err %v) differs from CostWithTrace %v (err %v)", step, p, plain, plainErr, got, err)
		}
	}
}

func TestIndexMatchesReferenceFold(t *testing.T) {
	for _, half := range []time.Duration{0, 10 * time.Second} {
		for _, max := range []int{0, 7} {
			for _, persist := range []bool{true, false} {
				cfg := Config{AllowRawAggregation: true, RecencyHalfLife: half, MaxRecordsPerCall: max}
				alphabet := oracleAlphabetNoSave
				if persist {
					alphabet = oracleAlphabet
				}
				t.Run(fmt.Sprintf("halflife=%v/max=%d/persist=%v", half, max, persist), func(t *testing.T) {
					for seed := int64(0); seed < 6; seed++ {
						runAgainstOracle(t, cfg, alphabet, persist, seed)
					}
				})
			}
		}
	}
}

// runAgainstOracle interleaves observations, replayed records, DropDetail,
// Save→Load and estimates, mirroring every change to the database in the
// reference's own record list.
func runAgainstOracle(t *testing.T, cfg Config, alphabet [][]term.Value, persist bool, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	var now time.Duration
	clock := func() time.Duration { return now }
	db := New(cfg, clock)
	var recs []Record
	keep := func(r Record) {
		recs = append(recs, r)
		if max := cfg.MaxRecordsPerCall; max > 0 && len(recs) > max {
			recs = recs[len(recs)-max:]
		}
	}
	for step := 0; step < 300; step++ {
		now += time.Duration(rng.Intn(3000)) * time.Millisecond
		switch op := rng.Intn(40); {
		case op < 12:
			r := oracleRecord(rng, alphabet, now)
			db.Observe(domain.Measurement{Call: r.Call, Cost: r.Cost, Complete: r.HasTa})
			r.HasTf, r.HasCard = true, r.HasTa
			keep(r)
		case op < 24:
			// Replayed records carry their own stamp and may miss any component.
			r := oracleRecord(rng, alphabet, now-time.Duration(rng.Intn(20000))*time.Millisecond)
			db.observeRecord(r)
			keep(r)
		case op == 24:
			db.DropDetail("d", "f", oracleArity)
			recs = nil
		case op == 25 && persist:
			var buf bytes.Buffer
			if err := db.Save(&buf); err != nil {
				t.Fatal(err)
			}
			db = New(cfg, clock)
			if err := db.Load(&buf); err != nil {
				t.Fatal(err)
			}
		default:
			checkAgainstOracle(t, db, cfg, now, recs, rng, alphabet, step)
		}
	}
	checkAgainstOracle(t, db, cfg, now, recs, rng, alphabet, -1)
}

// TestIndexUnderConcurrentObserversAndEstimators is the production shape
// (default Parallelism > 1): estimates race observations. Run under -race
// it checks the locking; afterwards the indexes the race built must agree
// with a reference fold over the records in the order the module kept them.
func TestIndexUnderConcurrentObserversAndEstimators(t *testing.T) {
	for _, half := range []time.Duration{0, 10 * time.Second} {
		for _, max := range []int{0, 50} {
			cfg := Config{AllowRawAggregation: true, RecencyHalfLife: half, MaxRecordsPerCall: max}
			var ticks atomic.Int64
			var frozen atomic.Bool
			db := New(cfg, func() time.Duration {
				if frozen.Load() {
					return time.Duration(ticks.Load())
				}
				return time.Duration(ticks.Add(int64(time.Second)))
			})
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(2)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < 400; i++ {
						r := oracleRecord(rng, oracleAlphabetNoSave, 0)
						db.Observe(domain.Measurement{Call: r.Call, Cost: r.Cost, Complete: r.HasTa})
					}
				}(int64(w))
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < 400; i++ {
						_, _ = db.Cost(oraclePattern(rng, oracleAlphabetNoSave, rng.Intn(1<<oracleArity)))
					}
				}(int64(100 + w))
			}
			wg.Wait()
			frozen.Store(true)
			recs := db.Records("d", "f", oracleArity)
			want := 1600
			if max > 0 {
				want = max
			}
			if len(recs) != want {
				t.Fatalf("%d records kept, want %d", len(recs), want)
			}
			checkAgainstOracle(t, db, cfg, time.Duration(ticks.Load()), recs, rand.New(rand.NewSource(7)), oracleAlphabetNoSave, 0)
		}
	}
}

// TestCostAllocsFlat: an estimate is a hash probe, so it allocates
// nothing, however much history the function has: the pattern's values
// are copied into a buffer on the estimate's stack, which a trace that
// rendered search levels from it would move to the heap. (Before the indexes, each estimate built two key strings per record
// argument it compared; before tables were probed by hash, a table hit
// built a key string for the row it looked up.) The raw levels are probed
// through the index, the (rope, 7, $b) level through a summary table.
func TestCostAllocsFlat(t *testing.T) {
	ground := domain.Pattern{Domain: "d", Function: "f", Args: []domain.PatternArg{
		domain.Const(term.Str("rope")), domain.Const(term.Int(7)), domain.Const(term.Int(37)),
	}}
	allBound := domain.Pattern{Domain: "d", Function: "f", Args: []domain.PatternArg{
		domain.Bound, domain.Bound, domain.Bound,
	}}
	tableHit := domain.Pattern{Domain: "d", Function: "f", Args: []domain.PatternArg{
		domain.Const(term.Str("rope")), domain.Const(term.Int(7)), domain.Bound,
	}}
	measure := func(n int) (groundAllocs, boundAllocs, tableAllocs float64) {
		db := New(DefaultConfig(), nil)
		for i := 0; i < n; i++ {
			db.Observe(domain.Measurement{
				Call: domain.Call{Domain: "d", Function: "f", Args: []term.Value{
					term.Str("rope"), term.Int(int64(i % 40)), term.Int(int64(i%40 + 30)),
				}},
				Cost:     domain.CostVector{TFirst: time.Millisecond, TAll: 2 * time.Millisecond, Card: 5},
				Complete: true,
			})
		}
		if _, err := db.Summarize("d", "f", 3, []int{0, 1}); err != nil {
			t.Fatal(err)
		}
		for _, p := range []domain.Pattern{ground, allBound} {
			if _, err := db.Cost(p); err != nil { // first ask builds the index
				t.Fatal(err)
			}
		}
		before := db.TableHits()["d:f/3[0,1]"]
		cost := func(p domain.Pattern) func() {
			return func() {
				if _, err := db.Cost(p); err != nil {
					t.Fatal(err)
				}
			}
		}
		groundAllocs, boundAllocs = testing.AllocsPerRun(200, cost(ground)), testing.AllocsPerRun(200, cost(allBound))
		tableAllocs = testing.AllocsPerRun(200, cost(tableHit))
		if hits := db.TableHits()["d:f/3[0,1]"] - before; hits != 201 {
			t.Fatalf("the summary table served %d of the 201 (rope, 7, $b) estimates", hits)
		}
		return groundAllocs, boundAllocs, tableAllocs
	}
	smallGround, smallBound, smallTable := measure(1000)
	largeGround, largeBound, largeTable := measure(200000)
	if smallGround != largeGround || smallBound != largeBound || smallTable != largeTable {
		t.Errorf("allocations per estimate grow with history: ground %v -> %v, all-$b %v -> %v, table hit %v -> %v",
			smallGround, largeGround, smallBound, largeBound, smallTable, largeTable)
	}
	if largeGround != 0 || largeBound != 0 || largeTable != 0 {
		t.Errorf("an estimate allocates: ground %v, all-$b %v, table hit %v per call", largeGround, largeBound, largeTable)
	}
}
