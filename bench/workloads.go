package main

import (
	"fmt"
	"math/rand"

	"hermes/internal/domain"
	"hermes/internal/term"
	"hermes/internal/workload"
)

// spec is one workload instance: the seeded query list the program under
// test receives, and how its system is configured.
type spec struct {
	name string
	// queries is the timed list in issue order; warm is replayed once,
	// untimed, on the fresh system before it.
	queries []string
	warm    []string
	// probes are the workload's ground source calls, replayed by the traced
	// run's per-layer probe sections.
	probes []domain.Call
	// cacheEntries bounds both the CIM and the memo cache (0: daemon
	// defaults, far above any working set here).
	cacheEntries int
	// noCache removes the CIM and the memo cache.
	noCache bool
	// twoHop puts every source behind a loopback remote.Server.
	twoHop bool
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"cache_hot", "cache_churn", "join_scan", "two_hop"}

// baseN is each workload's query count per timed round, sized so a round
// (set-up plus timed section) takes about four seconds on the seed commit
// on two cores; see README.md for the re-sizing rule.
var baseN = map[string]int{
	"cache_hot":   16000,
	"cache_churn": 2000,
	"join_scan":   96,
	"two_hop":     56,
}

// poolSeed fixes every workload's pool of queries. The run's seed orders
// the pool, it does not redraw it: mean cost per query depends on how many
// objects the drawn ranges happen to cover, which moved allocations per
// query by 6 % (cache_hot) to 14 % (join_scan) from seed to seed when each
// seed drew its own ranges, far more than any bound worth keeping.
const poolSeed = 1996

// segment is the length of one workload.FrameRanges draw. FrameRanges
// repeats and widens calls it drew earlier in the same draw, so a segment
// is the unit of locality: the seed permutes whole segments and leaves each
// one's order alone, which keeps a widening after the range it widens.
const segment = 40

// frameRanges draws n frame-range calls over a video as FrameRanges
// segments.
func frameRanges(pool *rand.Rand, video string, frames, n int, repeat, widen float64) []domain.Call {
	out := make([]domain.Call, 0, n)
	for len(out) < n {
		k := segment
		if n-len(out) < k {
			k = n - len(out)
		}
		out = append(out, workload.FrameRanges(workload.FrameRangeConfig{
			Video: video, Frames: frames, N: k,
			RepeatFrac: repeat, NarrowFrac: widen, Seed: pool.Int63(),
		})...)
	}
	return out
}

// shuffleSegments permutes whole segments of qs.
func shuffleSegments(rng *rand.Rand, qs []string) []string {
	var segs [][]string
	for ; len(qs) > segment; qs = qs[segment:] {
		segs = append(segs, qs[:segment])
	}
	segs = append(segs, qs)
	rng.Shuffle(len(segs), func(i, j int) { segs[i], segs[j] = segs[j], segs[i] })
	var out []string
	for _, seg := range segs {
		out = append(out, seg...)
	}
	return out
}

func rangeArgs(c domain.Call) (f, l int64) {
	return int64(c.Args[1].(term.Int)), int64(c.Args[2].(term.Int))
}

// ropeQuery renders a rope frame-range call as one of the four query forms
// of the cache workloads: the IDB rule (a memo serve), the same conjunction
// as raw in() atoms (one CIM exact hit per call), the range API (an
// equality-invariant hit) and the fixed actors query.
func ropeQuery(form int, c domain.Call) string {
	f, l := rangeArgs(c)
	switch form {
	case 0:
		return fmt.Sprintf("?- query3(%d, %d, O, A).", f, l)
	case 1:
		return fmt.Sprintf("?- in(O, avis:frames_to_objects('rope', %d, %d)) & in(P, ingres:equal('cast', 'role', O)) & =(P.name, A).", f, l)
	case 2:
		return fmt.Sprintf("?- in(O, avis:objects_in_range('rope', %d, %d)).", f, l)
	default:
		return "?- actors(A)."
	}
}

// ropeQueries mixes the four forms 40/30/20/10 over the calls, in exact
// proportion.
func ropeQueries(pool *rand.Rand, calls []domain.Call) []string {
	forms := make([]int, len(calls))
	for i := range forms {
		forms[i] = [10]int{0, 0, 0, 0, 1, 1, 1, 2, 2, 3}[i%10]
	}
	pool.Shuffle(len(forms), func(i, j int) { forms[i], forms[j] = forms[j], forms[i] })
	out := make([]string, len(calls))
	for i, c := range calls {
		out[i] = ropeQuery(forms[i], c)
	}
	return out
}

// ropeProbes is the ground-call view of the rope workloads: each range
// through both AVIS entry points.
func ropeProbes(calls []domain.Call) []domain.Call {
	out := make([]domain.Call, 0, 2*len(calls))
	for _, c := range calls {
		alias := c
		alias.Function = "objects_in_range"
		out = append(out, c, alias)
	}
	return out
}

// unseenRanges draws k distinct rope ranges that are not among calls.
func unseenRanges(pool *rand.Rand, calls []domain.Call, k int) []domain.Call {
	seen := map[string]bool{}
	for _, c := range calls {
		seen[c.Key()] = true
	}
	var out []domain.Call
	for len(out) < k {
		f := pool.Intn(120)
		c := domain.Call{Domain: "avis", Function: "frames_to_objects",
			Args: []term.Value{term.Str("rope"), term.Int(int64(f)), term.Int(int64(f + 5 + pool.Intn(35)))}}
		if !seen[c.Key()] {
			seen[c.Key()] = true
			out = append(out, c)
		}
	}
	return out
}

var crewRoles = []string{"grip", "gaffer", "editor", "camera", "sound", "set", "costume", "extra"}

// newSpec generates a workload's inputs: n timed queries (baseN outside
// tests) drawn from the fixed pool and ordered by the seed.
func newSpec(name string, seed int64, n int) (*spec, error) {
	pool := rand.New(rand.NewSource(poolSeed))
	rng := rand.New(rand.NewSource(seed))
	sp := &spec{name: name}
	switch name {
	case "cache_hot":
		// Read side of the cache layers: a fixed set of ranges, pre-warmed by
		// one pass, so every timed query is answered from the caches. One
		// query in 256 asks a range the caches have not seen, because a
		// hit rate of exactly 1 would leave source_calls_per_query at 0.
		distinct := 600
		if n/4 < distinct {
			distinct = n / 4
		}
		cold := n/256 + 1
		calls := frameRanges(pool, "rope", 160, distinct, 0.6, 0.25)
		sp.warm = ropeQueries(pool, calls)
		for len(sp.queries) < n-cold {
			sp.queries = append(sp.queries, sp.warm...)
		}
		sp.queries = sp.queries[:n-cold]
		rng.Shuffle(n-cold, func(i, j int) { sp.queries[i], sp.queries[j] = sp.queries[j], sp.queries[i] })
		// One cold query per stretch of the list, at a seeded place in it:
		// each adds DCSM records every later query's estimate reads, so
		// their spacing has to be the same for every seed.
		stretch := (n - cold) / cold
		hot := sp.queries
		sp.queries = make([]string, 0, n)
		for i, q := range ropeQueries(pool, unseenRanges(pool, calls, cold)) {
			at := rng.Intn(stretch + 1)
			sp.queries = append(sp.queries, hot[i*stretch:i*stretch+at]...)
			sp.queries = append(sp.queries, q)
			sp.queries = append(sp.queries, hot[i*stretch+at:(i+1)*stretch]...)
		}
		sp.queries = append(sp.queries, hot[cold*stretch:]...)
		sp.probes = ropeProbes(calls)
	case "cache_churn":
		// Write side: mostly distinct ranges against caches of 64 entries,
		// filled to capacity before timing starts.
		calls := frameRanges(pool, "rope", 160, n+n/8, 0.1, 0.2)
		all := ropeQueries(pool, calls)
		sp.warm, sp.queries = all[:n/8], shuffleSegments(rng, all[n/8:])
		sp.cacheEntries = 64
		sp.probes = ropeProbes(calls)
	case "join_scan", "two_hop":
		// Engine and source path with the caches removed; two_hop puts the
		// same news queries behind a remote hop.
		sp.noCache = true
		sp.twoHop = name == "two_hop"
		var all []string
		for i, c := range frameRanges(pool, "newsreel", 1200, n+n/8, 0.1, 0.2) {
			if i%4 == 3 && !sp.twoHop {
				all = append(all, fmt.Sprintf("?- crew_pairs('%s', A, B).", crewRoles[pool.Intn(len(crewRoles))]))
				continue
			}
			f, l := rangeArgs(c)
			all = append(all, fmt.Sprintf("?- news(%d, %d, O, Frames).", f, l))
			sp.probes = append(sp.probes, c)
		}
		sp.warm, sp.queries = all[:n/8], shuffleSegments(rng, all[n/8:])
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	return sp, nil
}
