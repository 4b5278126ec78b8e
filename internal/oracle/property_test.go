package oracle_test

import (
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hermes/internal/cim"
	"hermes/internal/core"
	"hermes/internal/domain"
	"hermes/internal/domain/domaintest"
	"hermes/internal/domains/avis"
	"hermes/internal/domains/relation"
	"hermes/internal/engine"
	"hermes/internal/faultinject"
	"hermes/internal/lang"
	"hermes/internal/memo"
	"hermes/internal/netsim"
	"hermes/internal/oracle"
	"hermes/internal/remote"
	"hermes/internal/resilience"
	"hermes/internal/term"
	"hermes/internal/vclock"
	"hermes/internal/workload"
)

// FuzzSystemMatchesOracle is the soundness property of the whole
// mediator. From a seed it draws a federation (workload.Federation's
// video store and relational database), a program from rule templates and
// a query stream with repeats and α-renames, with one source update
// halfway through, and runs the stream on a
// system configured by mode: memo on or off, Parallelism 1 or 4, caches
// unbounded or at 64 entries, invariants on or off, sources local or
// behind a loopback remote.Server, and one of three fault schedules — none,
// per-call errors, truncation and spikes, or an outage window. Then:
//
//   - without faults, every answer multiset equals the oracle's;
//   - with faults, every answer multiset is contained in the oracle's and
//     every query ends within its deadline;
//   - once faults stop and the breakers recover, replaying the stream
//     equals the oracle again, so a wrong cache or memo entry left behind
//     shows up when it is hit.
//
// The seed corpus crosses every mode with seed 1; testdata holds named
// chaos scenarios (a breaker that trips, fast-rejects, probes half-open
// and recovers) and the seeds that catch planted bugs in the CIM's
// partial merge, the memo's storage rule, the parallel union and resume;
// the slot_shapes seeds run the fixed templates with the memo on and off
// at Parallelism 1 and 4.
func FuzzSystemMatchesOracle(f *testing.F) {
	for mode := 0; mode < 3*32; mode++ {
		if c := decode(uint8(mode)); uint8(c.mode()) == uint8(mode) {
			f.Add(uint64(1), uint8(mode))
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, mode uint8) {
		checkSystem(t, seed, decode(mode))
	})
}

// Fault schedules.
const (
	noFaults = iota
	callFaults
	outage
)

// setup is one configuration of the system under test.
type setup struct {
	memo, wide, bounded, invariants, twoHop bool
	faults                                  int
}

// decode reads a mode byte: five bits of switches, then the fault
// schedule. An outage runs at Parallelism 1 only: at 4, virtual time is
// not yet a function of the seed, so neither is what a window hits.
func decode(mode uint8) setup {
	s := setup{memo: mode&1 != 0, wide: mode&2 != 0, bounded: mode&4 != 0,
		invariants: mode&8 != 0, twoHop: mode&16 != 0, faults: int(mode>>5) % 3}
	if s.faults == outage {
		s.wide = false
	}
	return s
}

func (s setup) mode() int {
	m := s.faults << 5
	for i, on := range []bool{s.memo, s.wide, s.bounded, s.invariants, s.twoHop} {
		if on {
			m |= 1 << i
		}
	}
	return m
}

// program draws the rule templates' constants from rng: a join, a union
// of two fixed ranges, an access-equivalent pair, a comparison and a
// membership test. The templates after member are fixed, so drawing them
// moves nothing in the query stream; each has a shape a rule compiled to
// variable positions can get wrong: a variable repeated inside one call
// (point), an occurrence repeating a free variable (pair, queried as
// pair(V, F, L, O, O)), head constants (band), an attribute path as an
// IDB argument (valued, queried as valued(R.k, X)), and a union of five
// rules, more than Parallelism 4 has lanes (five).
func program(rng *rand.Rand) string {
	a := rng.Intn(40)
	b := rng.Intn(40)
	return fmt.Sprintf(`
		objs(V, F, L, O) :- in(O, avis:frames_to_objects(V, F, L)).
		spans(V, F, L, O, S) :- in(O, avis:frames_to_objects(V, F, L)) & in(S, avis:object_to_frames(V, O)).
		either(V, O) :- in(O, avis:frames_to_objects(V, %d, %d)).
		either(V, O) :- in(O, avis:frames_to_objects(V, %d, %d)).
		access_equivalent('ranged', 4).
		ranged(V, F, L, O) :- in(O, avis:frames_to_objects(V, F, L)).
		ranged(V, F, L, O) :- in(O, avis:objects_in_range(V, F, L)).
		heavy(T, K, X) :- in(P, rel:all(T)) & =(P.k, K) & =(P.v, X) & X > %d.
		joined(K, X, Y) :- in(P, rel:all('table01')) & =(P.k, K) & =(P.v, X) &
		    in(Q, rel:equal('table00', 'k', K)) & =(Q.v, Y) & in(T, aux:tick(K)).
		member(V, F, L, O) :- in(O, avis:objects(V)) & in(O, avis:frames_to_objects(V, F, L)).
		point(V, F, O) :- in(O, avis:frames_to_objects(V, F, F)).
		pair(V, F, L, O, P) :- in(O, avis:frames_to_objects(V, F, L)) & in(P, avis:objects_in_range(V, F, L)).
		band(V, 'low', O) :- in(O, avis:frames_to_objects(V, 0, 30)).
		band(V, 'high', O) :- in(O, avis:frames_to_objects(V, 30, 90)).
		valued(K, X) :- in(P, rel:equal('table00', 'k', K)) & =(P.v, X).
		five(V, O) :- in(O, avis:frames_to_objects(V, 0, 12)).
		five(V, O) :- in(O, avis:frames_to_objects(V, 10, 25)).
		five(V, O) :- in(O, avis:frames_to_objects(V, 20, 40)).
		five(V, O) :- in(O, avis:frames_to_objects(V, 35, 60)).
		five(V, O) :- in(O, avis:objects_in_range(V, 50, 90)).
	`, a, a+10+rng.Intn(50), b, b+10+rng.Intn(50), rng.Intn(1000))
}

// invariants are the video store's facts the CIM may serve through.
const invariants = `
	true => avis:frames_to_objects(V, F, L) = avis:objects_in_range(V, F, L).
	F1 <= G1 & G2 <= F2 => avis:frames_to_objects(V, F1, F2) >= avis:frames_to_objects(V, G1, G2).
	true => avis:objects(V) >= avis:frames_to_objects(V, G1, G2).
`

// drawn is how many queries stream draws; the source update is armed from
// the middle of them.
const drawn = 100

// stream draws n queries: fresh draws over the templates, a third of
// them widening an earlier range so invariants serve partial answers, and
// repeats of earlier queries, half of them α-renamed. The fixed templates'
// queries follow, each once and again α-renamed, so the repeat is served
// from the memo when there is one.
func stream(rng *rand.Rand, n int) []string {
	type draw struct{ kind, video, f, l int }
	var hist []draw
	var out []string
	for i := 0; i < n; i++ {
		if len(hist) > 0 && rng.Intn(5) < 2 {
			d, suffix := hist[rng.Intn(len(hist))], ""
			if rng.Intn(2) == 0 {
				suffix = fmt.Sprintf("R%d", i)
			}
			out = append(out, render(d.kind, d.video, d.f, d.l, suffix))
			continue
		}
		d := draw{kind: rng.Intn(8), video: rng.Intn(2), f: rng.Intn(60)}
		d.l = d.f + 5 + rng.Intn(60)
		if len(hist) > 0 && rng.Intn(3) == 0 {
			p := hist[rng.Intn(len(hist))]
			d.video, d.f, d.l = p.video, max(p.f-1-rng.Intn(10), 0), p.l+1+rng.Intn(10)
		}
		hist = append(hist, d)
		out = append(out, render(d.kind, d.video, d.f, d.l, ""))
	}
	for kind := 8; kind <= 13; kind++ {
		for _, suffix := range []string{"", "R"} {
			out = append(out, render(kind, kind%2, 3+kind, 40+kind, suffix))
		}
	}
	return out
}

func render(kind, video, f, l int, s string) string {
	v := fmt.Sprintf("'video%02d'", video)
	switch kind {
	case 0:
		return fmt.Sprintf("?- objs(%s, %d, %d, O%s).", v, f, l, s)
	case 1:
		return fmt.Sprintf("?- spans(%s, %d, %d, O%s, S%s).", v, f, l, s, s)
	case 2:
		return fmt.Sprintf("?- either(%s, O%s).", v, s)
	case 3:
		return fmt.Sprintf("?- ranged(%s, %d, %d, O%s).", v, f, l, s)
	case 4:
		return fmt.Sprintf("?- heavy('table%02d', K%s, X%s).", video, s, s)
	case 5:
		return fmt.Sprintf("?- member(%s, %d, %d, O%s).", v, f, l, s)
	case 6:
		return fmt.Sprintf("?- joined(K%s, X%s, Y%s).", s, s, s)
	case 8:
		return fmt.Sprintf("?- point(%s, %d, O%s).", v, f, s)
	case 9:
		return fmt.Sprintf("?- pair(%s, %d, %d, O%s, O%s).", v, f, l, s, s)
	case 10:
		return fmt.Sprintf("?- band(%s, B%s, O%s).", v, s, s)
	case 11:
		return fmt.Sprintf("?- band(%s, 'high', O%s).", v, s)
	case 12:
		return fmt.Sprintf("?- in(R%s, rel:all('table%02d')) & valued(R%s.k, X%s).", s, video, s, s)
	case 13:
		return fmt.Sprintf("?- five(%s, O%s).", v, s)
	}
	return fmt.Sprintf("?- in(O%s, avis:frames_to_objects(%s, %d, %d)).", s, v, f, l)
}

// switched routes calls to the fault injector until off is set, then
// straight to the source behind it: the point where faults stop.
type switched struct {
	*faultinject.Injector
	off *atomic.Bool
}

func (s switched) Call(ctx *domain.Ctx, fn string, args []term.Value) (domain.Stream, error) {
	if s.off.Load() {
		return s.Inner().Call(ctx, fn, args)
	}
	return s.Injector.Call(ctx, fn, args)
}

// grown is the relational source with one more row in table01 once on is
// set: the source update each stream makes.
type grown struct {
	*relation.DB
	row term.Value
	on  *atomic.Bool
}

var grownCall = domain.Call{Domain: "rel", Function: "all", Args: []term.Value{term.Str("table01")}}

func (g grown) Call(ctx *domain.Ctx, fn string, args []term.Value) (domain.Stream, error) {
	s, err := g.DB.Call(ctx, fn, args)
	if err != nil || !g.on.Load() || fn != grownCall.Function || !term.Equal(args[0], grownCall.Args[0]) {
		return s, err
	}
	vals, err := domain.Collect(s)
	return domain.NewSliceStream(append(vals, g.row)), err
}

const deadline = 90 * time.Second

// policy retries three times and trips a breaker after three straight
// failures, probing again 5 s later.
var policy = resilience.Policy{
	MaxAttempts: 3,
	BackoffBase: 80 * time.Millisecond,
	BackoffCap:  800 * time.Millisecond,
	Seed:        1,
	Breaker:     resilience.BreakerConfig{FailureThreshold: 3, OpenTimeout: 5 * time.Second},
}

func checkSystem(t *testing.T, seed uint64, s setup) {
	rng := rand.New(rand.NewSource(int64(seed)))
	store, rel := workload.Federation(workload.FederationConfig{Videos: 2, FramesMin: 60, FramesMax: 160,
		ObjectsMax: 30, Tables: 2, RowsMax: 24, Seed: int64(seed)})
	store.SetCostParams(avis.CostParams{}) // a remote.Server runs its sources on the wall clock
	rel.SetCostParams(relation.CostParams{})
	src := program(rng)
	queries := stream(rng, drawn)

	// From halfway through the stream, the first aux:tick call, which
	// joined makes after reading table01, adds a row to table01 whose key
	// table00 has, and refreshes the cache's copy of rel:all('table01') as
	// an operator would: the fill in progress read the old rows. aux is
	// called directly, never from the cache, so every call reaches it.
	t00, err := domain.Collect(must(rel.Call(domain.NewCtx(nil), "all", []term.Value{term.Str("table00")})))
	if err != nil || len(t00) == 0 {
		t.Fatalf("table00: %v", err)
	}
	key, _ := t00[0].(term.Record).Get("k")
	row := term.NewRecord(term.Field{Name: "k", Val: key}, term.Field{Name: "v", Val: term.Int(1000)})
	var armed, grew atomic.Bool
	before, after := new(atomic.Bool), new(atomic.Bool)
	after.Store(true)
	var sys *core.System
	aux := domaintest.New("aux")
	aux.Define("tick", domaintest.Func{Arity: 1, Fn: func(args []term.Value) ([]term.Value, error) {
		if !armed.Load() {
			return args, nil
		}
		// Only while the cache holds table01 whole: a fetch of it still in
		// flight would store its older rows over the refresh.
		if e, ok := sys.CIM.Lookup(grownCall); ok && e.Complete && !grew.Swap(true) {
			vals, err := domain.Collect(must(grown{rel, row, after}.Call(domain.NewCtx(nil), grownCall.Function, grownCall.Args)))
			if err != nil {
				return nil, err
			}
			sys.CIM.Store(grownCall, vals, true, domain.CostVector{})
		}
		return args, nil
	}})
	prog, err := lang.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	var truth [2][][][]term.Value // before and after the update
	for phase, on := range []*atomic.Bool{before, after} {
		for _, q := range queries {
			pq, err := lang.ParseQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			rows, err := oracle.Eval(prog, pq, store, grown{rel, row, on}, aux)
			if err != nil {
				t.Fatalf("oracle %s: %v", q, err)
			}
			truth[phase] = append(truth[phase], rows)
		}
	}

	opts := core.Options{Parallelism: 1, Resilience: &policy, QueryDeadline: deadline}
	if s.wide {
		opts.Parallelism = 4
	}
	ccfg := cim.DefaultConfig()
	mcfg := memo.DefaultConfig()
	if s.bounded {
		ccfg.MaxEntries, mcfg.MaxEntries = 64, 64
	}
	opts.CIM = &ccfg
	if s.memo {
		opts.Memo = &mcfg
	}
	sys = core.NewSystem(opts)
	live := grown{rel, row, &grew}
	sources := []domain.Domain{store, live}
	if s.twoHop {
		sources = serve(t, store, live)
	}
	sys.Register(aux)
	sys.RouteThroughCIM("aux", false)
	fcfg := faultinject.Config{Seed: seed, FailLatency: 60 * time.Millisecond}
	switch s.faults {
	case callFaults:
		fcfg.ErrorRate, fcfg.TruncateRate, fcfg.SpikeRate, fcfg.SpikeLatency = 0.2, 0.1, 0.05, 2*time.Second
	case outage:
		from := time.Duration(2+seed%8) * time.Second
		fcfg.Windows = []faultinject.Window{{From: from, To: from + 30*time.Second}}
	}
	var off atomic.Bool
	var injectors []*faultinject.Injector
	for i, d := range sources {
		site := netsim.USAEast
		if i > 0 {
			site = netsim.Local
		}
		inj := faultinject.Wrap(netsim.Wrap(d, site, netsim.WithSeed(seed)), fcfg)
		injectors = append(injectors, inj)
		sys.Register(switched{inj, &off})
	}
	if err := sys.LoadProgram(src); err != nil {
		t.Fatal(err)
	}
	if s.invariants {
		if err := sys.LoadProgram(invariants); err != nil {
			t.Fatal(err)
		}
	}

	grewAt := -1 // the query during which the update ran
	run := func(pass string, faulted bool) {
		for i, q := range queries {
			armed.Store(i >= drawn/2)
			want := truth[0][i]
			if grew.Load() {
				want = truth[1][i]
			}
			// A second of think time between queries lets an open breaker
			// reach its half-open probe inside an outage.
			vclock.AdvanceTo(sys.Clock, sys.Clock.Now()+time.Second)
			answers, m, err := sys.QueryAll(q)
			if grew.Load() && grewAt < 0 {
				grewAt = i
			}
			got := rows(answers)
			switch {
			case !faulted && err != nil:
				t.Fatalf("%s: %s: %v", pass, q, err)
			case !faulted && !oracle.Equal(got, want):
				t.Fatalf("%s: %s: %d answers, not the oracle's multiset of %d\n%s", pass, q, len(got), len(want), diff(got, want))
			case !oracle.Sub(got, want):
				t.Fatalf("%s: %s: answers outside the oracle's multiset\n%s", pass, q, diff(got, want))
			case m.TAll > deadline:
				t.Fatalf("%s: %s ran %v, past its %v deadline", pass, q, m.TAll, deadline)
			}
		}
	}
	defer func() {
		st := sys.CIM.Stats()
		var ms memo.Stats
		if sys.Memo != nil {
			ms = sys.Memo.Stats()
		}
		t.Logf("%+v: update during query %d; cim exact=%d equality=%d partial=%d degraded=%d evictions=%d; memo hits=%d stores=%d invalidations=%d",
			s, grewAt, st.ExactHits, st.EqualityHits, st.PartialHits, st.DegradedServes, st.Evictions, ms.Hits, ms.Stores, ms.Invalidations)
	}()
	if s.faults == noFaults {
		run("fault-free", false)
		return
	}
	run("faulted", true)
	off.Store(true)
	vclock.AdvanceTo(sys.Clock, sys.Clock.Now()+time.Minute)
	windowFailures := 0
	for _, inj := range injectors {
		for _, e := range inj.Events() {
			if e.Kind == "window" {
				windowFailures++
			}
		}
	}
	trips := 0
	for _, c := range probes {
		if _, err := domain.Collect(must(sys.Registry.Call(sys.Ctx(), c))); err != nil {
			t.Fatalf("%s after the faults stopped: %v", c, err)
		}
		w, _ := sys.Resilience(c.Domain)
		bm := w.Breaker().Metrics()
		trips += bm.Trips
		t.Logf("%s breaker %+v", c.Domain, bm)
		if st := w.Breaker().State(sys.Clock.Now()); st != resilience.StateClosed {
			t.Fatalf("%s breaker %s after the faults stopped, want closed", c.Domain, st)
		}
		if bm.Trips > 0 && bm.Probes == 0 {
			t.Fatalf("%s breaker recovered without a half-open probe: %+v", c.Domain, bm)
		}
	}
	if s.faults == outage && windowFailures >= policy.Breaker.FailureThreshold && trips == 0 {
		t.Fatalf("%d calls failed in the outage window and no breaker tripped", windowFailures)
	}
	run("replay", false)
}

// must passes a stream on, or an empty one that reports err.
func must(s domain.Stream, err error) domain.Stream {
	if err != nil {
		return domain.NewFuncStream(func() (term.Value, bool, error) { return nil, false, err }, nil)
	}
	return s
}

// probes are one cheap call per faulted source, made through the
// resilience layer once the faults stop, so an open breaker probes.
var probes = []domain.Call{
	{Domain: "avis", Function: "video_size", Args: []term.Value{term.Str("video00")}},
	{Domain: "rel", Function: "count", Args: []term.Value{term.Str("table00")}},
}

// serve puts the stores behind a loopback remote.Server and returns the
// clients that reach them.
func serve(t *testing.T, store, rel domain.Domain) []domain.Domain {
	reg := domain.NewRegistry()
	reg.Register(store)
	reg.Register(rel)
	srv := remote.NewServer(reg)
	srv.Logf = func(string, ...any) {}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(l) // returns net.ErrClosed on Close
	}()
	a, r := remote.NewClient(l.Addr().String(), "avis"), remote.NewClient(l.Addr().String(), "rel")
	t.Cleanup(func() {
		a.Close()
		r.Close()
		srv.Close()
		<-served
	})
	return []domain.Domain{a, r}
}

func rows(answers []engine.Answer) [][]term.Value {
	out := make([][]term.Value, len(answers))
	for i, a := range answers {
		out[i] = a.Vals
	}
	return out
}

// diff renders the rows got has more of than want, and want more of than
// got.
func diff(got, want [][]term.Value) string {
	n := map[string]int{}
	for _, r := range want {
		n[term.Tuple(r).String()]++
	}
	for _, r := range got {
		n[term.Tuple(r).String()]--
	}
	var b strings.Builder
	for k, c := range n {
		if c != 0 {
			fmt.Fprintf(&b, "  %+d %s\n", -c, k)
		}
	}
	return b.String()
}
