package engine

import (
	"testing"
	"time"

	"hermes/internal/cim"
	"hermes/internal/dcsm"
	"hermes/internal/domain"
	"hermes/internal/domain/domaintest"
	"hermes/internal/lang"
	"hermes/internal/obs"
	"hermes/internal/rewrite"
	"hermes/internal/term"
	"hermes/internal/vclock"
)

// cimHarness wires an engine whose "d" domain routes through a CIM.
func cimHarness(t *testing.T) (*Engine, *cim.Manager, *domaintest.Domain, func(string, string) *rewrite.Plan) {
	t.Helper()
	d := domaintest.New("d")
	d.Define("gen", domaintest.Func{Arity: 0,
		Fn: func([]term.Value) ([]term.Value, error) {
			return []term.Value{term.Int(1), term.Int(2), term.Int(3)}, nil
		}})
	d.Define("members", domaintest.Func{Arity: 0,
		Fn: func([]term.Value) ([]term.Value, error) {
			out := make([]term.Value, 50)
			for i := range out {
				out[i] = term.Int(int64(i))
			}
			return out, nil
		}})
	reg := domain.NewRegistry()
	reg.Register(d)
	mgr := cim.New(reg, cim.Config{ParallelActual: true})
	eng := New(reg, mgr, Config{}, nil, nil, nil)
	planFn := func(progSrc, querySrc string) *rewrite.Plan {
		prog, err := lang.ParseProgram(progSrc)
		if err != nil {
			t.Fatal(err)
		}
		q, err := lang.ParseQuery(querySrc)
		if err != nil {
			t.Fatal(err)
		}
		rw := rewrite.New(prog, rewrite.Config{CIMDomains: map[string]bool{"d": true}}, reg)
		plans, err := rw.Plans(q)
		if err != nil {
			t.Fatal(err)
		}
		return plans[0]
	}
	return eng, mgr, d, planFn
}

// TestMembershipThroughCIMStoresIncomplete: a membership probe through the
// CIM prunes the stream early; the CIM must record the result as an
// incomplete entry, and a later full query completes it.
func TestMembershipThroughCIMStoresIncomplete(t *testing.T) {
	eng, mgr, d, plan := cimHarness(t)
	// X from gen (1..3) is probed against members (0..49): each probe scans
	// members until a match, pruning the remainder.
	p := plan(`v(X) :- in(X, d:gen()), in(X, d:members()).`, "?- v(X).")
	cur, err := eng.ExecutePlan(domain.NewCtx(vclock.NewVirtual(0)), p)
	if err != nil {
		t.Fatal(err)
	}
	answers, _, err := CollectAll(cur)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 3 {
		t.Fatalf("answers = %v", answers)
	}
	e, ok := mgr.Lookup(domain.Call{Domain: "d", Function: "members"})
	if !ok {
		t.Fatal("membership call not cached at all")
	}
	if e.Complete {
		t.Error("pruned membership stream stored as complete")
	}
	// The cached partial answers serve the next probe's prefix; on a probe
	// for a value past the cached prefix, the actual call completes it.
	callsBefore := d.CallCount("members")
	p2 := plan(`w(X) :- in(X, d:members()).`, "?- w(X).")
	cur2, err := eng.ExecutePlan(domain.NewCtx(vclock.NewVirtual(0)), p2)
	if err != nil {
		t.Fatal(err)
	}
	answers2, _, err := CollectAll(cur2)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers2) != 50 {
		t.Fatalf("full query = %d answers (duplicates or loss in partial merge?)", len(answers2))
	}
	if d.CallCount("members") != callsBefore+1 {
		t.Errorf("full query should have issued exactly one completing call")
	}
	if e2, _ := mgr.Lookup(domain.Call{Domain: "d", Function: "members"}); !e2.Complete {
		t.Error("entry still incomplete after full drain")
	}
}

// TestCIMPartialOrderingPreserved: the merged stream first yields the
// cached prefix, then the remaining actual answers, with no reordering
// glitches visible to the join above it.
func TestCIMPartialOrderingPreserved(t *testing.T) {
	eng, mgr, _, plan := cimHarness(t)
	// Seed an incomplete entry holding the first 5 values.
	var prefix []term.Value
	for i := 0; i < 5; i++ {
		prefix = append(prefix, term.Int(int64(i)))
	}
	mgr.Store(domain.Call{Domain: "d", Function: "members"}, prefix, false, domain.CostVector{})
	p := plan(`w(X) :- in(X, d:members()).`, "?- w(X).")
	cur, err := eng.ExecutePlan(domain.NewCtx(vclock.NewVirtual(0)), p)
	if err != nil {
		t.Fatal(err)
	}
	answers, _, err := CollectAll(cur)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 50 {
		t.Fatalf("answers = %d", len(answers))
	}
	for i := 0; i < 5; i++ {
		if !term.Equal(answers[i].Vals[0], term.Int(int64(i))) {
			t.Errorf("cached prefix reordered at %d: %v", i, answers[i])
		}
	}
}

// TestCIMCallInFillAllocsPer: an exact CIM hit opened inside a memo fill
// (a context with CallNote set) allocates no more than one outside it
// would: the CIM notes the cached entry's own key, so neither it nor the
// engine builds one, and nothing builds a per-call closure. Untraced, it
// allocates the call's record and the served stream only: no span name,
// no span cost, no tag text (9 when each was built for a nil span and the
// call had a context copy, a key and a response of its own).
func TestCIMCallInFillAllocsPer(t *testing.T) {
	eng, mgr, _, _ := cimHarness(t)
	mgr.Store(domain.Call{Domain: "d", Function: "gen"}, []term.Value{term.Int(1)}, true, domain.CostVector{})
	prog, err := lang.ParseProgram(`v(X) :- in(X, d:gen()).`)
	if err != nil {
		t.Fatal(err)
	}
	lit := prog.Rules[0].Body[0].(*lang.InCall)
	notes := 0
	ctx := domain.NewCtx(vclock.NewVirtual(0)).WithCallNote(func(string, bool) { notes++ })
	n := testing.AllocsPerRun(200, func() {
		cs, err := eng.openCallStream(ctx, lit, rewrite.RouteCIM, nil)
		if err != nil {
			t.Fatal(err)
		}
		cs.close()
	})
	if n > 2 {
		t.Errorf("an exact CIM hit inside a fill allocates %v times, want at most 2", n)
	}
	if notes == 0 {
		t.Error("the CIM hit was never noted to the fill")
	}
	if st := mgr.Stats(); st.Misses != 0 || st.ExactHits == 0 {
		t.Errorf("cim stats %+v, want exact hits only", st)
	}
}

// TestServedCallAllocsPer: what one traced call costs from evalInCall
// through its last answer to close, on an engine and a CIM that price
// calls with a DCSM (the span's estimate, the ledger's avoided cost) and
// feed it the direct route's measurement. An exact hit allocates 3: the
// args, the served stream and the engine's one record for the call; its
// span is a record in the query's tree, whose chunks of three spans and
// six tags the calls share, and its name, tags and costs are rendered
// only when the tree is read. An equality hit adds the key string and a
// tree's share of its three more tags; the invariant's other side is
// grounded and keyed on the stack. The direct call drops the hit's
// stream; the test source makes a stream and an answer slice.
//
// While each span was an object with its own name, tags and costs these
// were 9, 12 and 9; before the call became one record, 16, 20 and 15: a
// context copy for the span, a span stream and a bind stream beside the
// source's stream, a measured stream on the direct route, a key string, a
// *cim.Response and a per-answer closure per hit, and a domain.Pattern
// each for the span's estimate and the ledger's avoided cost.
func TestServedCallAllocsPer(t *testing.T) {
	two := func([]term.Value) ([]term.Value, error) { return []term.Value{term.Int(1), term.Int(2)}, nil }
	d, e := domaintest.New("d"), domaintest.New("e")
	d.Define("f", domaintest.Func{Arity: 1, Fn: two})
	d.Define("g", domaintest.Func{Arity: 1, Fn: two})
	e.Define("h", domaintest.Func{Arity: 1, Fn: two})
	reg := domain.NewRegistry()
	reg.Register(d)
	reg.Register(e)
	db := dcsm.New(dcsm.DefaultConfig(), nil)
	mgr := cim.New(reg, cim.DefaultConfig())
	mgr.SetCostModel(db.Peek)
	inv, err := lang.ParseInvariant("true => d:f(A) = d:g(A).")
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.AddInvariant(inv); err != nil {
		t.Fatal(err)
	}
	eng := New(reg, mgr, Config{}, nil, db.Peek, db.Observe)
	a := term.Str("a")
	for _, fn := range []string{"f", "g"} {
		db.Observe(domain.Measurement{Call: domain.Call{Domain: "d", Function: fn, Args: []term.Value{a}},
			Cost: domain.CostVector{TFirst: time.Millisecond, TAll: 2 * time.Millisecond, Card: 2}, Complete: true})
	}
	mgr.Store(domain.Call{Domain: "d", Function: "f", Args: []term.Value{a}}, []term.Value{term.Int(1), term.Int(2)}, true, domain.CostVector{TAll: time.Millisecond})

	root := obs.NewSpan("query", 0)
	ctx := domain.NewCtx(vclock.NewVirtual(0)).WithSpan(root)
	for _, tc := range []struct {
		query string
		max   float64
	}{
		{"?- in(X, d:f('a')).", 3}, // exact hit
		{"?- in(X, d:g('a')).", 5}, // equality hit through the invariant
		{"?- in(X, e:h('a')).", 4}, // direct call, measured into the DCSM
	} {
		q, err := lang.ParseQuery(tc.query)
		if err != nil {
			t.Fatal(err)
		}
		plans, err := rewrite.New(&lang.Program{}, rewrite.Config{CIMDomains: map[string]bool{"d": true}}, reg).Plans(q)
		if err != nil {
			t.Fatal(err)
		}
		prog := plans[0].Program()
		f := prog.AppendFrame(nil, plans[0].Query.Rule.Body)
		answers := 0
		n := testing.AllocsPerRun(200, func() {
			s, err := eng.evalInCall(ctx, &prog.Query.Lits[0], nil, f)
			if err != nil {
				t.Fatal(err)
			}
			for {
				ok, err := s.next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				answers++
			}
			s.close()
		})
		if answers != 2*201 {
			t.Errorf("%s: %d answers over 201 runs, want 2 each", tc.query, answers)
		}
		if n > tc.max && !raceEnabled {
			t.Errorf("%s: a traced call allocates %v times, want at most %v", tc.query, n, tc.max)
		}
	}
	if st := mgr.Stats(); st.Misses != 0 || st.ExactHits == 0 || st.EqualityHits == 0 {
		t.Errorf("cim stats %+v, want exact and equality hits only", st)
	}
}
