package engine

import (
	"testing"

	"hermes/internal/cim"
	"hermes/internal/domain"
	"hermes/internal/domain/domaintest"
	"hermes/internal/lang"
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
// would: the CIM notes the call key it already built, so the engine builds
// neither a second key nor a per-call closure.
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
		stream, err := eng.openCallStream(ctx, lit, rewrite.RouteCIM, nil)
		if err != nil {
			t.Fatal(err)
		}
		stream.Close()
	})
	if n > 9 {
		t.Errorf("an exact CIM hit inside a fill allocates %v times, want at most 9", n)
	}
	if notes == 0 {
		t.Error("the CIM hit was never noted to the fill")
	}
	if st := mgr.Stats(); st.Misses != 0 || st.ExactHits == 0 {
		t.Errorf("cim stats %+v, want exact hits only", st)
	}
}
