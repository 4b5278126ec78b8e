package engine

import (
	"strings"
	"testing"
	"time"

	"hermes/internal/domain"
	"hermes/internal/domain/domaintest"
	"hermes/internal/lang"
	"hermes/internal/rewrite"
	"hermes/internal/term"
	"hermes/internal/vclock"
)

// harness bundles an engine over scriptable domains with a plan builder.
type harness struct {
	t   *testing.T
	reg *domain.Registry
	eng *Engine
}

func newHarness(t *testing.T, doms ...domain.Domain) *harness {
	t.Helper()
	reg := domain.NewRegistry()
	for _, d := range doms {
		reg.Register(d)
	}
	// Zero overheads: assertions about pure source costs.
	return &harness{t: t, reg: reg, eng: New(reg, nil, Config{}, nil, nil, nil)}
}

func (h *harness) plan(progSrc, querySrc string) *rewrite.Plan {
	h.t.Helper()
	prog, err := lang.ParseProgram(progSrc)
	if err != nil {
		h.t.Fatal(err)
	}
	q, err := lang.ParseQuery(querySrc)
	if err != nil {
		h.t.Fatal(err)
	}
	rw := rewrite.New(prog, rewrite.Config{}, h.reg)
	plans, err := rw.Plans(q)
	if err != nil {
		h.t.Fatal(err)
	}
	return plans[0]
}

func (h *harness) runAll(plan *rewrite.Plan) ([]Answer, Metrics) {
	h.t.Helper()
	cur, err := h.eng.ExecutePlan(domain.NewCtx(vclock.NewVirtual(0)), plan)
	if err != nil {
		h.t.Fatal(err)
	}
	answers, m, err := CollectAll(cur)
	if err != nil {
		h.t.Fatal(err)
	}
	return answers, m
}

func seqDomain() *domaintest.Domain {
	d := domaintest.New("d")
	d.Define("nums", domaintest.Func{Arity: 0,
		Fn: func([]term.Value) ([]term.Value, error) {
			return []term.Value{term.Int(1), term.Int(2), term.Int(3), term.Int(4)}, nil
		}})
	d.Define("double", domaintest.Func{Arity: 1,
		Fn: func(args []term.Value) ([]term.Value, error) {
			n := args[0].(term.Int)
			return []term.Value{term.Int(2 * n)}, nil
		}})
	return d
}

func TestNestedLoopJoin(t *testing.T) {
	h := newHarness(t, seqDomain())
	plan := h.plan(`v(X, Y) :- in(X, d:nums()), in(Y, d:double(X)).`, "?- v(X, Y).")
	answers, m := h.runAll(plan)
	if len(answers) != 4 {
		t.Fatalf("answers = %d", len(answers))
	}
	// Pipelined order preserved: X ascending.
	for i, a := range answers {
		if !term.Equal(a.Vals[0], term.Int(int64(i+1))) || !term.Equal(a.Vals[1], term.Int(int64(2*(i+1)))) {
			t.Errorf("answer %d = %v", i, a)
		}
	}
	if m.Answers != 4 || !m.Complete {
		t.Errorf("metrics = %+v", m)
	}
}

func TestMembershipPruning(t *testing.T) {
	d := seqDomain()
	served := 0
	d.Define("big", domaintest.Func{Arity: 0,
		Fn: func([]term.Value) ([]term.Value, error) {
			served++
			out := make([]term.Value, 100)
			for i := range out {
				out[i] = term.Int(int64(i))
			}
			return out, nil
		}})
	h := newHarness(t, d)
	// X bound to 3 when big() runs: membership check, should prune.
	plan := h.plan(`v(X) :- in(X, d:double(1)), in(X, d:big()).`, "?- v(X).")
	answers, _ := h.runAll(plan)
	if len(answers) != 1 || !term.Equal(answers[0].Vals[0], term.Int(2)) {
		t.Fatalf("answers = %v", answers)
	}
}

func TestComparisonBindingAndFilter(t *testing.T) {
	h := newHarness(t, seqDomain())
	plan := h.plan(`v(X, Y) :- in(X, d:nums()), X > 2, Y = X.`, "?- v(X, Y).")
	answers, _ := h.runAll(plan)
	if len(answers) != 2 {
		t.Fatalf("answers = %v", answers)
	}
	for _, a := range answers {
		if !term.Equal(a.Vals[0], a.Vals[1]) {
			t.Errorf("Y = X binding broken: %v", a)
		}
	}
}

func TestAttributePathInQuery(t *testing.T) {
	d := domaintest.New("d")
	d.Define("recs", domaintest.Func{Arity: 0,
		Fn: func([]term.Value) ([]term.Value, error) {
			return []term.Value{
				term.NewRecord(term.Field{Name: "name", Val: term.Str("x")}, term.Field{Name: "n", Val: term.Int(1)}),
				term.NewRecord(term.Field{Name: "name", Val: term.Str("y")}, term.Field{Name: "n", Val: term.Int(2)}),
			}, nil
		}})
	h := newHarness(t, d)
	plan := h.plan(`v(N) :- in(R, d:recs()), R.n = 2, =(R.name, N).`, "?- v(N).")
	answers, _ := h.runAll(plan)
	if len(answers) != 1 || !term.Equal(answers[0].Vals[0], term.Str("y")) {
		t.Fatalf("answers = %v", answers)
	}
}

func TestUnionRulesConcatenate(t *testing.T) {
	d := domaintest.New("d")
	d.Define("a", domaintest.Func{Arity: 0,
		Fn: func([]term.Value) ([]term.Value, error) { return []term.Value{term.Int(1)}, nil }})
	d.Define("b", domaintest.Func{Arity: 0,
		Fn: func([]term.Value) ([]term.Value, error) { return []term.Value{term.Int(1), term.Int(2)}, nil }})
	h := newHarness(t, d)
	plan := h.plan(`
		v(X) :- in(X, d:a()).
		v(X) :- in(X, d:b()).
	`, "?- v(X).")
	answers, _ := h.runAll(plan)
	// No duplicate elimination: 1 appears twice.
	if len(answers) != 3 {
		t.Fatalf("answers = %v, want 3 (bag semantics)", answers)
	}
}

func TestHeadConstantDispatch(t *testing.T) {
	d := domaintest.New("d")
	d.Define("f", domaintest.Func{Arity: 0,
		Fn: func([]term.Value) ([]term.Value, error) { return []term.Value{term.Int(10)}, nil }})
	d.Define("g", domaintest.Func{Arity: 0,
		Fn: func([]term.Value) ([]term.Value, error) { return []term.Value{term.Int(20)}, nil }})
	h := newHarness(t, d)
	plan := h.plan(`
		v('fast', X) :- in(X, d:f()).
		v('slow', X) :- in(X, d:g()).
	`, "?- v('fast', X).")
	answers, _ := h.runAll(plan)
	if len(answers) != 1 || !term.Equal(answers[0].Vals[0], term.Int(10)) {
		t.Fatalf("answers = %v", answers)
	}
}

func TestHeadConstantsFlowToCaller(t *testing.T) {
	d := domaintest.New("d")
	d.Define("f", domaintest.Func{Arity: 0,
		Fn: func([]term.Value) ([]term.Value, error) { return []term.Value{term.Int(10)}, nil }})
	h := newHarness(t, d)
	plan := h.plan(`v('tag', X) :- in(X, d:f()).`, "?- v(T, X).")
	answers, _ := h.runAll(plan)
	if len(answers) != 1 || !term.Equal(answers[0].Vals[0], term.Str("tag")) {
		t.Fatalf("answers = %v", answers)
	}
}

func TestRecursionDepthGuard(t *testing.T) {
	d := domaintest.New("d")
	d.Define("edge", domaintest.Func{Arity: 1,
		Fn: func(args []term.Value) ([]term.Value, error) {
			// Every node has a successor: infinite walk.
			n := args[0].(term.Int)
			return []term.Value{term.Int(int64(n) + 1)}, nil
		}})
	h := newHarness(t, d)
	plan := h.plan(`
		walk(X, Y) :- in(Y, d:edge(X)).
		walk(X, Y) :- walk(X, Z), in(Y, d:edge(Z)).
	`, "?- walk(0, Y).")
	cur, err := h.eng.ExecutePlan(domain.NewCtx(vclock.NewVirtual(0)), plan)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = CollectAll(cur)
	if err == nil || !strings.Contains(err.Error(), "recursion deeper") {
		t.Errorf("err = %v, want depth guard", err)
	}
}

func TestBoundedRecursionWorks(t *testing.T) {
	d := domaintest.New("d")
	d.Define("edge", domaintest.Func{Arity: 1,
		Fn: func(args []term.Value) ([]term.Value, error) {
			n := int64(args[0].(term.Int))
			if n >= 3 {
				return nil, nil // chain ends
			}
			return []term.Value{term.Int(n + 1)}, nil
		}})
	h := newHarness(t, d)
	// Right recursion terminates under top-down evaluation once the data
	// chain ends (left recursion requires tabling and trips the depth
	// guard instead — see TestRecursionDepthGuard).
	plan := h.plan(`
		walk(X, Y) :- in(Y, d:edge(X)).
		walk(X, Y) :- in(Z, d:edge(X)), walk(Z, Y).
	`, "?- walk(0, Y).")
	answers, _ := h.runAll(plan)
	// Reachable: 1, 2, 3.
	if len(answers) != 3 {
		t.Fatalf("answers = %v", answers)
	}
}

func TestCursorCloseStopsWork(t *testing.T) {
	d := domaintest.New("d")
	calls := 0
	d.Define("gen", domaintest.Func{Arity: 0,
		Fn: func([]term.Value) ([]term.Value, error) {
			out := make([]term.Value, 50)
			for i := range out {
				out[i] = term.Int(int64(i))
			}
			return out, nil
		}})
	d.Define("probe", domaintest.Func{Arity: 1,
		Fn: func(args []term.Value) ([]term.Value, error) {
			calls++
			return []term.Value{args[0]}, nil
		}})
	h := newHarness(t, d)
	plan := h.plan(`v(X, Y) :- in(X, d:gen()), in(Y, d:probe(X)).`, "?- v(X, Y).")
	cur, err := h.eng.ExecutePlan(domain.NewCtx(vclock.NewVirtual(0)), plan)
	if err != nil {
		t.Fatal(err)
	}
	answers, m, err := CollectFirst(cur, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 2 {
		t.Fatalf("answers = %d", len(answers))
	}
	if calls > 3 {
		t.Errorf("probe called %d times after early stop, want ≤3", calls)
	}
	if m.Complete {
		t.Error("early stop should be incomplete")
	}
}

func TestQueryInitAndDisplayCharged(t *testing.T) {
	reg := domain.NewRegistry()
	reg.Register(seqDomain())
	eng := New(reg, nil, Config{QueryInit: 230 * time.Millisecond, PerDisplay: 10 * time.Millisecond}, nil, nil, nil)
	prog, _ := lang.ParseProgram(`v(X) :- in(X, d:nums()).`)
	q, _ := lang.ParseQuery("?- v(X).")
	rw := rewrite.New(prog, rewrite.Config{}, reg)
	plans, _ := rw.Plans(q)
	ctx := domain.NewCtx(vclock.NewVirtual(0))
	cur, err := eng.ExecutePlan(ctx, plans[0])
	if err != nil {
		t.Fatal(err)
	}
	_, m, _ := CollectAll(cur)
	want := 230*time.Millisecond + 4*10*time.Millisecond
	if m.TAll != want {
		t.Errorf("TAll = %v, want %v", m.TAll, want)
	}
	if m.TFirst != 230*time.Millisecond+10*time.Millisecond {
		t.Errorf("TFirst = %v", m.TFirst)
	}
}

func TestMeasurementObserverSeesDirectCalls(t *testing.T) {
	reg := domain.NewRegistry()
	reg.Register(seqDomain())
	var seen []domain.Measurement
	eng := New(reg, nil, Config{}, nil, nil, func(m domain.Measurement) { seen = append(seen, m) })
	prog, _ := lang.ParseProgram(`v(X, Y) :- in(X, d:nums()), in(Y, d:double(X)).`)
	q, _ := lang.ParseQuery("?- v(X, Y).")
	rw := rewrite.New(prog, rewrite.Config{}, reg)
	plans, _ := rw.Plans(q)
	cur, _ := eng.ExecutePlan(domain.NewCtx(vclock.NewVirtual(0)), plans[0])
	CollectAll(cur)
	// 1 nums call + 4 double calls.
	if len(seen) != 5 {
		t.Fatalf("measurements = %d, want 5", len(seen))
	}
	for _, m := range seen {
		if !m.Complete {
			t.Errorf("drained call measured incomplete: %+v", m)
		}
	}
}

func TestEmptyAnswerSetQuery(t *testing.T) {
	d := domaintest.New("d")
	d.Define("none", domaintest.Func{Arity: 0,
		Fn: func([]term.Value) ([]term.Value, error) { return nil, nil }})
	h := newHarness(t, d)
	plan := h.plan(`v(X) :- in(X, d:none()).`, "?- v(X).")
	answers, m := h.runAll(plan)
	if len(answers) != 0 || !m.Complete {
		t.Errorf("answers=%v metrics=%+v", answers, m)
	}
	if m.TFirst != m.TAll {
		t.Errorf("empty query: Tf (%v) should equal Ta (%v)", m.TFirst, m.TAll)
	}
}

func TestAnswerStringRendering(t *testing.T) {
	h := newHarness(t, seqDomain())
	plan := h.plan(`v(X) :- in(X, d:double(3)).`, "?- v(X).")
	answers, _ := h.runAll(plan)
	if got := answers[0].String(); got != "{X=6}" {
		t.Errorf("answer string = %q", got)
	}
	if got := (Answer{}).String(); got != "{}" {
		t.Errorf("empty answer string = %q", got)
	}
	two := Answer{Vars: []string{"A", "Obj"}, Vals: []term.Value{term.Str("rope"), term.Tuple{term.Int(1), term.Float(2.5)}}}
	if got, want := two.String(), "{A="+two.Vals[0].String()+", Obj="+two.Vals[1].String()+"}"; got != want {
		t.Errorf("two-variable answer string = %q, want %q", got, want)
	}
}

// TestAnswerStringPinned pins what hermesd's /query prints for an answer,
// byte for byte: string escapes, floats, booleans, and records and tuples
// nested in each other.
func TestAnswerStringPinned(t *testing.T) {
	rec := term.NewRecord(
		term.Field{Name: "name", Val: term.Str("it's\ta\\b\n")},
		term.Field{Name: "pos", Val: term.Tuple{term.Float(-0.5), term.Float(1e21), term.Float(3)}},
		term.Field{Name: "inner", Val: term.NewRecord(term.Field{Name: "ok", Val: term.Bool(true)})},
	)
	cases := []struct {
		a    Answer
		want string
	}{
		{Answer{}, "{}"},
		{Answer{Vars: []string{"X"}, Vals: []term.Value{term.Int(-42)}}, "{X=-42}"},
		{Answer{Vars: []string{"B", "F"}, Vals: []term.Value{term.Bool(false), term.Float(2.5)}}, "{B=false, F=2.5}"},
		{Answer{Vars: []string{"P", "T"}, Vals: []term.Value{rec, term.Tuple{}}},
			`{P={name: 'it\'s\ta\\b\n', pos: <-0.5, 1e+21, 3>, inner: {ok: true}}, T=<>}`},
		{Answer{Vars: []string{"E"}, Vals: []term.Value{term.NewRecord()}}, "{E={}}"},
	}
	for _, c := range cases {
		if got := c.a.String(); got != c.want {
			t.Errorf("answer string = %s, want %s", got, c.want)
		}
	}
}

// TestAnswerStringAllocsPer: an answer that fits the stack buffer renders
// with one allocation, the string itself.
func TestAnswerStringAllocsPer(t *testing.T) {
	a := Answer{Vars: []string{"O", "A", "P"}, Vals: []term.Value{term.Int(1234567), term.Str("brandon shaw"),
		term.NewRecord(term.Field{Name: "name", Val: term.Str("rope")}, term.Field{Name: "v", Val: term.Float(0.25)})}}
	if n := testing.AllocsPerRun(100, func() { _ = a.String() }); n != 1 {
		t.Errorf("Answer.String allocates %.0f objects, want 1", n)
	}
}

// TestMetricsSummaryResolvesMicroseconds pins the line hermes and hermesd
// print: a warm live query must not read "first in 0ms, all in 0ms".
func TestMetricsSummaryResolvesMicroseconds(t *testing.T) {
	m := Metrics{Answers: 19, TFirst: 41 * time.Microsecond, TAll: 2096650 * time.Microsecond}
	if got, want := m.Summary(), "19 answers, first in 0.041ms, all in 2096.650ms"; got != want {
		t.Errorf("Summary() = %q, want %q", got, want)
	}
}
