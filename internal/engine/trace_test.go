package engine

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"hermes/internal/cim"
	"hermes/internal/domain"
	"hermes/internal/domain/domaintest"
	"hermes/internal/lang"
	"hermes/internal/obs"
	"hermes/internal/resilience"
	"hermes/internal/rewrite"
	"hermes/internal/term"
	"hermes/internal/vclock"
)

// callSpans returns the call spans directly under a finished query root.
func callSpans(t *testing.T, cur *Cursor) []obs.SpanData {
	t.Helper()
	var out []obs.SpanData
	for _, c := range cur.Span().Snapshot().Children {
		if strings.HasPrefix(c.Name, "call ") {
			out = append(out, c)
		}
	}
	return out
}

// TestCallSpansDirectCalls: every domain call the engine issues lands as a
// call span in issue order, tagged with its route (what the legacy trace
// hook's TestTraceObserverDirectCalls checked on flat events).
func TestCallSpansDirectCalls(t *testing.T) {
	d := seqDomain()
	reg := domain.NewRegistry()
	reg.Register(d)
	eng := New(reg, nil, Config{}, obs.NewObserver(), nil, nil)
	prog, _ := lang.ParseProgram(`v(X, Y) :- in(X, d:nums()), in(Y, d:double(X)).`)
	q, _ := lang.ParseQuery("?- v(X, Y).")
	rw := rewrite.New(prog, rewrite.Config{}, reg)
	plans, err := rw.Plans(q)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := eng.ExecutePlan(domain.NewCtx(vclock.NewVirtual(0)), plans[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := CollectAll(cur); err != nil {
		t.Fatal(err)
	}
	// 1 nums + 4 double calls, all direct, in issue order.
	calls := callSpans(t, cur)
	if len(calls) != 5 {
		t.Fatalf("call spans = %d, want 5", len(calls))
	}
	if calls[0].Name != "call d:nums()" || calls[0].Tag("route") != "direct" {
		t.Errorf("first call span = %s %v", calls[0].Name, calls[0].Tags)
	}
	for i := 1; i < len(calls); i++ {
		if !strings.HasPrefix(calls[i].Name, "call d:double(") || calls[i].Tag("route") != "direct" {
			t.Errorf("call span %d = %s %v", i, calls[i].Name, calls[i].Tags)
		}
		if calls[i].Start < calls[i-1].Start {
			t.Errorf("call spans out of issue order at %d", i)
		}
	}
}

// TestEstimateOnlyForTracedCalls: the engine prices a call only when the
// call has a span to carry the estimate; an untraced query asks nothing.
func TestEstimateOnlyForTracedCalls(t *testing.T) {
	d := seqDomain()
	reg := domain.NewRegistry()
	reg.Register(d)
	prog, _ := lang.ParseProgram(`v(X, Y) :- in(X, d:nums()), in(Y, d:double(X)).`)
	q, _ := lang.ParseQuery("?- v(X, Y).")
	plans, err := rewrite.New(prog, rewrite.Config{}, reg).Plans(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []*obs.Observer{nil, obs.NewObserver()} {
		asked := 0
		estimate := func(domain.Call) (domain.CostVector, bool) {
			asked++
			return domain.CostVector{TAll: time.Millisecond, Card: 1}, true
		}
		cur, err := New(reg, nil, Config{}, o, estimate, nil).ExecutePlan(domain.NewCtx(vclock.NewVirtual(0)), plans[0])
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := CollectAll(cur); err != nil {
			t.Fatal(err)
		}
		want := 0 // untraced: no call has a span
		if o != nil {
			want = 5 // 1 nums + 4 double calls
		}
		if asked != want {
			t.Errorf("observer=%v: %d estimates asked for, want %d", o != nil, asked, want)
		}
		for _, c := range callSpans(t, cur) {
			if c.Est == nil {
				t.Errorf("traced call span %s carries no estimate", c.Name)
			}
		}
	}
}

// TestCallSpansCIMSources: a CIM-routed call's span says how the cache
// served it — miss on the first run, exact hit on the second (what
// TestTraceObserverCIMSources checked as Source actual / cache-exact).
func TestCallSpansCIMSources(t *testing.T) {
	d := domaintest.New("d")
	d.Define("f", domaintest.Func{Arity: 1,
		Fn: func(args []term.Value) ([]term.Value, error) {
			return []term.Value{term.Str("a")}, nil
		}})
	reg := domain.NewRegistry()
	reg.Register(d)
	mgr := cim.New(reg, cim.Config{ParallelActual: true})
	eng := New(reg, mgr, Config{}, obs.NewObserver(), nil, nil)
	prog, _ := lang.ParseProgram(`v(X) :- in(X, d:f(1)).`)
	q, _ := lang.ParseQuery("?- v(X).")
	rw := rewrite.New(prog, rewrite.Config{CIMDomains: map[string]bool{"d": true}}, reg)
	plans, err := rw.Plans(q)
	if err != nil {
		t.Fatal(err)
	}
	run := func() obs.SpanData {
		cur, err := eng.ExecutePlan(domain.NewCtx(vclock.NewVirtual(0)), plans[0])
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := CollectAll(cur); err != nil {
			t.Fatal(err)
		}
		calls := callSpans(t, cur)
		if len(calls) != 1 {
			t.Fatalf("call spans = %d, want 1", len(calls))
		}
		return calls[0]
	}
	first, second := run(), run()
	if first.Tag("route") != "cim" || first.Tag("cim") != "miss" {
		t.Errorf("first run call span tags = %v, want route=cim cim=miss", first.Tags)
	}
	if second.Tag("route") != "cim" || second.Tag("cim") != "exact" {
		t.Errorf("second run call span tags = %v, want route=cim cim=exact", second.Tags)
	}
}

// downDomain always fails with a retryable error, so a wrapping breaker
// trips on the first call.
type downDomain struct{}

func (downDomain) Name() string { return "down" }
func (downDomain) Functions() []domain.FuncSpec {
	return []domain.FuncSpec{{Name: "get", Arity: 0}}
}
func (downDomain) Call(*domain.Ctx, string, []term.Value) (domain.Stream, error) {
	return nil, fmt.Errorf("%w: host down", domain.ErrUnavailable)
}

// TestCallSpansBreakerOpen: a call that dies at setup still leaves a call
// span carrying the error, and one short-circuited by an open circuit
// breaker is surfaced — breaker=open on the span, reason="breaker-open" on
// the error counter — rather than skipped silently (what
// TestTraceObserverBreakerOpen checked as Source error / breaker-open).
func TestCallSpansBreakerOpen(t *testing.T) {
	w := resilience.Wrap(downDomain{}, resilience.Policy{
		MaxAttempts: 1,
		Breaker:     resilience.BreakerConfig{FailureThreshold: 1, OpenTimeout: time.Hour},
	})
	reg := domain.NewRegistry()
	reg.Register(w)
	o := obs.NewObserver()
	eng := New(reg, nil, Config{}, o, nil, nil)
	prog, _ := lang.ParseProgram(`v(X) :- in(X, down:get()).`)
	q, _ := lang.ParseQuery("?- v(X).")
	rw := rewrite.New(prog, rewrite.Config{}, reg)
	plans, err := rw.Plans(q)
	if err != nil {
		t.Fatal(err)
	}
	run := func() error {
		cur, err := eng.ExecutePlan(domain.NewCtx(vclock.NewVirtual(0)), plans[0])
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = CollectAll(cur)
		return err
	}
	if err := run(); err == nil {
		t.Fatal("first query should fail (source down)")
	}
	if err := run(); !errors.Is(err, resilience.ErrBreakerOpen) {
		t.Fatalf("second query error = %v, want ErrBreakerOpen", err)
	}
	for reason, want := range map[string]int64{"error": 1, "breaker-open": 1} {
		if v := o.Counter("hermes_engine_call_errors_total", "reason", reason).Value(); v != want {
			t.Errorf("call errors reason=%s = %d, want %d", reason, v, want)
		}
	}

	// Retained span trees, newest first: the rejected query, then the one
	// that reached the down source. Both roots are incomplete and hold one
	// call span with the setup error; only the rejected one says breaker=open.
	recent := o.Flight.Records()
	if len(recent) != 2 {
		t.Fatalf("retained spans = %d, want 2", len(recent))
	}
	for i, rec := range recent {
		root := rec.Root
		if root.Tag("complete") != "false" {
			t.Errorf("root %d tags = %v, want complete=false", i, root.Tags)
		}
		if len(root.Children) != 1 {
			t.Fatalf("root %d children = %d, want 1 call span", i, len(root.Children))
		}
		call := root.Children[0]
		if call.Tag("error") == "" {
			t.Errorf("call span %d tags = %v, want error tag", i, call.Tags)
		}
		if got, want := call.Tag("breaker"), map[int]string{0: "open", 1: ""}[i]; got != want {
			t.Errorf("call span %d breaker tag = %q, want %q", i, got, want)
		}
	}
}

// TestQueryLatencyHistograms: every executed query observes its time to
// first and to all answers once. On the virtual clock
// hermes_query_tfirst_ms and hermes_query_tall_ms count the queries and
// sum exactly the cursors' Metrics.TFirst and Metrics.TAll in
// milliseconds.
func TestQueryLatencyHistograms(t *testing.T) {
	d := domaintest.New("d")
	d.Define("nums", domaintest.Func{Arity: 1, PerCall: 30 * time.Millisecond, PerAnswer: 7 * time.Millisecond,
		Fn: func(args []term.Value) ([]term.Value, error) {
			out := make([]term.Value, args[0].(term.Int))
			for i := range out {
				out[i] = term.Int(i)
			}
			return out, nil
		}})
	reg := domain.NewRegistry()
	reg.Register(d)
	o := obs.NewObserver()
	eng := New(reg, nil, Config{}, o, nil, nil)
	prog, _ := lang.ParseProgram(`v(N, X) :- in(X, d:nums(N)).`)
	rw := rewrite.New(prog, rewrite.Config{}, reg)
	var tfirst, tall float64
	for n := 1; n <= 3; n++ {
		q, _ := lang.ParseQuery(fmt.Sprintf("?- v(%d, X).", n))
		plans, err := rw.Plans(q)
		if err != nil {
			t.Fatal(err)
		}
		cur, err := eng.ExecutePlan(domain.NewCtx(vclock.NewVirtual(0)), plans[0])
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := CollectAll(cur); err != nil {
			t.Fatal(err)
		}
		m := cur.Metrics()
		tfirst += float64(m.TFirst) / float64(time.Millisecond)
		tall += float64(m.TAll) / float64(time.Millisecond)
	}
	if tfirst == 0 || tall <= tfirst {
		t.Fatalf("the queries cost Tf %gms, Ta %gms; the sources must charge time", tfirst, tall)
	}
	for _, h := range []struct {
		name string
		sum  float64
	}{{"hermes_query_tfirst_ms", tfirst}, {"hermes_query_tall_ms", tall}} {
		got := o.Histogram(h.name)
		if got.Count() != 3 || got.Sum() != h.sum {
			t.Errorf("%s count %d sum %g, want 3 queries summing %g", h.name, got.Count(), got.Sum(), h.sum)
		}
	}
	if got := o.Counter("hermes_queries_total").Value(); got != 3 {
		t.Errorf("hermes_queries_total = %d, want 3", got)
	}
}
