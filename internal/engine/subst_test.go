package engine

import (
	"sort"
	"testing"
	"time"

	"hermes/internal/domain"
	"hermes/internal/domain/domaintest"
	"hermes/internal/term"
	"hermes/internal/vclock"
)

// TestSharedBaseExtendedConcurrently: u(K, X, Y) is called with K bound, so
// its two union branches map their solutions back onto one caller
// substitution, and inside each branch the two independent in() literals
// run as stage producers over one head environment. Every goroutine
// extends the substitution it was handed and none copies it first; the
// answers must be the sequential ones (run with -race).
func TestSharedBaseExtendedConcurrently(t *testing.T) {
	d := domaintest.New("d")
	d.Define("keys", domaintest.Func{Arity: 0, PerCall: 10 * time.Millisecond,
		Fn: func([]term.Value) ([]term.Value, error) {
			return []term.Value{term.Int(1), term.Int(2), term.Int(3)}, nil
		}})
	for i, name := range []string{"a", "b", "c", "e"} {
		scale := term.Int(10 * (i + 1))
		d.Define(name, domaintest.Func{Arity: 1, PerCall: time.Duration(i+1) * 50 * time.Millisecond,
			Fn: func(args []term.Value) ([]term.Value, error) {
				k := args[0].(term.Int)
				return []term.Value{k * scale, k*scale + 1}, nil
			}})
	}
	h := newHarness(t, d)
	plan := h.plan(`
		q(K, X, Y) :- in(K, d:keys()) & u(K, X, Y).
		u(K, X, Y) :- in(X, d:a(K)) & in(Y, d:b(K)).
		u(K, X, Y) :- in(X, d:c(K)) & in(Y, d:e(K)).
	`, "?- q(K, X, Y).")

	render := func(as []Answer) []string {
		out := make([]string, len(as))
		for i, a := range as {
			out[i] = a.String()
		}
		sort.Strings(out)
		return out
	}
	seq, seqM := h.runAll(plan) // nil Sched: Parallelism 1
	want := render(seq)
	if len(want) != 3*2*4 {
		t.Fatalf("sequential run gave %d answers, want 24: %v", len(want), want)
	}
	seqCalls := len(d.Calls)
	for round := 0; round < 10; round++ {
		ctx := domain.NewCtx(vclock.NewVirtual(0))
		ctx.Sched = domain.NewSched(4)
		cur, err := h.eng.ExecutePlan(ctx, plan)
		if err != nil {
			t.Fatal(err)
		}
		par, parM, err := CollectAll(cur)
		if err != nil {
			t.Fatal(err)
		}
		// Both mechanisms really ran: a spooled literal is called once per
		// key where the sequential loop re-calls it per outer answer, and
		// overlapped branches finish sooner on the virtual clock.
		if calls := len(d.Calls) - seqCalls; round == 0 && (calls >= seqCalls || parM.TAll >= seqM.TAll) {
			t.Fatalf("parallel run made %d calls in %v; sequential %d in %v", calls, parM.TAll, seqCalls, seqM.TAll)
		}
		got := render(par)
		if len(got) != len(want) {
			t.Fatalf("round %d: %d parallel answers, want %d", round, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d: parallel answers %v, want %v", round, got, want)
			}
		}
	}
}

// oneValue is a source stream that yields the same boxed value for ever
// and allocates nothing doing so.
type oneValue struct{ v term.Value }

func (o oneValue) Next() (term.Value, bool, error) { return o.v, true, nil }
func (o oneValue) Close() error                    { return nil }

// TestBindStreamAllocsPerAnswer: binding one more answer costs exactly the
// new binding node, whatever the size of the environment it extends.
func TestBindStreamAllocsPerAnswer(t *testing.T) {
	names := []string{"A", "B", "C", "D", "E", "F", "G", "H", "I", "J", "K", "L", "M", "N", "O", "P", "Q", "R", "S", "T"}
	for _, size := range []int{0, 5, len(names)} {
		env := term.Subst{}
		for i, n := range names[:size] {
			env = env.Bind(n, term.Int(i))
		}
		b := &bindStream{inner: oneValue{term.Str("rope")}, v: "Out", s: env}
		var out term.Subst
		n := testing.AllocsPerRun(200, func() { out, _, _ = b.next() })
		if n != 1 {
			t.Errorf("bindStream.next over %d bindings allocates %v times per answer, want 1", size, n)
		}
		if v, ok := out.Lookup("Out"); !ok || !term.Equal(v, term.Str("rope")) || out.Len() != size+1 {
			t.Errorf("answer over %d bindings = Out:%v,%v Len %d", size, v, ok, out.Len())
		}
	}
}
