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
// its two union branches map their solutions back for one caller frame,
// and inside each branch the two independent in() literals run as stage
// producers over one head frame. Lanes and producers work on copies made
// before they launch, never on a frame the consumer writes; the answers
// must be the sequential ones (run with -race).
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

// TestBindStreamAllocsPerAnswer: binding one more answer of a call stores
// it in the frame and allocates nothing, whatever the size of the frame.
func TestBindStreamAllocsPerAnswer(t *testing.T) {
	for _, size := range []int{1, 6, 21} {
		f := make(term.Frame, size)
		for i := range f[1:] {
			f[i+1] = term.Int(int64(i))
		}
		b := &callStream{ctx: domain.Ctx{Clock: vclock.NewVirtual(0)}, inner: oneValue{term.Str("rope")}, out: &f[0]}
		var ok bool
		n := testing.AllocsPerRun(200, func() { ok, _ = b.next() })
		if n != 0 {
			t.Errorf("callStream.next over %d positions allocates %v times per answer, want 0", size, n)
		}
		if !ok || !term.Equal(f[0], term.Str("rope")) {
			t.Errorf("answer over %d positions = %v, %v", size, f[0], ok)
		}
	}
}
