package engine

import (
	"slices"
	"testing"

	"hermes/internal/domain"
	"hermes/internal/domain/domaintest"
	"hermes/internal/term"
	"hermes/internal/vclock"
)

// TestCursorAnswerReuse pins Next's buffer contract at Parallelism 1 and 4:
// a raw answer's values change when the next answer is pulled, and the
// answers CollectAll and Session.More keep do not.
func TestCursorAnswerReuse(t *testing.T) {
	h := newHarness(t, unionDomain())
	plan := h.plan(unionProg, "?- u(X).")
	want := []int{1, 2, 3, 4, 5, 6}
	for _, par := range []int{1, 4} {
		start := func() *Cursor {
			ctx := domain.NewCtx(vclock.NewVirtual(0))
			ctx.Sched = domain.NewSched(par)
			cur, err := h.eng.ExecutePlan(ctx, plan)
			if err != nil {
				t.Fatal(err)
			}
			return cur
		}
		sorted := func(answers []Answer) []int {
			got := answerInts(t, answers)
			slices.Sort(got)
			return got
		}

		all, _, err := CollectAll(start())
		if err != nil {
			t.Fatal(err)
		}
		if got := sorted(all); !slices.Equal(got, want) {
			t.Errorf("p=%d: CollectAll kept %v, want %v", par, got, want)
		}

		s := NewSession(start(), 3)
		first, _, err := s.More()
		if err != nil {
			t.Fatal(err)
		}
		kept := answerInts(t, first)
		rest, err := s.Rest()
		if err != nil {
			t.Fatal(err)
		}
		if got := answerInts(t, first); !slices.Equal(got, kept) {
			t.Errorf("p=%d: first batch read %v, then %v after the rest was pulled", par, kept, got)
		}
		if got := sorted(append(first, rest...)); !slices.Equal(got, want) {
			t.Errorf("p=%d: session delivered %v, want %v", par, got, want)
		}

		cur := start()
		a, ok, err := cur.Next()
		if err != nil || !ok {
			t.Fatalf("p=%d: first answer: %v, %v", par, ok, err)
		}
		v := a.Vals[0]
		if _, ok, err := cur.Next(); err != nil || !ok {
			t.Fatalf("p=%d: second answer: %v, %v", par, ok, err)
		}
		if term.Equal(a.Vals[0], v) {
			t.Errorf("p=%d: a raw answer still reads %v after the next pull; Next no longer reuses its buffer", par, v)
		}
		cur.Close()
	}
}

// TestCursorNextAllocsPerAnswer: pulling one more answer of a one-call
// query allocates nothing; the answer borrows the cursor's buffer.
func TestCursorNextAllocsPerAnswer(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	d := domaintest.New("d")
	vals := make([]term.Value, 1000)
	for i := range vals {
		vals[i] = term.Int(int64(i))
	}
	d.Define("gen", domaintest.Func{Arity: 0, Fn: func([]term.Value) ([]term.Value, error) { return vals, nil }})
	h := newHarness(t, d)
	cur, err := h.eng.ExecutePlan(domain.NewCtx(vclock.NewVirtual(0)), h.plan("", "?- in(X, d:gen())."))
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	pulled := 0
	n := testing.AllocsPerRun(500, func() {
		if _, ok, err := cur.Next(); err != nil || !ok {
			t.Fatalf("answer %d: %v, %v", pulled, ok, err)
		}
		pulled++
	})
	if n != 0 {
		t.Errorf("Cursor.Next allocates %v objects per answer, want 0", n)
	}
}
