package engine

import (
	"sort"
	"testing"

	"hermes/internal/domain"
	"hermes/internal/domain/domaintest"
	"hermes/internal/memo"
	"hermes/internal/term"
	"hermes/internal/vclock"
)

// TestMemoOversizedFillFollowerFallsBack interleaves a leader and a
// follower of the same subgoal whose relation is three times the memo's
// per-entry cap: the fill is abandoned at the tuple that crosses the cap,
// the leader keeps answering, and the follower — which had already
// replayed a prefix — falls back to its own evaluation minus that prefix.
func TestMemoOversizedFillFollowerFallsBack(t *testing.T) {
	d := domaintest.New("d")
	d.Define("nums", domaintest.Func{Arity: 0,
		Fn: func([]term.Value) ([]term.Value, error) {
			return []term.Value{term.Int(1), term.Int(2), term.Int(2), term.Int(3), term.Int(1), term.Int(4)}, nil
		}})
	h := newHarness(t, d)
	cfg := memo.DefaultConfig()
	cfg.MaxEntryBytes = 2 * term.SizeBytes(term.Int(0)) // the third tuple crosses it
	mc := memo.New(cfg)
	h.eng.SetMemo(mc)
	plan := h.plan(`p(X) :- in(X, d:nums()).`, "?- p(X).")

	open := func() *Cursor {
		cur, err := h.eng.ExecutePlan(domain.NewCtx(vclock.NewVirtual(0)), plan)
		if err != nil {
			t.Fatal(err)
		}
		return cur
	}
	pull := func(cur *Cursor, n int) []int {
		var out []int
		for len(out) < n {
			a, ok, err := cur.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			out = append(out, int(a.Vals[0].(term.Int)))
		}
		return out
	}

	leader := open()
	lead := pull(leader, 2)
	follower := open()
	follow := pull(follower, 2) // replayed from the leader's publication
	if st := mc.Stats(); st.FlightShares != 1 {
		t.Fatalf("FlightShares = %d, want 1 (second occurrence follows the fill)", st.FlightShares)
	}
	lead = append(lead, pull(leader, 1)...)
	if st := mc.Stats(); st.RejectedStores != 1 {
		t.Fatalf("RejectedStores = %d after the crossing tuple, want 1", st.RejectedStores)
	}
	follow = append(follow, pull(follower, 100)...)
	lead = append(lead, pull(leader, 100)...)

	want := []int{1, 1, 2, 2, 3, 4}
	for name, got := range map[string][]int{"leader": lead, "follower": follow} {
		sort.Ints(got)
		if len(got) != len(want) {
			t.Fatalf("%s answers = %v, want multiset %v", name, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s answers = %v, want multiset %v", name, got, want)
			}
		}
	}
	st := mc.Stats()
	if st.RejectedStores != 1 || st.Stores != 0 || st.FlightFallbacks != 1 || mc.Len() != 0 {
		t.Fatalf("stats = %+v, Len = %d; want 1 rejected store, 1 fallback, nothing stored", st, mc.Len())
	}
}
