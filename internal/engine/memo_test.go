package engine

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"hermes/internal/domain"
	"hermes/internal/domain/domaintest"
	"hermes/internal/memo"
	"hermes/internal/rewrite"
	"hermes/internal/term"
	"hermes/internal/vclock"
)

// openCursor starts plan on a fresh virtual clock.
func openCursor(t *testing.T, eng *Engine, plan *rewrite.Plan) *Cursor {
	t.Helper()
	cur, err := eng.ExecutePlan(domain.NewCtx(vclock.NewVirtual(0)), plan)
	if err != nil {
		t.Fatal(err)
	}
	return cur
}

// pull reads up to n answers (all of them for n < 0) as sorted-later keys,
// stopping at exhaustion or at the first error, which it returns.
func pull(cur *Cursor, n int) ([]string, error) {
	var out []string
	for n < 0 || len(out) < n {
		a, ok, err := cur.Next()
		if err != nil || !ok {
			return out, err
		}
		parts := make([]string, len(a.Vals))
		for i, v := range a.Vals {
			parts[i] = v.Key()
		}
		out = append(out, strings.Join(parts, "|"))
	}
	return out, nil
}

// sameMultiset reports whether a and b hold the same keys with the same
// multiplicities.
func sameMultiset(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	return fmt.Sprint(a) == fmt.Sprint(b)
}

// TestMemoInterleavedOversizedFills interleaves two fills of the same
// subgoal whose relation is three times the memo's per-entry cap: each
// fill is abandoned at the tuple that crosses the cap, each cursor keeps
// answering the full multiset, and nothing is stored.
func TestMemoInterleavedOversizedFills(t *testing.T) {
	big := func(c byte) term.Value { return term.Str(strings.Repeat(string(c), 100<<10)) }
	d := domaintest.New("d")
	d.Define("rows", domaintest.Func{Arity: 0,
		Fn: func([]term.Value) ([]term.Value, error) {
			// 600 KiB: the third row crosses the 256 KiB cap.
			return []term.Value{big('a'), big('b'), big('b'), big('c'), big('a'), big('d')}, nil
		}})
	h := newHarness(t, d)
	want, _ := pull(openCursor(t, h.eng, h.plan(`p(X) :- in(X, d:rows()).`, "?- p(X).")), -1)

	mc := memo.New(memo.DefaultConfig())
	h.eng.SetMemo(mc)
	plan := h.plan(`p(X) :- in(X, d:rows()).`, "?- p(X).")
	first, second := openCursor(t, h.eng, plan), openCursor(t, h.eng, plan)
	var got [2][]string
	for i := 0; i < 3; i++ { // alternate two answers at a time
		for j, cur := range []*Cursor{first, second} {
			more, err := pull(cur, 2)
			if err != nil {
				t.Fatal(err)
			}
			got[j] = append(got[j], more...)
		}
	}
	for j, cur := range []*Cursor{first, second} {
		rest, err := pull(cur, -1)
		if err != nil {
			t.Fatal(err)
		}
		if got[j] = append(got[j], rest...); !sameMultiset(got[j], want) {
			t.Errorf("cursor %d answered %d rows, not the memo-off multiset of %d", j, len(got[j]), len(want))
		}
	}
	if st := mc.Stats(); st.RejectedStores != 2 || st.Stores != 0 || mc.Len() != 0 {
		t.Fatalf("stats = %+v, Len = %d; want 2 rejected stores and nothing stored", st, mc.Len())
	}
}

// TestMemoRecursion: with the memo on, a recursive re-entry with the same
// memo key is the same evaluation one level deeper. A cyclic walk ends at
// the depth guard with the memo-off answers and stores nothing; a
// right-recursive chain answers identically memo-off, memo-on cold and
// memo-on warm.
func TestMemoRecursion(t *testing.T) {
	const prog = `
		walk(X, Y) :- in(Y, d:edge(X)).
		walk(X, Y) :- in(Z, d:edge(X)), walk(Z, Y).
	`
	run := func(succ func(int64) []term.Value, withMemo bool, runs int) ([][]string, []error, *memo.Cache) {
		d := domaintest.New("d")
		d.Define("edge", domaintest.Func{Arity: 1,
			Fn: func(args []term.Value) ([]term.Value, error) { return succ(int64(args[0].(term.Int))), nil }})
		h := newHarness(t, d)
		var mc *memo.Cache
		if withMemo {
			mc = memo.New(memo.DefaultConfig())
			h.eng.SetMemo(mc)
		}
		plan := h.plan(prog, "?- walk(0, Y).")
		answers, errs := make([][]string, runs), make([]error, runs)
		for i := range answers {
			answers[i], errs[i] = pull(openCursor(t, h.eng, plan), -1)
		}
		return answers, errs, mc
	}

	cycle := func(n int64) []term.Value { return []term.Value{term.Int((n + 1) % 3)} }
	off, offErr, _ := run(cycle, false, 1)
	on, onErr, mc := run(cycle, true, 1)
	for name, err := range map[string]error{"memo-off": offErr[0], "memo-on": onErr[0]} {
		if err == nil || !strings.Contains(err.Error(), "recursion deeper") {
			t.Errorf("cyclic walk %s: err = %v, want the depth guard", name, err)
		}
	}
	if len(off[0]) == 0 || !sameMultiset(on[0], off[0]) {
		t.Errorf("cyclic walk: memo-on answered %v, memo-off %v", on[0], off[0])
	}
	if st := mc.Stats(); st.Misses == 0 || st.Stores != 0 || mc.Len() != 0 {
		t.Errorf("cyclic walk memo stats %+v, Len %d; want fills that all ended in the depth guard", st, mc.Len())
	}
	t.Logf("cyclic walk: %d answers before the depth guard, %d fills", len(on[0]), mc.Stats().Misses)

	chain := func(n int64) []term.Value {
		if n >= 3 {
			return nil
		}
		return []term.Value{term.Int(n + 1)}
	}
	off, offErr, _ = run(chain, false, 1)
	on, onErr, mc = run(chain, true, 2)
	if err := errors.Join(offErr[0], onErr[0], onErr[1]); err != nil {
		t.Fatal(err)
	}
	if len(off[0]) != 3 || !sameMultiset(on[0], off[0]) || !sameMultiset(on[1], off[0]) {
		t.Errorf("chain walk: memo-off %v, memo-on cold %v, warm %v", off[0], on[0], on[1])
	}
	if st := mc.Stats(); st.Hits != 1 || st.Stores == 0 {
		t.Errorf("chain walk memo stats %+v, want the warm run served by one hit", st)
	}
}

// TestMemoInterleavedCursorsShareSourceCalls: two cursors on the same IDB
// query, pulled alternately, each evaluate their own fill; the CIM beneath
// coalesces their source call, so each cursor answers the memo-off
// multiset and the source sees one call.
func TestMemoInterleavedCursorsShareSourceCalls(t *testing.T) {
	const prog = `p(X) :- in(X, d:gen()).`
	eng, _, _, plan := cimHarness(t)
	want, err := pull(openCursor(t, eng, plan(prog, "?- p(X).")), -1)
	if err != nil {
		t.Fatal(err)
	}

	eng, _, d, plan := cimHarness(t)
	mc := memo.New(memo.DefaultConfig())
	eng.SetMemo(mc)
	pl := plan(prog, "?- p(X).")
	curs := []*Cursor{openCursor(t, eng, pl), openCursor(t, eng, pl)}
	got := make([][]string, len(curs))
	for open := len(curs); open > 0; {
		open = 0
		for i, cur := range curs {
			more, err := pull(cur, 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(more) > 0 {
				got[i] = append(got[i], more...)
				open++
			}
		}
	}
	for i := range curs {
		if !sameMultiset(got[i], want) {
			t.Errorf("cursor %d answered %v, want the memo-off multiset %v", i, got[i], want)
		}
	}
	if n := d.CallCount("gen"); n != 1 {
		t.Errorf("source saw %d gen calls, want 1", n)
	}
	if st := mc.Stats(); st.Misses != 2 || st.Stores != 2 || mc.Len() != 1 {
		t.Errorf("memo stats %+v, Len %d; want two fills of one entry", st, mc.Len())
	}
}
