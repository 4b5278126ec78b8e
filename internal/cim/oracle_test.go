package cim

import (
	"fmt"
	"maps"
	"testing"

	"hermes/internal/domain"
	"hermes/internal/invindex"
	"hermes/internal/lang"
	"hermes/internal/term"
)

// names is the reference matcher's environment: variables bound by name,
// copied on every extension. The ladder matches into frames of compiled
// slots; the oracle matches by name, so the two share no matching code.
type names map[string]term.Value

func (n names) eval(t term.Term) (term.Value, bool) {
	if t.IsConst() {
		return t.Const, true
	}
	v, ok := n[t.Var]
	if ok && len(t.Path) > 0 {
		var err error
		v, err = term.Select(v, t.Path)
		ok = err == nil
	}
	return v, ok
}

// unify matches a call template against a ground call, extending n.
func (n names) unify(tmpl *lang.CallTemplate, c domain.Call) (names, bool) {
	if tmpl.Domain != c.Domain || tmpl.Function != c.Function || len(tmpl.Args) != len(c.Args) {
		return nil, false
	}
	out := maps.Clone(n)
	for i, t := range tmpl.Args {
		if cur, ok := out.eval(t); ok || !t.IsVar() {
			if !ok || !term.Equal(cur, c.Args[i]) {
				return nil, false
			}
			continue
		}
		out[t.Var] = c.Args[i]
	}
	return out, true
}

// holds evaluates an invariant condition; one that cannot be evaluated
// does not hold.
func (n names) holds(cond []lang.Comparison) bool {
	for _, c := range cond {
		l, lok := n.eval(c.Left)
		r, rok := n.eval(c.Right)
		if !lok || !rok {
			return false
		}
		if ok, err := c.Op.Holds(l, r); err != nil || !ok {
			return false
		}
	}
	return true
}

// linearLadder is the test-only oracle for find: §4.1's lookup ladder
// with no index and name-keyed matching. It walks invs, the invariants in registration order,
// with invindex.Relevant as the dispatch check, and scans a snapshot of
// the whole store for every invariant side, ground or not. It reports
// the source kind and the number of answers the serving entry holds.
func linearLadder(m *Manager, invs []*lang.Invariant, c domain.Call) (Source, int) {
	snap := m.store.Snapshot()
	key := c.Key()
	var own *Entry
	for _, e := range snap {
		if e.key == key {
			own = e
		}
	}
	if own != nil && own.Complete {
		return SourceCacheExact, len(own.Answers)
	}
	// matches lists the entries tmpl matches under θ with cond holding.
	matches := func(theta names, cond []lang.Comparison, tmpl *lang.CallTemplate, complete bool) []*Entry {
		var out []*Entry
		for _, e := range snap {
			if complete && !e.Complete {
				continue
			}
			if theta2, ok := theta.unify(tmpl, e.Call); ok && theta2.holds(cond) {
				out = append(out, e)
			}
		}
		return out
	}
	for _, inv := range invs {
		if inv.Rel != lang.RelEqual || !invindex.Relevant(&inv.Left, c) && !invindex.Relevant(&inv.Right, c) {
			continue
		}
		for _, sides := range [][2]*lang.CallTemplate{{&inv.Left, &inv.Right}, {&inv.Right, &inv.Left}} {
			theta, ok := names{}.unify(sides[0], c)
			if !ok {
				continue
			}
			var best *Entry
			for _, e := range matches(theta, inv.Cond, sides[1], true) {
				if best == nil || e.lastUsed.Load() > best.lastUsed.Load() {
					best = e
				}
			}
			if best != nil {
				return SourceCacheEquality, len(best.Answers)
			}
		}
	}
	best := -1
	if own != nil {
		best = len(own.Answers)
	}
	for _, inv := range invs {
		if inv.Rel != lang.RelSuperset || !invindex.Relevant(&inv.Left, c) {
			continue
		}
		theta, ok := names{}.unify(&inv.Left, c)
		if !ok {
			continue
		}
		for _, e := range matches(theta, inv.Cond, &inv.Right, false) {
			if n := len(e.Answers); n > 0 && n > best {
				best = n
			}
		}
	}
	if best < 0 {
		return SourceActual, 0
	}
	return SourceCachePartial, best
}

// fuzzBytes reads small choices off a fuzz input, 0 once it runs out.
type fuzzBytes []byte

func (b *fuzzBytes) pick(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0]) % n
	*b = (*b)[1:]
	return v
}

// fuzzCall draws a call to one of three functions of one domain, with one
// or two small integer arguments: few enough shapes that invariants,
// cached calls and the probe keep meeting.
func fuzzCall(b *fuzzBytes) domain.Call {
	args := make([]term.Value, 1+b.pick(2))
	for i := range args {
		args[i] = term.Int(int64(b.pick(4)))
	}
	return call("d", string(rune('f'+b.pick(3))), args...)
}

// fuzzSide draws an invariant side over the same functions: each argument
// is one of the variables X, Y, Z or a small integer.
func fuzzSide(b *fuzzBytes) string {
	s := "d:" + string(rune('f'+b.pick(3))) + "("
	for i, n := 0, 1+b.pick(2); i < n; i++ {
		if i > 0 {
			s += ", "
		}
		if v := b.pick(6); v < 3 {
			s += string(rune('X' + v))
		} else {
			s += fmt.Sprint(v - 3)
		}
	}
	return s + ")"
}

// FuzzLadderMatchesLinearOracle draws invariants, cached calls and a
// probe, and checks that the indexed ladder (Probe runs find) and
// linearLadder agree on the serving source and the cached answer count.
func FuzzLadderMatchesLinearOracle(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0, 1, 1, 2, 0, 2, 0, 0, 0})
	f.Add([]byte{1, 0, 2, 3, 4, 0, 0, 1, 5, 1, 3, 1, 0, 2, 2, 0, 0, 1})
	f.Add([]byte{2, 1, 1, 3, 0, 4, 1, 0, 0, 3, 2, 1, 0, 1, 2, 3, 1, 1, 0, 0, 0, 1})
	f.Add([]byte("\x03\x01\x00\x01\x00\x00\x01\x01\x02\x01\x00\x03\x02\x01\x01\x00\x02\x00\x01\x02\x00\x00\x01\x01"))
	conds := []string{"true", "X <= Y", "Y <= X", "X < 2", "X = Y"}
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBytes(data)
		m := New(nil, testCfg())
		var invs []*lang.Invariant
		for i, n := 0, 1+b.pick(4); i < n; i++ {
			rel := " = "
			if b.pick(2) == 1 {
				rel = " >= "
			}
			src := conds[b.pick(len(conds))] + " => " + fuzzSide(&b) + rel + fuzzSide(&b) + "."
			inv, err := lang.ParseInvariant(src)
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			if m.AddInvariant(inv) == nil {
				invs = append(invs, inv)
			}
		}
		for i, n := 0, b.pick(8); i < n; i++ {
			answers := make([]term.Value, b.pick(4))
			for j := range answers {
				answers[j] = term.Int(int64(j))
			}
			m.Store(fuzzCall(&b), answers, b.pick(3) != 0, domain.CostVector{})
		}
		probe := fuzzCall(&b)
		gotSrc, gotN := m.Probe(probe)
		wantSrc, wantN := linearLadder(m, invs, probe)
		if gotSrc != wantSrc || gotN != wantN {
			t.Fatalf("probe %s with %v: ladder %v/%d, linear oracle %v/%d", probe, invs, gotSrc, gotN, wantSrc, wantN)
		}
	})
}

// BenchmarkInvariantMatch measures a cache probe against growing
// invariant inventories, the discrimination-indexed ladder against the
// linear oracle: the indexed probe stays ~O(bucket) while the linear
// scan grows O(N). The hit probe is served via an equality invariant
// registered after every synthetic one; the miss probe matches nothing
// (the linear worst case).
func BenchmarkInvariantMatch(b *testing.B) {
	hit := call("d", "g", term.Str("a"))
	miss := call("d", "nomatch", term.Str("a"))
	for _, n := range []int{1, 100, 10000} {
		m := New(nil, testCfg())
		var invs []*lang.Invariant
		for i := 0; i <= n; i++ {
			src := fmt.Sprintf("true => syn%d:lookup%d(X) = syn%d:probe%d(X).", i%7, i, i%7, i)
			if i == n {
				src = "true => d:f(X) = d:g(X)."
			}
			inv, err := lang.ParseInvariant(src)
			if err != nil {
				b.Fatal(err)
			}
			m.AddInvariant(inv)
			invs = append(invs, inv)
		}
		m.Store(call("d", "f", term.Str("a")), strs("x"), true, domain.CostVector{})
		for _, mode := range []struct {
			name  string
			probe func(domain.Call) (Source, int)
		}{
			{"indexed", m.Probe},
			{"linear", func(c domain.Call) (Source, int) { return linearLadder(m, invs, c) }},
		} {
			b.Run(fmt.Sprintf("invs=%d/%s/hit", n, mode.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if src, _ := mode.probe(hit); src != SourceCacheEquality {
						b.Fatalf("probe served %v, want equality hit", src)
					}
				}
			})
			b.Run(fmt.Sprintf("invs=%d/%s/miss", n, mode.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if src, _ := mode.probe(miss); src != SourceActual {
						b.Fatalf("probe served %v, want actual", src)
					}
				}
			})
		}
	}
}
