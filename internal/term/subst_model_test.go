package term

import (
	"fmt"
	"math/rand"
	"testing"
)

// model is the reference a Subst is checked against: the map-backed
// environment, copied whole on every extension.
type model map[string]Value

func (m model) bind(name string, v Value) model {
	c := make(model, len(m)+1)
	for k, x := range m {
		c[k] = x
	}
	c[name] = v
	return c
}

func (m model) eval(t Term) (Value, bool) {
	if t.IsConst() {
		return t.Const, true
	}
	v, ok := m[t.Var]
	if !ok {
		return nil, false
	}
	if len(t.Path) == 0 {
		return v, true
	}
	sel, err := Select(v, t.Path)
	return sel, err == nil
}

func (m model) unify(t Term, v Value) (model, bool) {
	if t.IsConst() || len(t.Path) > 0 {
		cur, ok := m.eval(t)
		return m, ok && Equal(cur, v)
	}
	if bound, ok := m[t.Var]; ok {
		return m, Equal(bound, v)
	}
	return m.bind(t.Var, v), true
}

func (m model) unifyAll(ts []Term, vs []Value) (model, bool) {
	if len(ts) != len(vs) {
		return nil, false
	}
	cur := m
	for i, t := range ts {
		next, ok := cur.unify(t, vs[i])
		if !ok {
			return nil, false
		}
		cur = next
	}
	return cur, true
}

// agree reports how s differs from m, "" when it does not: the same names
// bound to the same values by Lookup, Len and Each, and nothing else.
func agree(s Subst, m model, names []string) string {
	if s.Len() != len(m) {
		return fmt.Sprintf("Len = %d, model has %d", s.Len(), len(m))
	}
	for _, name := range names {
		got, ok := s.Lookup(name)
		want, bound := m[name]
		if ok != bound || (ok && !Equal(got, want)) {
			return fmt.Sprintf("Lookup(%s) = %v, %v; model %v, %v", name, got, ok, want, bound)
		}
	}
	seen := map[string]bool{}
	diff := ""
	s.Each(func(name string, v Value) {
		if want, bound := m[name]; seen[name] || !bound || !Equal(v, want) {
			diff = fmt.Sprintf("Each visited %s=%v (again: %v); model %v, %v", name, v, seen[name], want, bound)
		}
		seen[name] = true
	})
	if diff == "" && len(seen) != len(m) {
		diff = fmt.Sprintf("Each visited %d names, model has %d", len(seen), len(m))
	}
	return diff
}

// TestSubstMatchesMapModel drives seeded random Bind / Unify / UnifyAll /
// Eval / Ground / Lookup sequences — constants, bound and unbound
// variables, attribute paths, repeated and rebound names — against the map
// model, each step extending a randomly chosen earlier substitution, and
// re-checks every earlier substitution afterwards: extending one must not
// change it, nor any other value sharing its chain.
func TestSubstMatchesMapModel(t *testing.T) {
	names := []string{"X", "Y", "Z", "R", "T", "Ans", "Frame", "Q"}
	values := []Value{
		Int(1), Int(2), Float(1), Str("a"), Str("rope"),
		Tuple{Int(1), Str("a")},
		NewRecord(Field{Name: "loc", Val: Str("d7")}, Field{Name: "n", Val: Int(2)}),
	}
	paths := [][]string{nil, nil, nil, {"1"}, {"2"}, {"loc"}, {"n"}, {"loc", "x"}, {"9"}}

	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		value := func() Value { return values[rng.Intn(len(values))] }
		name := func() string { return names[rng.Intn(len(names))] }
		randTerm := func() Term {
			if rng.Intn(4) == 0 {
				return C(value())
			}
			return V(name(), paths[rng.Intn(len(paths))]...)
		}
		substs, models := []Subst{{}}, []model{{}}
		for step := 0; step < 300; step++ {
			from := rng.Intn(len(substs))
			s, m := substs[from], models[from]
			at := fmt.Sprintf("seed %d step %d (from #%d)", seed, step, from)
			switch op := rng.Intn(6); op {
			case 0: // Bind, shadowing included
				n, v := name(), value()
				substs, models = append(substs, s.Bind(n, v)), append(models, m.bind(n, v))
			case 1:
				tm, v := randTerm(), value()
				if rng.Intn(2) == 0 {
					// Half the time aim at the value the term already has,
					// so the agreeing branches are reached too.
					if cur, ok := m.eval(tm); ok {
						v = cur
					}
				}
				gs, gok := s.Unify(tm, v)
				wm, wok := m.unify(tm, v)
				if gok != wok {
					t.Fatalf("%s: Unify(%s, %v) ok = %v, model %v", at, tm, v, gok, wok)
				}
				if gok {
					substs, models = append(substs, gs), append(models, wm)
				} else if gs.Len() != 0 {
					t.Fatalf("%s: failed Unify returned a non-empty substitution", at)
				}
			case 2:
				k := rng.Intn(4)
				ts, vs := make([]Term, k), make([]Value, k+rng.Intn(5)/4) // arity mismatch 1 in 5
				for i := range ts {
					ts[i] = randTerm()
				}
				for i := range vs {
					vs[i] = value()
					if i < k && rng.Intn(2) == 0 {
						if cur, ok := m.eval(ts[i]); ok {
							vs[i] = cur
						}
					}
				}
				gs, gok := s.UnifyAll(ts, vs)
				wm, wok := m.unifyAll(ts, vs)
				if gok != wok {
					t.Fatalf("%s: UnifyAll(%v, %v) ok = %v, model %v", at, ts, vs, gok, wok)
				}
				if gok {
					substs, models = append(substs, gs), append(models, wm)
				} else if gs.Len() != 0 {
					t.Fatalf("%s: failed UnifyAll returned a non-empty substitution", at)
				}
			case 3:
				tm := randTerm()
				got, err := s.Eval(tm)
				want, ok := m.eval(tm)
				if (err == nil) != ok || (ok && !Equal(got, want)) {
					t.Fatalf("%s: Eval(%s) = %v, %v; model %v, %v", at, tm, got, err, want, ok)
				}
			case 4:
				tm := randTerm()
				_, bound := m[tm.Var]
				if got, want := s.Ground(tm), tm.IsConst() || bound; got != want {
					t.Fatalf("%s: Ground(%s) = %v, model %v", at, tm, got, want)
				}
			case 5:
				if diff := agree(s, m, names); diff != "" {
					t.Fatalf("%s: %s", at, diff)
				}
			}
		}
		for i := range substs {
			if diff := agree(substs[i], models[i], names); diff != "" {
				t.Fatalf("seed %d: substitution #%d of %d changed after later extensions: %s", seed, i, len(substs), diff)
			}
		}
	}
}

// TestSubstAllocsPerBinding: unifying a constant or an already-bound variable
// allocates nothing, and a new binding allocates exactly its one node
// however many bindings are behind it.
func TestSubstAllocsPerBinding(t *testing.T) {
	s := Subst{}
	for i, n := range []string{"A", "B", "C", "D", "E"} {
		s = s.Bind(n, Int(int64(i)))
	}
	var v Value = Str("rope")
	bound, cnst, fresh := V("C"), C(v), V("Fresh")
	var two Value = Int(2)
	if n := testing.AllocsPerRun(200, func() { s.Unify(bound, two) }); n != 0 {
		t.Errorf("Unify of an already-bound variable allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { s.Unify(cnst, v) }); n != 0 {
		t.Errorf("Unify of a constant allocates %v times, want 0", n)
	}
	var sink Subst
	if n := testing.AllocsPerRun(200, func() { sink, _ = s.Unify(fresh, v) }); n != 1 {
		t.Errorf("Unify of a fresh variable allocates %v times, want 1", n)
	}
	if n := testing.AllocsPerRun(200, func() { sink = s.Bind("Fresh", v) }); n != 1 {
		t.Errorf("Bind allocates %v times, want 1", n)
	}
	_ = sink
}
