package estimate

import (
	"fmt"
	"math/rand"
	"testing"

	"hermes/internal/lang"
	"hermes/internal/term"
)

// TestCallPatternKnownConstants: a call argument is a constant in the
// DCSM pattern when it is one, names a plan-time-known variable, or
// selects a path that resolves from a known record; anything else is $b.
func TestCallPatternKnownConstants(t *testing.T) {
	known := subst{}.Bind("X", term.Int(3)).Bind("T", term.NewRecord(term.Field{Name: "loc", Val: term.Str("d7")}))
	ct := &lang.CallTemplate{Domain: "d", Function: "f", Args: []term.Term{
		term.C(term.Str("k")), term.V("X"), term.V("T", "loc"), term.V("Y"), term.V("X", "f"), term.V("Y", "loc"),
	}}
	got := callPattern(ct, known).String()
	if want := "d:f('k', 3, 'd7', $b, $b, $b)"; got != want {
		t.Errorf("callPattern = %s, want %s", got, want)
	}
}

func TestCloneIndependence(t *testing.T) {
	s := subst{}.Bind("X", term.Int(1))
	c := s.Bind("Y", term.Int(2))
	if _, ok := s.Lookup("Y"); ok {
		t.Error("Bind changed the substitution it extended")
	}
	y, _ := c.Lookup("Y")
	x, _ := c.Lookup("X")
	if !term.Equal(y, term.Int(2)) || !term.Equal(x, term.Int(1)) {
		t.Errorf("extended substitution = %v", c)
	}
}

// model is the reference a subst is checked against: the map-backed
// environment, copied whole on every extension.
type model map[string]term.Value

func (m model) bind(name string, v term.Value) model {
	c := make(model, len(m)+1)
	for k, x := range m {
		c[k] = x
	}
	c[name] = v
	return c
}

// agree reports how s differs from m, "" when it does not: the same names
// bound to the same values by Lookup and Len.
func agree(s subst, m model, names []string) string {
	if s.Len() != len(m) {
		return fmt.Sprintf("Len = %d, model has %d", s.Len(), len(m))
	}
	for _, name := range names {
		got, ok := s.Lookup(name)
		want, bound := m[name]
		if ok != bound || (ok && !term.Equal(got, want)) {
			return fmt.Sprintf("Lookup(%s) = %v, %v; model %v, %v", name, got, ok, want, bound)
		}
	}
	return ""
}

// TestSubstMatchesMapModel drives seeded random Bind / Lookup / Len
// sequences — repeated and rebound names included — against the map
// model, each step extending a randomly chosen earlier substitution, and
// re-checks every earlier substitution afterwards: extending one must not
// change it, nor any other value sharing its chain.
func TestSubstMatchesMapModel(t *testing.T) {
	names := []string{"X", "Y", "Z", "R", "T", "Ans", "Frame", "Q"}
	values := []term.Value{
		term.Int(1), term.Int(2), term.Float(1), term.Str("a"), term.Str("rope"),
		term.Tuple{term.Int(1), term.Str("a")},
		term.NewRecord(term.Field{Name: "loc", Val: term.Str("d7")}, term.Field{Name: "n", Val: term.Int(2)}),
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		value := func() term.Value { return values[rng.Intn(len(values))] }
		name := func() string { return names[rng.Intn(len(names))] }
		substs, models := []subst{{}}, []model{{}}
		for step := 0; step < 300; step++ {
			from := rng.Intn(len(substs))
			s, m := substs[from], models[from]
			at := fmt.Sprintf("seed %d step %d (from #%d)", seed, step, from)
			if rng.Intn(2) == 0 { // Bind, shadowing included
				n, v := name(), value()
				substs, models = append(substs, s.Bind(n, v)), append(models, m.bind(n, v))
			} else if diff := agree(s, m, names); diff != "" {
				t.Fatalf("%s: %s", at, diff)
			}
		}
		for i := range substs {
			if diff := agree(substs[i], models[i], names); diff != "" {
				t.Fatalf("seed %d: substitution #%d of %d changed after later extensions: %s", seed, i, len(substs), diff)
			}
		}
	}
}
