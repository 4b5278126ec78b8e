package rewrite_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"hermes/internal/core"
	"hermes/internal/lang"
	"hermes/internal/rewrite"
)

// TestPreparedPlansMatchFresh runs the property test's random programs
// through a mediator: each query, asked and then asked again with other
// constants in the same argument positions, gets from System.PlansFor
// exactly the plans a fresh rewriter enumerates for it — the same count,
// order, rendering, query line and fingerprint.
func TestPreparedPlansMatchFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		src, n := rewrite.GenFlatProgram(rng)
		sys := core.NewSystem(core.Options{})
		if err := sys.LoadProgram(src); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// No domain is registered, so no call is routed through the CIM.
		cfg := rewrite.Config{CIMDomains: map[string]bool{}}
		// Each argument is a variable or, by the mask, a constant whose
		// kind alternates with its position and whose value changes with
		// the ask.
		mask := rng.Intn(1 << n)
		for ask := 0; ask < 2; ask++ {
			args := make([]string, n)
			for i := range args {
				switch {
				case mask&(1<<i) == 0:
					args[i] = fmt.Sprintf("V%d", i)
				case i%2 == 0:
					args[i] = fmt.Sprint(10*ask + i)
				default:
					args[i] = fmt.Sprintf("'c%d'", 10*ask+i)
				}
			}
			q := "?- p(" + strings.Join(args, ", ") + ")."
			if err := samePlans(sys, cfg, q); err != nil {
				t.Fatalf("trial %d, %s over %s: %v", trial, q, src, err)
			}
		}
	}
}

// samePlans compares sys.PlansFor(q) with a fresh rewriter's plans for q
// over the same program, configuration and registry.
func samePlans(sys *core.System, cfg rewrite.Config, q string) error {
	pq, err := lang.ParseQuery(q)
	if err != nil {
		return err
	}
	got, gerr := sys.PlansFor(pq)
	want, werr := rewrite.New(sys.Program, cfg, sys.Registry).Plans(pq)
	if (gerr == nil) != (werr == nil) {
		return fmt.Errorf("PlansFor error %v, fresh error %v", gerr, werr)
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d plans, fresh %d", len(got), len(want))
	}
	for i := range want {
		switch {
		case got[i].String() != want[i].String():
			return fmt.Errorf("plan %d:\n%s\nfresh:\n%s", i+1, got[i], want[i])
		case got[i].QueryLine() != want[i].QueryLine():
			return fmt.Errorf("plan %d: query line %s, fresh %s", i+1, got[i].QueryLine(), want[i].QueryLine())
		case got[i].Fingerprint() != want[i].Fingerprint():
			return fmt.Errorf("plan %d: fingerprint %x, fresh %x", i+1, got[i].Fingerprint(), want[i].Fingerprint())
		}
	}
	return nil
}
