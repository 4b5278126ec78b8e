package core

import (
	"bytes"
	"testing"
	"time"

	"hermes/internal/domain"
	"hermes/internal/domain/domaintest"
	"hermes/internal/term"
)

func facadeSystem(t *testing.T) (*System, *domaintest.Domain) {
	t.Helper()
	d := domaintest.New("d")
	d.Define("f", domaintest.Func{Arity: 1, PerCall: 100 * time.Millisecond,
		Fn: func(args []term.Value) ([]term.Value, error) {
			return []term.Value{args[0]}, nil
		}})
	sys := NewSystem(Options{})
	sys.Register(d)
	if err := sys.LoadProgram(`v(X, Y) :- in(Y, d:f(X)).`); err != nil {
		t.Fatal(err)
	}
	return sys, d
}

func TestPlanCostFacade(t *testing.T) {
	sys, _ := facadeSystem(t)
	if err := sys.WarmStatistics([]domain.Call{
		{Domain: "d", Function: "f", Args: []term.Value{term.Int(1)}},
	}); err != nil {
		t.Fatal(err)
	}
	sys.RouteThroughCIM("d", false)
	plans, err := sys.Plans("?- v(1, Y).")
	if err != nil {
		t.Fatal(err)
	}
	cv, err := sys.PlanCost(plans[0])
	if err != nil {
		t.Fatal(err)
	}
	if cv.TAll < 100*time.Millisecond {
		t.Errorf("PlanCost = %v", cv)
	}
}

func TestElapsedAdvances(t *testing.T) {
	sys, _ := facadeSystem(t)
	before := sys.Clock.Now()
	if _, _, err := sys.QueryAll("?- v(1, Y)."); err != nil {
		t.Fatal(err)
	}
	if sys.Clock.Now() <= before {
		t.Error("the system clock did not advance")
	}
}

func TestSaveLoadStateFacade(t *testing.T) {
	sys, _ := facadeSystem(t)
	if _, _, err := sys.QueryAll("?- v(2, Y)."); err != nil {
		t.Fatal(err)
	}
	var cache, stats bytes.Buffer
	if err := sys.SaveState(&cache, &stats); err != nil {
		t.Fatal(err)
	}
	sys2, d2 := facadeSystem(t)
	if err := sys2.LoadState(&cache, &stats); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sys2.QueryAll("?- v(2, Y)."); err != nil {
		t.Fatal(err)
	}
	if d2.CallCount("f") != 0 {
		t.Error("restored state did not serve from cache")
	}
	// Nil writers/readers are skipped without error.
	if err := sys.SaveState(nil, nil); err != nil {
		t.Errorf("SaveState(nil, nil): %v", err)
	}
	if err := sys2.LoadState(nil, nil); err != nil {
		t.Errorf("LoadState(nil, nil): %v", err)
	}
}

func TestSaveStateWithoutCIM(t *testing.T) {
	sys := NewSystem(Options{DisableCIM: true})
	var stats bytes.Buffer
	if err := sys.SaveState(nil, &stats); err != nil {
		t.Errorf("stats-only save with CIM disabled: %v", err)
	}
}

func TestPrimeCacheErrors(t *testing.T) {
	sys := NewSystem(Options{DisableCIM: true})
	if err := sys.PrimeCache(nil); err == nil {
		t.Error("PrimeCache with CIM disabled should error")
	}
	sys2, _ := facadeSystem(t)
	err := sys2.PrimeCache([]domain.Call{{Domain: "nosuch", Function: "f"}})
	if err == nil {
		t.Error("PrimeCache with unknown domain should error")
	}
}

func TestAutoTuneStatisticsFacade(t *testing.T) {
	sys, _ := facadeSystem(t)
	if err := sys.WarmStatistics([]domain.Call{
		{Domain: "d", Function: "f", Args: []term.Value{term.Int(1)}},
	}); err != nil {
		t.Fatal(err)
	}
	p := domain.Pattern{Domain: "d", Function: "f",
		Args: []domain.PatternArg{domain.Const(term.Int(1))}}
	for i := 0; i < 4; i++ {
		if _, err := sys.DCSM.Cost(p); err != nil {
			t.Fatal(err)
		}
	}
	created, _, err := sys.AutoTuneStatistics(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(created) != 1 {
		t.Errorf("created = %v", created)
	}
}

func TestWarmStatisticsErrorPath(t *testing.T) {
	sys, _ := facadeSystem(t)
	err := sys.WarmStatistics([]domain.Call{{Domain: "nosuch", Function: "g"}})
	if err == nil {
		t.Error("warming an unknown domain should error")
	}
}
