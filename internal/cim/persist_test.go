package cim

import (
	"bytes"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"hermes/internal/domain"
	"hermes/internal/domain/domaintest"
	"hermes/internal/term"
)

func TestCacheSaveLoadRoundTrip(t *testing.T) {
	d := domaintest.New("d")
	d.Define("f", domaintest.Func{Arity: 1, PerCall: 50 * time.Millisecond,
		Fn: func(args []term.Value) ([]term.Value, error) {
			return strs("x", "y", "z"), nil
		}})
	reg := domain.NewRegistry()
	reg.Register(d)
	m := New(reg, testCfg())
	for i := 0; i < 3; i++ {
		resp, err := m.CallThrough(newCtx(), call("d", "f", term.Int(int64(i))))
		if err != nil {
			t.Fatal(err)
		}
		drain(t, resp)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}

	// A fresh manager, possibly in a fresh process, loads the snapshot.
	m2 := New(reg, testCfg())
	if err := m2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if m2.Len() != 3 || m2.Bytes() != m.Bytes() {
		t.Fatalf("after load: len=%d bytes=%d (want %d/%d)", m2.Len(), m2.Bytes(), m.Len(), m.Bytes())
	}
	// Served entirely from the reloaded cache: no source call.
	before := d.CallCount("f")
	resp, err := m2.CallThrough(newCtx(), call("d", "f", term.Int(1)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Source != SourceCacheExact {
		t.Errorf("source = %v", resp.Source)
	}
	if got := drain(t, resp); len(got) != 3 {
		t.Errorf("answers = %v", got)
	}
	if d.CallCount("f") != before {
		t.Error("reloaded cache still called the source")
	}
	// The preserved cost vector supports cost-weighted eviction decisions.
	e, ok := m2.Lookup(call("d", "f", term.Int(0)))
	if !ok || e.Cost.TAll < 50*time.Millisecond {
		t.Errorf("entry cost lost: %+v", e)
	}
}

func TestCacheLoadEnforcesBudgets(t *testing.T) {
	reg := domain.NewRegistry()
	m := New(reg, testCfg())
	for i := 0; i < 5; i++ {
		m.Store(call("d", "f", term.Int(int64(i))), strs("0123456789"), true, domain.CostVector{})
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	cfg := testCfg()
	cfg.MaxEntries = 2
	m2 := New(reg, cfg)
	if err := m2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if m2.Len() != 2 {
		t.Errorf("budget not enforced on load: %d entries", m2.Len())
	}
}

func TestCacheLoadRejectsBadInput(t *testing.T) {
	m := New(domain.NewRegistry(), testCfg())
	if err := m.Load(strings.NewReader("nope")); err == nil {
		t.Error("garbage should fail")
	}
	if err := m.Load(strings.NewReader(`{"version": 9}`)); err == nil {
		t.Error("unknown version should fail")
	}
}

func TestCacheSaveLoadIncompleteEntries(t *testing.T) {
	reg := domain.NewRegistry()
	m := New(reg, testCfg())
	m.Store(call("d", "f", term.Int(1)), strs("partial"), false, domain.CostVector{})
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2 := New(reg, testCfg())
	if err := m2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	e, ok := m2.Lookup(call("d", "f", term.Int(1)))
	if !ok || e.Complete {
		t.Errorf("incomplete flag lost: %+v ok=%v", e, ok)
	}
}

func TestCacheSaveLoadLedgerRoundTrip(t *testing.T) {
	d := domaintest.New("d")
	d.Define("f", domaintest.Func{Arity: 1, PerCall: 50 * time.Millisecond,
		Fn: func(args []term.Value) ([]term.Value, error) {
			return strs("x", "y"), nil
		}})
	reg := domain.NewRegistry()
	reg.Register(d)
	m := New(reg, testCfg())
	// Earn some exact-hit savings: the second call of each pair serves
	// from cache and credits the ledger.
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			resp, err := m.CallThrough(newCtx(), call("d", "f", term.Int(int64(j))))
			if err != nil {
				t.Fatal(err)
			}
			drain(t, resp)
		}
	}
	// A "(memo)" bucket, which earlier versions credited memo hits to,
	// round-trips as a historical row.
	m.ledger.credit("(memo)", 700*time.Millisecond)
	before := m.Ledger()
	if before.Total == 0 || len(before.Invariants) != 2 {
		t.Fatalf("ledger before save: %+v, want the exact and (memo) buckets", before)
	}

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2 := New(reg, testCfg())
	if err := m2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	after := m2.Ledger()
	if !reflect.DeepEqual(before, after) {
		t.Errorf("ledger did not round-trip:\nbefore: %+v\nafter:  %+v", before, after)
	}
}

func TestCacheLoadVersion1WithoutLedger(t *testing.T) {
	// A pre-ledger snapshot (version 1, no ledger field) must still load,
	// leaving the ledger empty rather than failing or inventing rows.
	m := New(domain.NewRegistry(), testCfg())
	if err := m.Load(strings.NewReader(`{"version":1,"counter":3,"entries":[]}`)); err != nil {
		t.Fatalf("version-1 snapshot rejected: %v", err)
	}
	if led := m.Ledger(); led.Total != 0 || len(led.Invariants) != 0 || len(led.Entries) != 0 {
		t.Errorf("ledger not empty after v1 load: %+v", led)
	}
}

func TestInvalidationHookFires(t *testing.T) {
	reg := domain.NewRegistry()
	m := New(reg, testCfg())
	var fired []string
	m.SetOnInvalidate(func(callKey string) { fired = append(fired, callKey) })

	// A fresh store must NOT invalidate: the miss that produced it is
	// feeding an in-progress memo fill, and killing that entry would
	// invalidate every memo relation the moment it is built.
	c1 := call("d", "f", term.Int(1))
	m.Store(c1, strs("a"), false, domain.CostVector{})
	if len(fired) != 0 {
		t.Fatalf("fresh store fired invalidation: %v", fired)
	}
	// Replacing the entry (refresh) must invalidate: memo relations built
	// from the old answers are stale.
	m.Store(c1, strs("a", "b"), true, domain.CostVector{})
	if !reflect.DeepEqual(fired, []string{c1.Key()}) {
		t.Fatalf("replace: fired = %v, want [%s]", fired, c1.Key())
	}

	// Clear invalidates everything that was cached.
	fired = nil
	c2 := call("d", "f", term.Int(2))
	m.Store(c2, strs("c"), true, domain.CostVector{})
	m.Clear()
	sort.Strings(fired)
	want := []string{c1.Key(), c2.Key()}
	sort.Strings(want)
	if !reflect.DeepEqual(fired, want) {
		t.Fatalf("clear: fired = %v, want %v", fired, want)
	}

	// Eviction invalidates the victim.
	cfg := testCfg()
	cfg.MaxEntries = 1
	m2 := New(reg, cfg)
	var evicted []string
	m2.SetOnInvalidate(func(callKey string) { evicted = append(evicted, callKey) })
	m2.Store(c1, strs("a"), true, domain.CostVector{})
	m2.Store(c2, strs("b"), true, domain.CostVector{})
	if len(evicted) != 1 {
		t.Fatalf("evict: fired = %v, want exactly one victim", evicted)
	}

	// Loading a snapshot invalidates the entries it replaces.
	var buf bytes.Buffer
	m3 := New(reg, testCfg())
	if err := m3.Save(&buf); err != nil {
		t.Fatal(err)
	}
	fired = nil
	if err := m.Load(&buf); err != nil {
		t.Fatal(err)
	}
	// m was cleared above, so a load over the (re-stored) empty cache
	// fires nothing; store first, then load.
	m.Store(c1, strs("a"), true, domain.CostVector{})
	fired = nil
	buf.Reset()
	if err := m3.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := m.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fired, []string{c1.Key()}) {
		t.Fatalf("load: fired = %v, want [%s]", fired, c1.Key())
	}
}
