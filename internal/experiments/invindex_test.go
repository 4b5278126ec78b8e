package experiments

import (
	"testing"

	"hermes/internal/cim"
	"hermes/internal/domain"
	"hermes/internal/term"
)

// TestInvindexDifferential runs a scaled-down version of the acceptance
// harness: a large synthetic inventory of invariants that apply to no
// call must leave every answer multiset as the AVIS invariants alone
// give it.
func TestInvindexDifferential(t *testing.T) {
	rep, err := InvindexDifferential(60, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mismatches != 0 {
		t.Fatalf("answers diverged on %d queries with the inventory loaded: %v", rep.Mismatches, rep.MismatchDetails)
	}
}

// TestInvindexScalingManagers exercises the stand-alone scaling manager
// at a small inventory: every invariant registers, and the equality probe
// is served from cache.
func TestInvindexScalingManagers(t *testing.T) {
	m, err := invindexManager(200)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Index().Len(); got != 206 {
		t.Fatalf("registered %d invariants, want 206", got)
	}
	hit := domain.Call{Domain: "avis", Function: "objects_in_range",
		Args: []term.Value{term.Str("rope"), term.Int(0), term.Int(159)}}
	if src, n := m.Probe(hit); src != cim.SourceCacheEquality || n != 3 {
		t.Fatalf("probe served %v with %d answers, want cache-equality with 3", src, n)
	}
}
