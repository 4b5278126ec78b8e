package cim

import (
	"time"

	"hermes/internal/domain"
	"hermes/internal/vclock"
)

// CostModel exposes the CIM serve-cost parameters the rule cost estimator
// needs to price CIM-routed calls.
type CostModel struct {
	Lookup     time.Duration
	PerAnswer  time.Duration
	DedupProbe time.Duration
}

// CostModel returns the manager's serve-cost parameters.
func (m *Manager) CostModel() CostModel {
	return CostModel{
		Lookup:     m.cfg.LookupCost,
		PerAnswer:  m.cfg.PerAnswer,
		DedupProbe: m.cfg.DedupProbe,
	}
}

// Probe reports, without side effects on the cache, stats, or any clock,
// how a ground call would be served right now: the source kind and the
// number of answers the cache would contribute. It backs the estimator's
// CIM-aware costing. Probes are read-only and run concurrently with
// lookups and stores (shard read-locks only).
func (m *Manager) Probe(call domain.Call) (Source, int) {
	scratch := domain.NewCtx(vclock.NewVirtual(0)) // absorbs matching costs
	if e, ok := m.store.Get(call.Key()); ok && e.Complete {
		return SourceCacheExact, len(e.Answers)
	}
	if e, _ := m.findEquality(scratch, call); e != nil {
		return SourceCacheEquality, len(e.Answers)
	}
	if e, _ := m.findPartial(scratch, call); e != nil {
		return SourceCachePartial, len(e.Answers)
	}
	return SourceActual, 0
}
