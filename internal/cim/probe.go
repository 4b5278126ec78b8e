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

// probeCtx is the scratch context every Probe runs the ladder on: its
// clock absorbs the matching costs, and nothing reads it.
var probeCtx = domain.NewCtx(vclock.NewVirtual(0))

// Probe reports, without side effects on the cache, stats, or any clock,
// how a ground call would be served right now: the source kind and the
// number of answers the cache would contribute. It runs the serve path's
// lookup ladder on a scratch context, which absorbs the matching costs,
// and backs the estimator's CIM-aware costing. Probes are read-only and
// run concurrently with lookups and stores (shard read-locks only).
func (m *Manager) Probe(call domain.Call) (Source, int) {
	var buf [domain.CallBuf]byte
	e, _, src, _ := m.find(probeCtx, call, call.AppendKey(buf[:0]))
	if e == nil {
		return SourceActual, 0
	}
	return src, len(e.Answers)
}
