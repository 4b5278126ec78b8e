package experiments

import (
	"time"

	"hermes/internal/cim"
	"hermes/internal/core"
	"hermes/internal/engine"
)

// This file is the only home of the modelled mediator overhead: the
// constants the §8 figures were calibrated with. The layers' own defaults
// charge nothing, so a system charges these only by going through
// paperProfile — which every system this package builds does.

// The engine's fixed overheads implied by the paper's cache-only timings
// (≈300 ms to a first cached answer: "query initialization + wait for
// response + display"), and the memo's probe/replay costs — far below the
// CIM's per-call costs because a memo hit replaces a whole join pipeline,
// not one source call.
const (
	paperQueryInit    = 230 * time.Millisecond
	paperPerDisplay   = 9 * time.Millisecond
	paperMemoLookup   = 500 * time.Microsecond
	paperMemoPerTuple = 200 * time.Microsecond
)

// paperCIMConfig prices CIM operation the way the paper's implementation
// measured it: Figure 5's cache-only rows cost ≈300 ms to the first answer
// and ≈1 s to all answers (including query initialization and display),
// and equality-invariant hits cost several hundred ms more than exact hits
// because the cache must be scanned and conditions checked.
func paperCIMConfig() cim.Config {
	return cim.Config{
		LookupCost:     40 * time.Millisecond,
		PerAnswer:      25 * time.Millisecond,
		InvariantMatch: 80 * time.Millisecond,
		ScanPerEntry:   15 * time.Millisecond,
		DedupProbe:     11 * time.Millisecond,
		ParallelActual: true,
	}
}

// lightCIMConfig is the second CIM cost set: cache work an order of
// magnitude cheaper than the paper's, for the studies that characterize
// caching policies (hit rate, invariant index) rather than reproduce
// Figure 5's absolute latencies.
func lightCIMConfig() cim.Config {
	cfg := cim.DefaultConfig()
	cfg.LookupCost = 1200 * time.Microsecond
	cfg.PerAnswer = 800 * time.Microsecond
	cfg.InvariantMatch = 900 * time.Microsecond
	cfg.ScanPerEntry = 350 * time.Microsecond
	cfg.DedupProbe = 500 * time.Microsecond
	return cfg
}

// paperProfile returns opts with the overhead model filled in: the engine
// configuration (the profile's own — no experiment brings one), the
// paper's CIM costs unless the caller brought a CIM configuration, the
// memo costs when the memo is on.
func paperProfile(opts core.Options) core.Options {
	opts.Engine = &engine.Config{QueryInit: paperQueryInit, PerDisplay: paperPerDisplay}
	if opts.CIM == nil {
		ccfg := paperCIMConfig()
		opts.CIM = &ccfg
	}
	if opts.Memo != nil {
		mcfg := *opts.Memo
		mcfg.LookupCost, mcfg.PerTuple = paperMemoLookup, paperMemoPerTuple
		opts.Memo = &mcfg
	}
	return opts
}
