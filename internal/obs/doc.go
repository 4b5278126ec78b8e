// Package obs is the mediator's observability substrate: a dependency-free
// metrics registry (counters, gauges, bounded histograms with p50/p95/p99
// quantiles, all safe under the race detector) and hierarchical query-span
// tracing with an EXPLAIN renderer.
//
// The paper's evaluation (Figures 5–7) hinges on seeing what the optimizer
// did: which plan the rewriter picked, whether the CIM answered from cache,
// an equality invariant, or a partial subset hit, and what the DCSM
// estimated versus what the call actually cost. This package makes all of
// that first-class:
//
//   - Registry is a reader of layer-owned tallies: the layer that observes
//     an event keeps one Counter or Histogram for it as a struct field,
//     bumps it at the event site, and attaches it — with the family's name,
//     help and label values, declared nowhere else — in its SetObserver; a
//     gauge attaches a function that reads the layer's state at scrape
//     time. The registry renders what is attached in Prometheus text
//     exposition format (WritePrometheus, or the /metrics endpoint from
//     Handler) and returns the live series by name.
//   - Tracer starts one root Span per query; the engine, CIM, DCSM,
//     resilience wrapper and remote client hang child spans and outcome
//     tags off it (cim=exact|equality|partial|miss, degraded=true,
//     breaker=open, ...). Finished span trees land in the flight
//     recorder's bounded ring, which /debug/queries renders.
//   - Explain renders a finished span tree as a text tree annotating every
//     node with its estimated versus actual [Tf, Ta, Card] cost vector —
//     the paper's cost triple of time-to-first-answer, time-to-all-answers
//     and cardinality.
//
// A query's trace is stored as flat records owned by its root: span and
// tag records in fixed-size chunks behind one lock per tree, children and
// tags linked by index. A value set as a number (SetTagInt, SetTagMillis,
// SetTagFixed) or an Appender (SetName, SetTagFrom) is kept as one and
// rendered when the tree is first read; an appender must not change for
// the tree's life. A string is kept as given. The first Snapshot of an
// ended tree builds it once, into one node array, one tag array, one cost
// array and one string; later snapshots share that build until a write to
// an ended span invalidates it. Kept means copied out: nothing a flight
// record, a federated subtree or a caller keeps points into the records.
//
// All timestamps are execution-clock readings (time.Duration since clock
// zero), so traces of simulated runs replay deterministically. The package
// imports only the standard library; every layer of the system can depend
// on it without cycles. All Span and Observer methods are nil-receiver
// safe, so instrumented code needs no "is observability on?" conditionals.
package obs
