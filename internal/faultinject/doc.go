// Package faultinject wraps a domain.Domain with seeded, deterministic
// fault injection: per-call transient errors, latency spikes, mid-stream
// truncation, and scheduled unavailability windows. It is the test
// harness counterpart of internal/resilience: the soundness property
// (internal/oracle's FuzzSystemMatchesOracle) wraps sources with an
// Injector and checks that the resilience layer and the CIM's cache
// fallback keep every answer within the oracle's and every query live,
// and the availability ablation schedules its outage window with one.
//
// Every decision is a pure function of (seed, call key, per-key
// occurrence number), so the same seed and workload produce an identical
// fault schedule on every run; the Injector records an event log that
// tests can compare across runs to prove it.
package faultinject
