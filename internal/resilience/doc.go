// Package resilience hardens the mediator's call path against the
// failure modes the paper's live-Internet sources exhibit: >10× latency
// variance, transient errors, and temporary unreachability. It provides a
// policy-driven wrapper around any domain.Domain that adds per-call
// deadlines, bounded retry with decorrelated exponential backoff, a
// per-domain circuit breaker with half-open probing, and mid-stream resume
// after truncated answer streams. Resume is always on, with a constant
// budget of two re-issues per call, and it is the only one: a
// remote.Client reports a broken connection as domain.ErrUnavailable and
// leaves the re-issue to this layer. Cache degradation — serving stale or
// partial answers when a source stays down — lives above this layer, in
// the CIM: the wrapper's job is to fail fast and predictably so the CIM's
// fallback can take over.
//
// All randomness is derived by hashing a seed with the call key, so a
// given workload observes an identical retry schedule on every run; the
// deterministic virtual clock does the rest.
//
// When an obs.Observer is installed (SetObserver, done by core.System
// for every registered domain), the wrapper reports per-domain breaker
// state, transition counts by target state and rejections, and retries,
// timeouts and stream resumes, and tags the active call span. The breaker
// keeps counters, not a history: the state sequence is what its
// transition counters and State show.
package resilience
