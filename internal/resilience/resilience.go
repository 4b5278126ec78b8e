package resilience

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"hermes/internal/domain"
	"hermes/internal/obs"
	"hermes/internal/term"
)

// ErrCallTimeout reports that one call attempt exceeded the per-call
// budget. It surfaces wrapped in domain.ErrUnavailable (retryable).
var ErrCallTimeout = errors.New("per-call timeout exceeded")

// maxResumes bounds the mid-stream re-issues of one call.
const maxResumes = 2

// Policy is the resilience policy applied to every call through a Wrapper.
type Policy struct {
	// MaxAttempts bounds call attempts, the first try included (≤1 means
	// no retry).
	MaxAttempts int
	// CallTimeout bounds one attempt's setup time (call issue through
	// stream creation) on the execution clock; 0 disables. An attempt
	// that overruns charges exactly CallTimeout — the caller gave up
	// waiting at that point — and counts as a retryable failure.
	CallTimeout time.Duration
	// BackoffBase and BackoffCap bound the decorrelated-jitter retry
	// delays.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// Seed drives the deterministic backoff jitter.
	Seed uint64
	// Breaker configures the per-domain circuit breaker.
	Breaker BreakerConfig
}

// DefaultPolicy returns a policy tuned for the paper's WAN sources:
// a few retries with sub-second backoff, and a breaker that trips after
// five straight failures and probes again after 30 s of execution time.
func DefaultPolicy() Policy {
	return Policy{
		MaxAttempts: 4,
		BackoffBase: 50 * time.Millisecond,
		BackoffCap:  2 * time.Second,
		Seed:        1,
		Breaker: BreakerConfig{
			FailureThreshold: 5,
			OpenTimeout:      30 * time.Second,
		},
	}
}

// Metrics count the wrapper's activity: a view of its tallies, one atomic
// read per field and not one critical section — read it after the workload
// quiesces when the fields must add up.
type Metrics struct {
	// Calls is how many calls entered the wrapper.
	Calls int
	// Attempts is how many attempts reached the wrapped domain.
	Attempts int
	// Retries is how many attempts were repeats after a failure.
	Retries int
	// Successes and Failures count calls by final outcome.
	Successes int
	Failures  int
	// Timeouts counts attempts abandoned at the per-call timeout.
	Timeouts int
	// BreakerRejections counts calls the breaker refused outright.
	BreakerRejections int
	// StreamResumes counts mid-stream re-issues after truncation.
	StreamResumes int
	// BackoffTotal is the execution-clock time spent backing off.
	BackoffTotal time.Duration
}

// Wrapper places a resilience policy in front of a domain. It composes
// like netsim.Host: the mediator registers Wrap(host, policy) and the
// policy is transparent to rules and plans.
type Wrapper struct {
	inner   domain.Domain
	policy  Policy
	breaker *Breaker

	// Tallies, bumped at the event site and read by Metrics and the registry.
	calls, attempts, retries, successes, failures obs.Counter
	timeouts, resumes, backoffNS                  obs.Counter
}

// Wrap builds a resilient front for d.
func Wrap(d domain.Domain, p Policy) *Wrapper {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 1
	}
	return &Wrapper{inner: d, policy: p, breaker: NewBreaker(p.Breaker)}
}

// Name is transparent: the wrapper answers for the wrapped domain.
func (w *Wrapper) Name() string { return w.inner.Name() }

// Functions forwards to the wrapped domain.
func (w *Wrapper) Functions() []domain.FuncSpec { return w.inner.Functions() }

// FunctionsErr forwards the fallible listing when the wrapped domain
// provides one (remote sources).
func (w *Wrapper) FunctionsErr() ([]domain.FuncSpec, error) {
	if fl, ok := w.inner.(domain.FunctionLister); ok {
		return fl.FunctionsErr()
	}
	return w.inner.Functions(), nil
}

// Inner returns the wrapped domain.
func (w *Wrapper) Inner() domain.Domain { return w.inner }

// Breaker returns the wrapper's circuit breaker (for metrics assertions).
func (w *Wrapper) Breaker() *Breaker { return w.breaker }

// Metrics returns the wrapper's counters.
func (w *Wrapper) Metrics() Metrics {
	return Metrics{
		Calls:             int(w.calls.Value()),
		Attempts:          int(w.attempts.Value()),
		Retries:           int(w.retries.Value()),
		Successes:         int(w.successes.Value()),
		Failures:          int(w.failures.Value()),
		Timeouts:          int(w.timeouts.Value()),
		BreakerRejections: int(w.breaker.rejections.Value()),
		StreamResumes:     int(w.resumes.Value()),
		BackoffTotal:      time.Duration(w.backoffNS.Value()),
	}
}

// SetObserver attaches the wrapper's tallies to the observer's metrics
// registry under its domain's label: the hermes_breaker_*, hermes_call_*
// and hermes_stream_resumes_total families are declared here and nowhere
// else.
func (w *Wrapper) SetObserver(o *obs.Observer) {
	r, name := o.Registry(), w.inner.Name()
	r.AttachGauge("hermes_breaker_state", "per-domain circuit breaker state: 0 closed, 1 open, 2 half-open", w.breaker.stateValue, "domain", name)
	for to := range w.breaker.transitions {
		r.AttachCounter("hermes_breaker_transitions_total", "circuit breaker state transitions, by domain and target state", w.breaker.transitions[to].Value, "domain", name, "to", BreakerState(to).String())
	}
	r.AttachCounter("hermes_breaker_rejections_total", "calls rejected by an open per-domain circuit breaker", w.breaker.rejections.Value, "domain", name)
	r.AttachCounter("hermes_call_retries_total", "domain call attempts after the first, whether or not the call finally succeeded", w.retries.Value, "domain", name)
	r.AttachCounter("hermes_call_timeouts_total", "domain calls abandoned at the per-call timeout", w.timeouts.Value, "domain", name)
	r.AttachCounter("hermes_stream_resumes_total", "answer streams resumed mid-stream after a transport failure", w.resumes.Value, "domain", name)
}

// attempt runs one call attempt, enforcing the per-call timeout. The
// returned ctx is the one the stream charges (a clock fork when a timeout
// is armed); the caller joins it back after every pull.
func (w *Wrapper) attempt(ctx *domain.Ctx, fn string, args []term.Value) (domain.Stream, *domain.Ctx, error) {
	if w.policy.CallTimeout <= 0 {
		s, err := w.inner.Call(ctx, fn, args)
		return s, ctx, err
	}
	fork := ctx.Fork()
	start := fork.Clock.Now()
	s, err := w.inner.Call(fork, fn, args)
	elapsed := fork.Clock.Now() - start
	if elapsed > w.policy.CallTimeout {
		if s != nil {
			s.Close()
		}
		// The caller stopped waiting at the timeout: charge exactly that.
		ctx.Clock.Sleep(w.policy.CallTimeout)
		w.timeouts.Inc()
		return nil, ctx, fmt.Errorf("%w: %w: %s:%s setup took %s (budget %s)",
			domain.ErrUnavailable, ErrCallTimeout, w.inner.Name(), fn, elapsed, w.policy.CallTimeout)
	}
	ctx.Clock.Join(fork.Clock)
	if err != nil {
		return nil, ctx, err
	}
	return s, fork, nil
}

// Call implements domain.Domain: breaker gate, bounded deadline-aware
// retries with deterministic backoff, and a resumable answer stream.
func (w *Wrapper) Call(ctx *domain.Ctx, fn string, args []term.Value) (domain.Stream, error) {
	call := domain.Call{Domain: w.inner.Name(), Function: fn, Args: args}
	w.calls.Inc()
	s, sctx, err := w.callRaw(ctx, call, fn, args)
	if err != nil {
		return nil, err
	}
	return w.newStream(ctx, sctx, call, s), nil
}

// callRaw runs the breaker/retry loop and returns the raw attempt stream
// (not resume-wrapped) with the ctx it charges. Both Call and mid-stream
// resume go through here; only Call adds the resuming wrapper, so one
// call has exactly one resume budget no matter how often it is re-issued.
func (w *Wrapper) callRaw(ctx *domain.Ctx, call domain.Call, fn string, args []term.Value) (domain.Stream, *domain.Ctx, error) {
	bo := Backoff{Base: w.policy.BackoffBase, Cap: w.policy.BackoffCap, Seed: w.policy.Seed, Key: call.Key()}
	var prev time.Duration
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		if err := w.breaker.Allow(ctx.Clock.Now()); err != nil {
			return nil, nil, fmt.Errorf("%w: domain %s: %w", domain.ErrUnavailable, call.Domain, err)
		}
		w.attempts.Inc()
		if attempt > 1 {
			w.retries.Inc()
		}
		s, sctx, err := w.attempt(ctx, fn, args)
		if err == nil {
			w.breaker.Record(ctx.Clock.Now(), true)
			w.successes.Inc()
			if attempt > 1 {
				ctx.Span.SetTag("retries", strconv.Itoa(attempt-1))
			}
			return s, sctx, nil
		}
		if ctx.Err() != nil {
			// The attempt ended because the caller's context was cancelled
			// or the query deadline passed mid-call: the source never gave a
			// verdict, so neither success nor failure is recorded — a
			// half-open probe abandoned this way must free its slot rather
			// than wedge the breaker.
			w.breaker.Abandon(ctx.Clock.Now())
			w.failures.Inc()
			return nil, nil, err
		}
		if domain.IsOverloaded(err) {
			// Admission shed: mediator state, not a source outcome. Fail
			// fast — retrying into an overloaded server only deepens the
			// overload — and don't charge the breaker either way.
			w.breaker.Abandon(ctx.Clock.Now())
			w.failures.Inc()
			return nil, nil, err
		}
		retryable := domain.IsRetryable(err)
		// A non-retryable error means the source answered (wrong
		// function, type error, ...): not a breaker failure.
		w.breaker.Record(ctx.Clock.Now(), !retryable)
		if !retryable || attempt >= w.policy.MaxAttempts {
			w.failures.Inc()
			return nil, nil, err
		}
		d := bo.Delay(attempt, prev)
		prev = d
		if left, bounded := ctx.Remaining(); bounded && d >= left {
			// Backing off would blow the query deadline: give up now so
			// the layer above can degrade to cache instead.
			w.failures.Inc()
			return nil, nil, fmt.Errorf("retry abandoned (backoff %s exceeds deadline budget %s): %w", d, left, err)
		}
		ctx.Clock.Sleep(d)
		w.backoffNS.Add(int64(d))
	}
}

// newStream wraps a successful attempt's stream with clock joining and
// mid-stream resume.
func (w *Wrapper) newStream(parent, streamCtx *domain.Ctx, call domain.Call, s domain.Stream) domain.Stream {
	return &resilientStream{w: w, parent: parent, cur: s, curCtx: streamCtx, call: call}
}

// resilientStream joins forked attempt clocks back into the caller's and
// resumes after mid-stream retryable failures by re-issuing the call and
// skipping the prefix already delivered. It is the only resume a broken
// stream gets — a remote.Client just reports the broken connection — and
// it assumes the source replays a call's answers in the same order;
// duplicates within the stream keep their multiplicity.
type resilientStream struct {
	w         *Wrapper
	parent    *domain.Ctx
	cur       domain.Stream
	curCtx    *domain.Ctx
	call      domain.Call
	delivered int // answers handed to the consumer so far
	skip      int // answers of the re-issued stream still to drop
	resumes   int
	done      bool
}

func (s *resilientStream) join() {
	if s.curCtx != s.parent {
		s.parent.Clock.Join(s.curCtx.Clock)
	}
}

func (s *resilientStream) Next() (term.Value, bool, error) {
	if s.done {
		return nil, false, nil
	}
	for {
		v, ok, err := s.cur.Next()
		s.join()
		if err == nil {
			if !ok {
				s.done = true
				return nil, false, nil
			}
			if s.skip > 0 {
				s.skip-- // already delivered before the truncation
				continue
			}
			s.delivered++
			return v, true, nil
		}
		if s.parent.Err() != nil || domain.IsOverloaded(err) {
			// Cancelled mid-stream or shed by admission: no source verdict.
			s.w.breaker.Abandon(s.parent.Clock.Now())
			s.done = true
			return nil, false, err
		}
		retryable := domain.IsRetryable(err)
		s.w.breaker.Record(s.parent.Clock.Now(), !retryable)
		if !retryable || s.resumes >= maxResumes {
			s.done = true
			return nil, false, err
		}
		s.resumes++
		s.w.resumes.Inc()
		s.parent.Span.SetTag("resumed", strconv.Itoa(s.resumes))
		s.cur.Close()
		// Re-issue through the full breaker/retry path. callRaw keeps the
		// resume accounting here, at the top level: the fresh stream
		// replays the whole answer set, the first `delivered` answers of it
		// are dropped, and this loop (bounded by maxResumes) handles any
		// further truncation.
		ns, nctx, rerr := s.w.callRaw(s.parent, s.call, s.call.Function, s.call.Args)
		if rerr != nil {
			s.done = true
			return nil, false, rerr
		}
		s.cur, s.curCtx, s.skip = ns, nctx, s.delivered
	}
}

func (s *resilientStream) Close() error {
	if s.done {
		return nil
	}
	s.done = true
	err := s.cur.Close()
	s.join()
	return err
}
