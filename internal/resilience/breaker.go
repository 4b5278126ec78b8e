package resilience

import (
	"errors"
	"sync"
	"time"

	"hermes/internal/obs"
)

// ErrBreakerOpen reports that the circuit breaker rejected a call without
// attempting it. Callers see it wrapped in domain.ErrUnavailable, so the
// CIM's cache fallback treats an open breaker exactly like a down source.
var ErrBreakerOpen = errors.New("circuit breaker open")

// BreakerState is the circuit breaker's state machine position.
type BreakerState int

// Breaker states: closed (calls flow), open (calls rejected), half-open
// (exactly one probe call allowed through).
const (
	StateClosed BreakerState = iota
	StateOpen
	StateHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case StateClosed:
		return "closed"
	case StateOpen:
		return "open"
	case StateHalfOpen:
		return "half-open"
	}
	return "?"
}

// BreakerConfig tunes the circuit breaker.
type BreakerConfig struct {
	// FailureThreshold is how many consecutive retryable failures trip
	// the breaker (0 disables the breaker entirely).
	FailureThreshold int
	// OpenTimeout is how long the breaker stays open before allowing a
	// half-open probe, measured on the execution clock. The first probe
	// that succeeds closes the breaker again.
	OpenTimeout time.Duration
}

// BreakerMetrics counts breaker activity: a view of the breaker's
// tallies, which the hermes_breaker_* families also read.
type BreakerMetrics struct {
	// Trips counts closed→open (and half-open→open) transitions.
	Trips int
	// Probes counts half-open probe calls allowed through.
	Probes int
	// ProbeFailures counts probes that failed and re-opened the breaker.
	ProbeFailures int
	// Rejections counts calls rejected while open (or while another
	// half-open probe was in flight).
	Rejections int
	// AbandonedProbes counts half-open probes that ended without a source
	// verdict (context cancellation, query deadline, admission shed) and
	// freed the probe slot without closing or re-opening the breaker.
	AbandonedProbes int
}

// Breaker is a per-domain circuit breaker. Time is supplied by the caller
// (execution-clock readings), keeping the state machine deterministic
// under the virtual clock. The half-open state admits exactly one probe
// at a time: concurrent calls are rejected until the probe reports.
type Breaker struct {
	mu       sync.Mutex
	cfg      BreakerConfig
	state    BreakerState
	failures int // consecutive retryable failures while closed
	openedAt time.Duration
	probing  bool // a half-open probe is in flight

	// Tallies, bumped at the event site and read by Metrics; the wrapper
	// attaches transitions (by target state) and rejections to the
	// registry. A trip is a transition to open.
	transitions                                 [3]obs.Counter
	rejections, probes, probeFailures, abandons obs.Counter
}

// NewBreaker builds a breaker in the closed state.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg}
}

// State returns the current state, advancing open→half-open if the open
// timeout has elapsed at clock reading now.
func (b *Breaker) State(now time.Duration) BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.advanceLocked(now)
	return b.state
}

// Metrics returns the activity counters, one atomic read per field.
func (b *Breaker) Metrics() BreakerMetrics {
	return BreakerMetrics{
		Trips:           int(b.transitions[StateOpen].Value()),
		Probes:          int(b.probes.Value()),
		ProbeFailures:   int(b.probeFailures.Value()),
		Rejections:      int(b.rejections.Value()),
		AbandonedProbes: int(b.abandons.Value()),
	}
}

// stateValue reads the state as the hermes_breaker_state gauge shows it —
// 0 closed, 1 open, 2 half-open — without advancing the open timeout.
func (b *Breaker) stateValue() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return float64(b.state)
}

func (b *Breaker) transitionLocked(to BreakerState) {
	if b.state == to {
		return
	}
	b.state = to
	b.transitions[to].Inc()
}

// advanceLocked moves open→half-open once the open timeout elapses.
func (b *Breaker) advanceLocked(now time.Duration) {
	if b.state == StateOpen && now >= b.openedAt+b.cfg.OpenTimeout {
		b.transitionLocked(StateHalfOpen)
		b.probing = false
	}
}

// Allow asks whether a call may proceed at clock reading now. It returns
// ErrBreakerOpen when the breaker rejects the call. In the half-open
// state the first caller is admitted as the probe; concurrent callers are
// rejected until the probe's Record.
func (b *Breaker) Allow(now time.Duration) error {
	if b.cfg.FailureThreshold <= 0 {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.advanceLocked(now)
	switch b.state {
	case StateClosed:
		return nil
	case StateHalfOpen:
		if b.probing {
			b.rejections.Inc()
			return ErrBreakerOpen
		}
		b.probing = true
		b.probes.Inc()
		return nil
	default: // StateOpen
		b.rejections.Inc()
		return ErrBreakerOpen
	}
}

// Record reports the outcome of a call previously admitted by Allow.
// ok=true is a success; ok=false a retryable failure (non-retryable
// errors should be recorded as successes: the source answered).
func (b *Breaker) Record(now time.Duration, ok bool) {
	if b.cfg.FailureThreshold <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.advanceLocked(now)
	switch b.state {
	case StateClosed:
		if ok {
			b.failures = 0
			return
		}
		b.failures++
		if b.failures >= b.cfg.FailureThreshold {
			b.transitionLocked(StateOpen)
			b.openedAt = now
			b.failures = 0
		}
	case StateHalfOpen:
		if !b.probing {
			return // the probe was abandoned; this verdict is stale
		}
		b.probing = false
		if ok {
			b.transitionLocked(StateClosed)
			b.failures = 0
			return
		}
		b.transitionLocked(StateOpen)
		b.openedAt = now
		b.probeFailures.Inc()
	default: // StateOpen: a straggler from before the trip; ignore.
	}
}

// Abandon reports that a call admitted by Allow ended without a source
// verdict: cancelled by its context, cut off by the query deadline, or
// shed by admission control before any source was contacted. Nothing is
// recorded as success or failure — the source never answered — but in the
// half-open state the probe slot is freed so the next caller may probe.
// Without Abandon, a probe abandoned by cancellation would leave
// probing=true forever, wedging the breaker half-open and rejecting every
// subsequent call.
func (b *Breaker) Abandon(now time.Duration) {
	if b.cfg.FailureThreshold <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.advanceLocked(now)
	if b.state == StateHalfOpen && b.probing {
		b.probing = false
		b.abandons.Inc()
	}
}
