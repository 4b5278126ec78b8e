// Package admission implements the mediator's server-level scheduler
// tier: one token pool per core.System bounding how many evaluation lanes
// — and therefore how many in-flight source calls — exist across every
// concurrent query session, regardless of how many sessions the server is
// holding open.
//
// The per-query tier (domain.Sched) caps parallel branches *within* one
// query; without a shared pool, a server running K concurrent sessions
// multiplies that budget K-fold and floods the very sources the paper's
// cost model assumes it measured at their unloaded latencies. The pool
// restores the invariant the DCSM's [Tf, Ta, Card] vectors depend on:
// total source-facing concurrency never exceeds MaxInflight, no matter
// how many clients connect.
//
// Lanes are leased in two steps:
//
//   - Admit grants a session its one implicit lane (the query's own
//     thread). Under PolicyWait the session queues FIFO until a lane
//     frees; under PolicyShed a saturated pool rejects the session
//     immediately with a fast error wrapping domain.ErrOverloaded and
//     domain.ErrUnavailable, so a fronting server can answer 503 and an
//     upstream CIM can degrade to cache.
//   - Lease.TryLease grants extra lanes for the session's parallel
//     operators, bounded by weighted fair sharing: under contention a
//     session may hold at most max(1, MaxInflight·w/Σw) lanes, so no
//     session can starve its neighbours. TryLease never blocks —
//     a refused lease means the operator runs sequentially, exactly the
//     degradation contract domain.Sched already has.
//
// Time is supplied by the caller as execution-clock readings, so the pool
// is deterministic under the virtual clock: a queued session's clock is
// advanced to the reading at which its lane was actually freed.
package admission

import (
	"fmt"
	"sync"
	"time"

	"hermes/internal/domain"
	"hermes/internal/obs"
)

// Policy selects what happens to a session arriving at a saturated pool.
type Policy int

const (
	// PolicyWait queues the session FIFO until a lane frees (the default).
	PolicyWait Policy = iota
	// PolicyShed rejects the session immediately with ErrOverloaded.
	PolicyShed
)

func (p Policy) String() string {
	switch p {
	case PolicyShed:
		return "shed"
	default:
		return "wait"
	}
}

// ParsePolicy parses a -shed-policy flag value.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "wait":
		return PolicyWait, nil
	case "shed":
		return PolicyShed, nil
	}
	return 0, fmt.Errorf("admission: unknown shed policy %q (want wait or shed)", s)
}

// Config tunes a Pool.
type Config struct {
	// MaxInflight is the pool capacity: the server-wide bound on
	// concurrently held evaluation lanes (≤ 0 is normalized to 1 — a pool
	// exists to bound, an unbounded server simply builds no pool).
	MaxInflight int
	// Policy is the saturation behaviour for new sessions.
	Policy Policy
	// MaxQueue bounds how many sessions may wait under PolicyWait; arrivals
	// beyond it are shed even under PolicyWait. 0 means unbounded.
	MaxQueue int
}

// Stats is a snapshot of the pool's activity, for tests and reports that
// run without an observer.
type Stats struct {
	// Granted counts lanes handed out (implicit admissions and extra
	// leases). Queued counts sessions that had to wait; Shed counts
	// sessions rejected with ErrOverloaded.
	Granted, Queued, Shed int64
	// Occupancy is the number of lanes currently held; Peak its high-water
	// mark over the pool's lifetime.
	Occupancy, Peak int
	// Waiting is the current queue length.
	Waiting int
}

// waiter is one queued session under PolicyWait.
type waiter struct {
	lease   *Lease
	ready   chan struct{} // closed on grant
	grantAt time.Duration // lane availability reading, set before close
	gone    bool          // abandoned by cancellation; skip on grant
}

// Pool is the shared lane pool. All methods are safe for concurrent use.
type Pool struct {
	mu       sync.Mutex
	cfg      Config
	free     int
	sessions map[*Lease]struct{}
	queue    []*waiter
	peak     int // high-water mark of held lanes

	// lastFree is the latest execution-clock reading at which a lane was
	// returned, used to stamp grants to queued sessions so waiting costs
	// virtual time.
	lastFree time.Duration

	// Tallies, bumped at the event site and read by Stats and the registry.
	granted, queued, shed obs.Counter
	waitMS                obs.Histogram
}

// NewPool builds a pool of cfg.MaxInflight lanes.
func NewPool(cfg Config) *Pool {
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 1
	}
	return &Pool{
		cfg:      cfg,
		free:     cfg.MaxInflight,
		sessions: make(map[*Lease]struct{}),
	}
}

// SetObserver attaches the pool's tallies to the observer's metrics
// registry: the hermes_admission_* families are declared here and nowhere
// else. The lane gauge reads the pool at scrape time. Nil-safe.
func (p *Pool) SetObserver(o *obs.Observer) {
	if p == nil {
		return
	}
	r := o.Registry()
	r.AttachCounter("hermes_admission_granted_total", "evaluation lanes granted by the server-wide admission pool", p.granted.Value)
	r.AttachCounter("hermes_admission_queued_total", "query sessions that waited for an admission lane", p.queued.Value)
	r.AttachCounter("hermes_admission_shed_total", "query sessions shed with ErrOverloaded at a saturated pool", p.shed.Value)
	r.AttachGauge("hermes_admission_inflight_lanes", "evaluation lanes currently held across all sessions", func() float64 { return float64(p.Stats().Occupancy) })
	r.AttachHistogram("hermes_admission_wait_ms", "execution-clock time sessions spent queued for admission", &p.waitMS)
}

// Capacity returns the pool's lane bound.
func (p *Pool) Capacity() int { return p.cfg.MaxInflight }

// Stats returns a snapshot of the pool's counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{
		Granted:   p.granted.Value(),
		Queued:    p.queued.Value(),
		Shed:      p.shed.Value(),
		Occupancy: p.cfg.MaxInflight - p.free,
		Peak:      p.peak,
		Waiting:   len(p.queue),
	}
}

// takeLocked moves n lanes from free to held and maintains the peak.
func (p *Pool) takeLocked(n int) {
	p.free -= n
	p.granted.Add(int64(n))
	if occ := p.cfg.MaxInflight - p.free; occ > p.peak {
		p.peak = occ
	}
}

// returnLocked gives n lanes back at clock reading now and hands as many
// as possible straight to queued sessions, FIFO.
func (p *Pool) returnLocked(n int, now time.Duration) {
	if n <= 0 {
		return
	}
	p.free += n
	if p.free > p.cfg.MaxInflight {
		p.free = p.cfg.MaxInflight // defensive: never exceed capacity
	}
	if now > p.lastFree {
		p.lastFree = now
	}
	for p.free > 0 && len(p.queue) > 0 {
		w := p.queue[0]
		p.queue = p.queue[1:]
		if w.gone {
			continue
		}
		p.takeLocked(1)
		w.lease.held = 1
		w.grantAt = p.lastFree
		close(w.ready)
	}
}

// overloadErr builds the shed error: fast, wrapping both ErrOverloaded
// (so the resilience layer fails fast instead of retrying) and
// ErrUnavailable (so a CIM above a shedding source degrades to cache).
func (p *Pool) overloadErr() error {
	return fmt.Errorf("admission: pool saturated (%d lanes held, %d queued): %w (%w)",
		p.cfg.MaxInflight, len(p.queue), domain.ErrOverloaded, domain.ErrUnavailable)
}

// Admit registers a query session of the given weight (≤ 0 is normalized
// to 1) and grants its implicit lane. now supplies execution-clock
// readings; cancel, when non-nil, abandons a queued wait (the session
// gives up its place and Admit returns the cancellation cause, or
// ErrOverloaded when no cause applies).
//
// The returned lease holds one lane. Waiting is accounted in virtual
// time: Lease.GrantedAt is the clock reading at which the lane actually
// freed, and callers advance the session clock to it.
func (p *Pool) Admit(weight int, now func() time.Duration, cancel <-chan struct{}) (*Lease, error) {
	if weight <= 0 {
		weight = 1
	}
	at := now()
	l := &Lease{pool: p, weight: weight, now: now, admittedAt: at, grantAt: at}
	p.mu.Lock()
	if p.free > 0 {
		p.takeLocked(1)
		l.held = 1
		p.sessions[l] = struct{}{}
		p.mu.Unlock()
		return l, nil
	}
	if p.cfg.Policy == PolicyShed || (p.cfg.MaxQueue > 0 && len(p.queue) >= p.cfg.MaxQueue) {
		p.shed.Inc()
		err := p.overloadErr()
		p.mu.Unlock()
		return nil, err
	}
	w := &waiter{lease: l, ready: make(chan struct{})}
	p.queue = append(p.queue, w)
	p.sessions[l] = struct{}{} // waiters count toward fair shares
	p.queued.Inc()
	p.mu.Unlock()

	select {
	case <-w.ready:
		p.mu.Lock()
		if w.grantAt > l.grantAt {
			l.grantAt = w.grantAt
		}
		p.waitMS.Observe(float64(l.grantAt-l.admittedAt) / float64(time.Millisecond))
		p.mu.Unlock()
		return l, nil
	case <-cancel:
		p.mu.Lock()
		select {
		case <-w.ready:
			// The grant raced the cancellation: the lane is ours, give it
			// straight back before abandoning.
			delete(p.sessions, l)
			l.closed = true
			p.returnLocked(l.held, now())
			l.held = 0
		default:
			w.gone = true
			delete(p.sessions, l)
			l.closed = true
		}
		p.mu.Unlock()
		return nil, fmt.Errorf("admission: wait abandoned: %w (%w)", domain.ErrOverloaded, domain.ErrUnavailable)
	}
}

// Lease is one admitted session's claim on the pool: its implicit lane
// plus any extra lanes leased for parallel operators. It implements
// domain.LaneLease, so a domain.Sched built with NewLeasedSched draws
// extra lanes through it.
type Lease struct {
	pool   *Pool
	weight int
	now    func() time.Duration

	held       int // lanes currently held, implicit included
	admittedAt time.Duration
	grantAt    time.Duration
	closed     bool
}

// allowanceLocked computes the session's weighted fair share:
// max(1, capacity·w/Σw) over all live sessions. With a single session the
// share is the full capacity — fairness only bites under contention.
// Called with pool.mu held.
func (l *Lease) allowanceLocked() int {
	p := l.pool
	if len(p.sessions) <= 1 {
		return p.cfg.MaxInflight
	}
	total := 0
	for s := range p.sessions {
		total += s.weight
	}
	share := p.cfg.MaxInflight * l.weight / total
	if share < 1 {
		share = 1
	}
	return share
}

// TryLease grants up to n extra lanes without blocking, implementing
// domain.LaneLease. Grants are bounded by three limits at once: pool
// capacity, the session's weighted fair share, and — when sessions are
// queued waiting for their implicit lane — zero, so free lanes go to
// admitting starved sessions before widening already-running ones.
func (l *Lease) TryLease(n int) int {
	if l == nil || n <= 0 {
		return 0
	}
	p := l.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	if l.closed {
		return 0
	}
	if len(p.queue) > 0 {
		return 0 // waiters have first claim on freed lanes
	}
	take := n
	if take > p.free {
		take = p.free
	}
	if room := l.allowanceLocked() - l.held; take > room {
		take = room
	}
	if take <= 0 {
		return 0
	}
	p.takeLocked(take)
	l.held += take
	return take
}

// Return gives n extra lanes back to the pool, implementing
// domain.LaneLease. Returns are clamped so the session never hands back
// more than it holds beyond its implicit lane.
func (l *Lease) Return(n int) {
	if l == nil || n <= 0 {
		return
	}
	p := l.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	if l.closed {
		return
	}
	if max := l.held - 1; n > max {
		n = max
	}
	if n <= 0 {
		return
	}
	l.held -= n
	p.returnLocked(n, l.now())
}

// Close ends the session: the implicit lane and any extras still held
// return to the pool, and the session stops counting toward fair shares.
// Close is idempotent.
func (l *Lease) Close() {
	if l == nil {
		return
	}
	p := l.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	delete(p.sessions, l)
	give := l.held
	l.held = 0
	p.returnLocked(give, l.now())
}

// Held returns how many lanes the session currently holds (implicit
// included).
func (l *Lease) Held() int {
	if l == nil {
		return 0
	}
	l.pool.mu.Lock()
	defer l.pool.mu.Unlock()
	return l.held
}

// GrantedAt returns the execution-clock reading at which the implicit
// lane was granted; a session that waited advances its clock to it.
func (l *Lease) GrantedAt() time.Duration {
	if l == nil {
		return 0
	}
	l.pool.mu.Lock()
	defer l.pool.mu.Unlock()
	return l.grantAt
}

// Waited returns how long the session queued before admission, in
// execution-clock time.
func (l *Lease) Waited() time.Duration {
	if l == nil {
		return 0
	}
	l.pool.mu.Lock()
	defer l.pool.mu.Unlock()
	return l.grantAt - l.admittedAt
}
