// Package netsim simulates the wide-area network between the mediator and
// its source domains. The paper's experiments ran against live Internet
// sites (Maryland, Cornell, Bucknell = "USA"; and Italy); this package
// substitutes deterministic site profiles that charge connection setup,
// round trips, bandwidth-limited transfer and load-dependent slowdown
// against the execution clock.
//
// A Host wraps any domain.Domain: the wrapped domain still charges its own
// compute time; the Host adds the network's share. All randomness is seeded
// per call key, so repeated runs (and forked what-if executions) observe
// identical timings.
package netsim

import (
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"time"

	"hermes/internal/domain"
	"hermes/internal/term"
)

// Profile describes the network path to a site. Connections are
// persistent: the first call of a session pays Connect + RTT, later calls
// only RTT (a call issued while the connection is still coming up waits
// for the rest of it) — without this, the paper's multi-call queries (query2
// issues ~25 source calls and still finishes in seconds) would be
// impossible at the reported timings.
type Profile struct {
	// Name identifies the site ("usa-east", "italy", ...).
	Name string
	// Connect is the one-time connection setup overhead of a session.
	Connect time.Duration
	// RTT is the round-trip latency charged per call.
	RTT time.Duration
	// PerTuple is the fixed per-answer handling overhead (marshalling,
	// packetization).
	PerTuple time.Duration
	// BytesPerSec is the transfer bandwidth; answer payloads charge
	// size/BytesPerSec.
	BytesPerSec float64
	// JitterFrac scales deterministic pseudo-random jitter: each call's
	// latency is multiplied by a factor in [1, 1+JitterFrac].
	JitterFrac float64
}

// Built-in site profiles, calibrated so that the experiment harness
// reproduces the magnitude regime of the paper's Figure 5 (USA queries
// ≈ 1–3 s, Italy queries ≈ 4–50 s, local/cache ≈ 0.3–1 s).
var (
	// Local is an in-process source: negligible network cost.
	Local = Profile{Name: "local", Connect: 200 * time.Microsecond, RTT: 0,
		PerTuple: 50 * time.Microsecond, BytesPerSec: 1 << 30}
	// USAEast models the paper's Maryland/Cornell/Bucknell sites.
	USAEast = Profile{Name: "usa-east", Connect: 1200 * time.Millisecond, RTT: 70 * time.Millisecond,
		PerTuple: 11 * time.Millisecond, BytesPerSec: 24 * 1024, JitterFrac: 0.35}
	// Italy models the paper's transatlantic site, including its large
	// observed variance (3.9 s to 49 s for comparable queries).
	Italy = Profile{Name: "italy", Connect: 4200 * time.Millisecond, RTT: 450 * time.Millisecond,
		PerTuple: 60 * time.Millisecond, BytesPerSec: 3 * 1024, JitterFrac: 5.5}
)

// Option configures a Host.
type Option func(*Host)

// WithSeed sets the jitter seed (default 1).
func WithSeed(seed uint64) Option {
	return func(h *Host) { h.seed = seed }
}

// WithLoad installs a time-varying load multiplier: all latencies at clock
// reading t are scaled by load(t) (≥ 1 under load, 1 = nominal). Used by
// the recency-weighting ablation to model drifting network conditions.
func WithLoad(load func(t time.Duration) float64) Option {
	return func(h *Host) { h.load = load }
}

// Host is a domain reachable over a simulated network path.
type Host struct {
	inner   domain.Domain
	profile Profile
	seed    uint64
	load    func(time.Duration) float64
	// up is the execution-clock reading at which the persistent connection
	// is up, once a call has opened it; warm says one has. A call charges
	// by where its own clock stands against up, so parallel branches pay
	// by virtual time, not by which reached the host first. mu guards
	// both: parallel query branches call the same host concurrently.
	mu   sync.Mutex
	up   time.Duration
	warm bool
}

// ResetConnection drops the persistent connection: the next call pays the
// full setup cost again.
func (h *Host) ResetConnection() {
	h.mu.Lock()
	h.warm = false
	h.mu.Unlock()
}

// connectWait returns how long a call issued at now waits for the
// persistent connection. A call that finds none opens it, up connect
// later; so does one whose own opening would finish sooner, so the time
// the connection is up does not depend on which branch arrived first.
func (h *Host) connectWait(now, connect time.Duration) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.warm || now+connect < h.up {
		h.warm, h.up = true, now+connect
	}
	return max(h.up-now, 0)
}

// Wrap places d behind the network described by p.
func Wrap(d domain.Domain, p Profile, opts ...Option) *Host {
	h := &Host{inner: d, profile: p, seed: 1}
	for _, o := range opts {
		o(h)
	}
	return h
}

// Name returns the wrapped domain's name: the network is transparent to
// the mediator program.
func (h *Host) Name() string { return h.inner.Name() }

// Profile returns the site profile.
func (h *Host) Profile() Profile { return h.profile }

// Functions forwards to the wrapped domain.
func (h *Host) Functions() []domain.FuncSpec { return h.inner.Functions() }

// Inner returns the wrapped domain.
func (h *Host) Inner() domain.Domain { return h.inner }

// jitterFactor returns the deterministic latency multiplier for a call:
// 1 + JitterFrac·u where u ∈ [0,1) is a hash of (seed, call key).
func (h *Host) jitterFactor(key string) float64 {
	if h.profile.JitterFrac == 0 {
		return 1
	}
	hash := fnv.New64a()
	fmt.Fprintf(hash, "%d|", h.seed)
	hash.Write([]byte(key))
	u := float64(hash.Sum64()%1_000_000) / 1_000_000
	return 1 + h.profile.JitterFrac*u
}

func (h *Host) loadFactor(t time.Duration) float64 {
	if h.load == nil {
		return 1
	}
	f := h.load(t)
	if f < 1 || math.IsNaN(f) {
		return 1
	}
	return f
}

// Call charges connection setup and RTT, invokes the wrapped domain, and
// returns a stream that charges per-answer transfer.
func (h *Host) Call(ctx *domain.Ctx, fn string, args []term.Value) (domain.Stream, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	call := domain.Call{Domain: h.inner.Name(), Function: fn, Args: args}
	now := ctx.Clock.Now()
	jitter := h.jitterFactor(call.Key())
	load := h.loadFactor(now)
	scale := func(d time.Duration) time.Duration {
		return time.Duration(float64(d) * jitter * load)
	}
	ctx.Clock.Sleep(h.connectWait(now, scale(h.profile.Connect)) + scale(h.profile.RTT))
	inner, err := h.inner.Call(ctx, fn, args)
	if err != nil {
		return nil, err
	}
	perTuple := func(v term.Value) time.Duration {
		d := h.profile.PerTuple
		if h.profile.BytesPerSec > 0 {
			d += time.Duration(float64(term.SizeBytes(v)) / h.profile.BytesPerSec * float64(time.Second))
		}
		return scale(d)
	}
	return &timedStream{inner: inner, ctx: ctx, perTuple: perTuple}, nil
}

// timedStream charges per-answer network cost on top of the inner stream.
type timedStream struct {
	inner    domain.Stream
	ctx      *domain.Ctx
	perTuple func(term.Value) time.Duration
}

func (s *timedStream) Next() (term.Value, bool, error) {
	if err := s.ctx.Err(); err != nil {
		return nil, false, err
	}
	v, ok, err := s.inner.Next()
	if err != nil || !ok {
		return v, ok, err
	}
	s.ctx.Clock.Sleep(s.perTuple(v))
	return v, true, nil
}

func (s *timedStream) Close() error { return s.inner.Close() }
