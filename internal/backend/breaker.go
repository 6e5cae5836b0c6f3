package backend

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"aggcache/internal/chunk"
	"aggcache/internal/lattice"
	"aggcache/internal/obs"
)

// BreakerState is the circuit breaker's current disposition.
type BreakerState int32

// Breaker states. The gauge on /metrics exports these ordinals.
const (
	// BreakerClosed: requests flow to the backend normally.
	BreakerClosed BreakerState = iota
	// BreakerHalfOpen: the cooldown elapsed; one probe request is allowed
	// through to test recovery while everything else still fails fast.
	BreakerHalfOpen
	// BreakerOpen: the backend is presumed down; every request fails fast
	// with ErrUnavailable until the cooldown elapses.
	BreakerOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerHalfOpen:
		return "half-open"
	case BreakerOpen:
		return "open"
	}
	return fmt.Sprintf("BreakerState(%d)", int32(s))
}

// BreakerConfig tunes a circuit (Breaker's, or one Peered peer's).
type BreakerConfig struct {
	// FailureThreshold is the run of consecutive outage-class failures
	// (see countsAsOutage) that opens the circuit. Default 5.
	FailureThreshold int
	// Cooldown is how long the circuit stays open before admitting a
	// half-open probe. Default 2s.
	Cooldown time.Duration

	// now is a test hook; nil means time.Now.
	now func() time.Time
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 2 * time.Second
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// Circuit is the closed → open → half-open state machine of every circuit
// breaker in the middle tier: Breaker wraps one around a Backend, and the
// Peered cache tier holds one per remote member. A run of FailureThreshold
// consecutive outage-class failures (countsAsOutage) opens it, and while
// open every call fails fast with ErrUnavailable instead of waiting out dial
// timeouts and retry budgets. After the cooldown a single probe call is let
// through; its success closes the circuit, its failure re-opens it.
// Permanent per-request errors and Busy replies prove the far side is
// answering and reset the run; the caller's own cancellation neither
// advances nor resets it.
type Circuit struct {
	cfg BreakerConfig
	met obs.BreakerMetrics

	mu       sync.Mutex
	state    BreakerState
	failures int
	openedAt time.Time
	probing  bool
}

// NewCircuit returns a closed circuit reporting into met (the zero value
// reports nothing).
func NewCircuit(cfg BreakerConfig, met obs.BreakerMetrics) *Circuit {
	met.State.Set(int64(BreakerClosed))
	return &Circuit{cfg: cfg.withDefaults(), met: met}
}

// errCallPanicked is the outcome Do records for a call that panicked: an
// outage-class failure, so a panicking half-open probe re-opens the circuit
// instead of leaving its probe slot taken forever.
var errCallPanicked = MarkTransient(errors.New("backend: circuit call panicked"))

// Do runs call if the circuit admits it, folds its outcome back in, and
// returns call's error. A call the circuit refuses is not run; Do returns
// ErrUnavailable for it. A call that panics is recorded as one outage-class
// failure and the panic goes on up the stack.
func (c *Circuit) Do(call func() error) error {
	probe, err := c.admit()
	if err != nil {
		c.met.FastFails.Inc()
		return err
	}
	err = errCallPanicked // what record sees if call panics
	defer func() { c.record(err, probe) }()
	err = call()
	return err
}

// current returns the circuit's state.
func (c *Circuit) current() BreakerState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stateLocked()
}

// stateLocked folds the cooldown expiry into the reported state so readers
// (health checks, the engine's degraded-mode accounting) see half-open as
// soon as a probe would be admitted.
func (c *Circuit) stateLocked() BreakerState {
	if c.state == BreakerOpen && c.cfg.now().Sub(c.openedAt) >= c.cfg.Cooldown {
		return BreakerHalfOpen
	}
	return c.state
}

// admit decides one call's fate: proceed (probe reports whether it is the
// half-open probe) or fail fast with ErrUnavailable.
func (c *Circuit) admit() (probe bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch c.stateLocked() {
	case BreakerClosed:
		return false, nil
	case BreakerHalfOpen:
		if c.state == BreakerOpen {
			// Cooldown just elapsed: materialize the half-open transition.
			c.state = BreakerHalfOpen
			c.met.State.Set(int64(BreakerHalfOpen))
		}
		if c.probing {
			return false, fmt.Errorf("backend: circuit half-open, probe in flight: %w", ErrUnavailable)
		}
		c.probing = true
		c.met.Probes.Inc()
		return true, nil
	default: // BreakerOpen
		return false, fmt.Errorf("backend: circuit open: %w", ErrUnavailable)
	}
}

// record folds one admitted call's outcome back into the circuit.
func (c *Circuit) record(err error, probe bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if probe {
		c.probing = false
	}
	if countsAsOutage(err) {
		c.failures++
		if c.state == BreakerHalfOpen || (c.state == BreakerClosed && c.failures >= c.cfg.FailureThreshold) {
			c.state = BreakerOpen
			c.openedAt = c.cfg.now()
			c.probing = false
			c.met.Opens.Inc()
			c.met.State.Set(int64(BreakerOpen))
		} else if c.state == BreakerOpen {
			// A failure while open (a probe raced the cooldown) restarts it.
			c.openedAt = c.cfg.now()
		}
		return
	}
	if errors.Is(err, context.Canceled) {
		// The caller gave up; says nothing about availability either way.
		return
	}
	// Success — or a permanent per-request error, which still proves the
	// far side is reachable and answering.
	c.failures = 0
	if c.state == BreakerHalfOpen {
		c.state = BreakerClosed
		c.met.State.Set(int64(BreakerClosed))
	}
}

// Breaker wraps a Backend in a Circuit: while the backend is presumed down,
// requests fail fast with ErrUnavailable.
type Breaker struct {
	inner Backend
	c     *Circuit
}

// NewBreaker wraps inner with a circuit breaker.
func NewBreaker(inner Backend, cfg BreakerConfig) *Breaker {
	return &Breaker{inner: inner, c: NewCircuit(cfg, obs.BreakerMetrics{})}
}

// SetMetrics attaches live observability metrics. Call it before the first
// request; it is not synchronized with requests in flight.
func (b *Breaker) SetMetrics(m obs.BreakerMetrics) {
	b.c.met = m
	m.State.Set(int64(b.State()))
}

// State returns the breaker's current state.
func (b *Breaker) State() BreakerState { return b.c.current() }

// ComputeChunks implements Backend through the circuit.
func (b *Breaker) ComputeChunks(ctx context.Context, gb lattice.ID, nums []int) (chunks []*chunk.Chunk, stats Stats, err error) {
	err = b.c.Do(func() error {
		chunks, stats, err = b.inner.ComputeChunks(ctx, gb, nums)
		return err
	})
	return chunks, stats, err
}

// EstimateScans implements Backend through the circuit.
func (b *Breaker) EstimateScans(ctx context.Context, gb lattice.ID, nums []int) (ests []int64, err error) {
	err = b.c.Do(func() error {
		ests, err = b.inner.EstimateScans(ctx, gb, nums)
		return err
	})
	return ests, err
}

// Close implements Backend.
func (b *Breaker) Close() error { return b.inner.Close() }
