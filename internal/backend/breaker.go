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

// BreakerConfig tunes the circuit breaker.
type BreakerConfig struct {
	// FailureThreshold is the run of consecutive outage-class failures
	// (see countsAsOutage) that opens the breaker. Default 5.
	FailureThreshold int
	// Cooldown is how long the breaker stays open before admitting a
	// half-open probe. Default 2s.
	Cooldown time.Duration
	// SuccessThreshold is the run of successful probes that closes a
	// half-open breaker. Default 1.
	SuccessThreshold int

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
	if c.SuccessThreshold <= 0 {
		c.SuccessThreshold = 1
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// Breaker wraps a Backend with a circuit breaker: a run of outage-class
// failures opens it, and while open every request fails fast with
// ErrUnavailable instead of waiting out dial timeouts and retry budgets.
// After the cooldown a single probe is let through; its success closes the
// breaker, its failure re-opens it. Permanent per-request errors (the
// engine answered, the request was bad) and caller cancellation never move
// the breaker — only availability failures do.
type Breaker struct {
	inner Backend
	cfg   BreakerConfig
	met   obs.BreakerMetrics

	mu        sync.Mutex
	state     BreakerState
	failures  int
	successes int
	openedAt  time.Time
	probing   bool
}

// NewBreaker wraps inner with a circuit breaker.
func NewBreaker(inner Backend, cfg BreakerConfig) *Breaker {
	return &Breaker{inner: inner, cfg: cfg.withDefaults()}
}

// SetMetrics attaches live observability metrics. Call it before the first
// request; it is not synchronized with requests in flight.
func (b *Breaker) SetMetrics(m obs.BreakerMetrics) {
	b.met = m
	b.met.State.Set(int64(b.State()))
}

// State returns the breaker's current state.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stateLocked()
}

// stateLocked folds the cooldown expiry into the reported state so readers
// (health checks, the engine's degraded-mode accounting) see half-open as
// soon as a probe would be admitted.
func (b *Breaker) stateLocked() BreakerState {
	if b.state == BreakerOpen && b.cfg.now().Sub(b.openedAt) >= b.cfg.Cooldown {
		return BreakerHalfOpen
	}
	return b.state
}

// admit decides one request's fate: proceed (probe reports whether it is a
// half-open probe) or fail fast with ErrUnavailable.
func (b *Breaker) admit() (probe bool, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.stateLocked() {
	case BreakerClosed:
		return false, nil
	case BreakerHalfOpen:
		if b.state == BreakerOpen {
			// Cooldown just elapsed: materialize the half-open transition.
			b.state = BreakerHalfOpen
			b.met.State.Set(int64(BreakerHalfOpen))
		}
		if b.probing {
			return false, fmt.Errorf("backend: circuit half-open, probe in flight: %w", ErrUnavailable)
		}
		b.probing = true
		b.met.Probes.Inc()
		return true, nil
	default: // BreakerOpen
		return false, fmt.Errorf("backend: circuit open: %w", ErrUnavailable)
	}
}

// record folds one request's outcome back into the breaker.
func (b *Breaker) record(err error, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if probe {
		b.probing = false
	}
	if countsAsOutage(err) {
		b.failures++
		b.successes = 0
		if b.state == BreakerHalfOpen || (b.state == BreakerClosed && b.failures >= b.cfg.FailureThreshold) {
			b.openLocked()
		} else if b.state == BreakerOpen {
			// A failure while open (a probe raced the cooldown) restarts it.
			b.openedAt = b.cfg.now()
		}
		return
	}
	if err != nil && errors.Is(err, context.Canceled) {
		// The caller gave up; says nothing about availability either way.
		return
	}
	// Success — or a permanent per-request error, which still proves the
	// backend is reachable and answering.
	b.failures = 0
	if b.state == BreakerHalfOpen {
		b.successes++
		if b.successes >= b.cfg.SuccessThreshold {
			b.state = BreakerClosed
			b.successes = 0
			b.met.State.Set(int64(BreakerClosed))
		}
	}
}

// openLocked trips the breaker. The caller must hold b.mu.
func (b *Breaker) openLocked() {
	b.state = BreakerOpen
	b.openedAt = b.cfg.now()
	b.probing = false
	b.successes = 0
	b.met.Opens.Inc()
	b.met.State.Set(int64(BreakerOpen))
}

// ComputeChunks implements Backend through the breaker.
func (b *Breaker) ComputeChunks(ctx context.Context, gb lattice.ID, nums []int) ([]*chunk.Chunk, Stats, error) {
	probe, err := b.admit()
	if err != nil {
		b.met.FastFails.Inc()
		return nil, Stats{}, err
	}
	chunks, stats, err := b.inner.ComputeChunks(ctx, gb, nums)
	b.record(err, probe)
	return chunks, stats, err
}

// EstimateScans implements Backend through the breaker.
func (b *Breaker) EstimateScans(ctx context.Context, gb lattice.ID, nums []int) ([]int64, error) {
	probe, err := b.admit()
	if err != nil {
		b.met.FastFails.Inc()
		return nil, err
	}
	ests, err := b.inner.EstimateScans(ctx, gb, nums)
	b.record(err, probe)
	return ests, err
}

// Close implements Backend.
func (b *Breaker) Close() error { return b.inner.Close() }
