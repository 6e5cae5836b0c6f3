package backend

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"aggcache/internal/chunk"
	"aggcache/internal/lattice"
)

// FaultPlan configures deterministic fault injection: each request draws
// from a seeded stream and, in fixed order, may be failed, "disconnected",
// hung, or slowed before reaching the wrapped backend. Probabilities are in
// [0,1]. The draw sequence is fully determined by Seed; under concurrency
// the assignment of draws to requests follows scheduling order, so chaos
// tests get a reproducible fault mix even when the interleaving varies.
type FaultPlan struct {
	Seed int64
	// ErrorRate injects a generic transient backend error.
	ErrorRate float64
	// DisconnectRate injects a dropped-connection-shaped transient error —
	// what a middle tier sees when the backend's TCP stream dies mid-request.
	DisconnectRate float64
	// HangRate stalls the request for HangFor (or until the context
	// expires, whichever is first); if the context outlives the hang the
	// request then fails transiently, modeling a hung-then-reset stream.
	HangRate float64
	HangFor  time.Duration
	// SpikeRate delays the request by SpikeFor and then lets it proceed —
	// a latency spike, not a failure.
	SpikeRate float64
	SpikeFor  time.Duration
}

// FaultCounts reports how many faults a Faulty has injected, by kind.
type FaultCounts struct {
	Errors, Disconnects, Hangs, Spikes, Outages int64
}

// Faulty wraps a Backend with seeded fault injection for chaos tests and
// the chaos bench experiment. Independently of the plan's random faults,
// SetDown(true) simulates a hard outage: every request fails immediately
// with a transient connection-refused-shaped error until SetDown(false).
type Faulty struct {
	inner Backend
	plan  FaultPlan
	down  atomic.Bool

	mu  sync.Mutex
	rng *rand.Rand

	errors, disconnects, hangs, spikes, outages atomic.Int64
}

// NewFaulty wraps inner with the given fault plan.
func NewFaulty(inner Backend, plan FaultPlan) *Faulty {
	return &Faulty{inner: inner, plan: plan, rng: rand.New(rand.NewSource(plan.Seed))}
}

// SetDown toggles the simulated hard outage.
func (f *Faulty) SetDown(down bool) { f.down.Store(down) }

// Counts returns the number of injected faults so far, by kind.
func (f *Faulty) Counts() FaultCounts {
	return FaultCounts{
		Errors:      f.errors.Load(),
		Disconnects: f.disconnects.Load(),
		Hangs:       f.hangs.Load(),
		Spikes:      f.spikes.Load(),
		Outages:     f.outages.Load(),
	}
}

// draw takes the next four variates from the seeded stream under the lock,
// keeping the stream itself deterministic.
func (f *Faulty) draw() (errV, discV, hangV, spikeV float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rng.Float64(), f.rng.Float64(), f.rng.Float64(), f.rng.Float64()
}

// inject applies the plan to one request; a nil return lets the request
// through to the wrapped backend.
func (f *Faulty) inject(ctx context.Context) error {
	if f.down.Load() {
		f.outages.Add(1)
		return MarkTransient(fmt.Errorf("faulty: backend down: connection refused"))
	}
	errV, discV, hangV, spikeV := f.draw()
	if errV < f.plan.ErrorRate {
		f.errors.Add(1)
		return MarkTransient(fmt.Errorf("faulty: injected backend error"))
	}
	if discV < f.plan.DisconnectRate {
		f.disconnects.Add(1)
		return MarkTransient(fmt.Errorf("faulty: injected disconnect: connection reset by peer"))
	}
	if hangV < f.plan.HangRate {
		f.hangs.Add(1)
		if err := sleepCtx(ctx, f.plan.HangFor); err != nil {
			return err
		}
		return MarkTransient(fmt.Errorf("faulty: stream hung %v then reset", f.plan.HangFor))
	}
	if spikeV < f.plan.SpikeRate {
		f.spikes.Add(1)
		if err := sleepCtx(ctx, f.plan.SpikeFor); err != nil {
			return err
		}
	}
	return nil
}

// sleepCtx waits d or until the context ends, returning ctx.Err() in the
// latter case.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ComputeChunks implements Backend with fault injection.
func (f *Faulty) ComputeChunks(ctx context.Context, gb lattice.ID, nums []int) ([]*chunk.Chunk, Stats, error) {
	if err := f.inject(ctx); err != nil {
		return nil, Stats{}, err
	}
	return f.inner.ComputeChunks(ctx, gb, nums)
}

// EstimateScans implements Backend with fault injection.
func (f *Faulty) EstimateScans(ctx context.Context, gb lattice.ID, nums []int) ([]int64, error) {
	if err := f.inject(ctx); err != nil {
		return nil, err
	}
	return f.inner.EstimateScans(ctx, gb, nums)
}

// Close implements Backend.
func (f *Faulty) Close() error { return f.inner.Close() }
