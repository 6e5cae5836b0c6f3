package backend

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"aggcache/internal/chunk"
	"aggcache/internal/lattice"
	"aggcache/internal/obs"
)

// stubBackend is a scriptable Backend for breaker and fault tests.
type stubBackend struct {
	mu    sync.Mutex
	err   error
	calls int
	gate  chan struct{} // when non-nil, ComputeChunks blocks on it first
}

func (s *stubBackend) setErr(err error) {
	s.mu.Lock()
	s.err = err
	s.mu.Unlock()
}

func (s *stubBackend) callCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

func (s *stubBackend) ComputeChunks(ctx context.Context, gb lattice.ID, nums []int) ([]*chunk.Chunk, Stats, error) {
	s.mu.Lock()
	s.calls++
	err := s.err
	gate := s.gate
	s.mu.Unlock()
	if gate != nil {
		<-gate
	}
	if err != nil {
		return nil, Stats{}, err
	}
	return make([]*chunk.Chunk, len(nums)), Stats{}, nil
}

func (s *stubBackend) EstimateScans(ctx context.Context, gb lattice.ID, nums []int) ([]int64, error) {
	s.mu.Lock()
	s.calls++
	err := s.err
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return make([]int64, len(nums)), nil
}

func (s *stubBackend) Close() error { return nil }

// fakeClock drives the breaker's cooldown without sleeping.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func breakerFixture(threshold int, cooldown time.Duration) (*Breaker, *stubBackend, *fakeClock) {
	stub := &stubBackend{}
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := NewBreaker(stub, BreakerConfig{FailureThreshold: threshold, Cooldown: cooldown, now: clk.now})
	return b, stub, clk
}

func TestBreakerOpensAfterThresholdAndFailsFast(t *testing.T) {
	b, stub, _ := breakerFixture(3, time.Second)
	stub.setErr(MarkTransient(errors.New("connection reset")))
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, _, err := b.ComputeChunks(ctx, 0, []int{0}); err == nil {
			t.Fatalf("call %d: expected error", i)
		}
	}
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after threshold = %v, want open", got)
	}
	before := stub.callCount()
	_, _, err := b.ComputeChunks(ctx, 0, []int{0})
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("open breaker error = %v, want ErrUnavailable", err)
	}
	if stub.callCount() != before {
		t.Fatalf("open breaker still reached the backend")
	}
}

func TestBreakerHalfOpenProbeClosesOnSuccess(t *testing.T) {
	b, stub, clk := breakerFixture(2, time.Second)
	stub.setErr(MarkTransient(errors.New("reset")))
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		b.ComputeChunks(ctx, 0, []int{0})
	}
	if b.State() != BreakerOpen {
		t.Fatalf("breaker did not open")
	}
	clk.advance(time.Second)
	if b.State() != BreakerHalfOpen {
		t.Fatalf("breaker did not go half-open after cooldown")
	}
	stub.setErr(nil) // backend recovered
	if _, _, err := b.ComputeChunks(ctx, 0, []int{0}); err != nil {
		t.Fatalf("probe: %v", err)
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after successful probe = %v, want closed", got)
	}
}

func TestBreakerHalfOpenProbeFailureReopens(t *testing.T) {
	b, stub, clk := breakerFixture(2, time.Second)
	stub.setErr(MarkTransient(errors.New("reset")))
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		b.ComputeChunks(ctx, 0, []int{0})
	}
	clk.advance(time.Second)
	if _, _, err := b.ComputeChunks(ctx, 0, []int{0}); err == nil {
		t.Fatalf("probe against a down backend should fail")
	}
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", got)
	}
	// And the cooldown restarted: still open, not half-open.
	clk.advance(time.Second / 2)
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state mid-cooldown = %v, want open", got)
	}
}

func TestBreakerAdmitsOneProbeAtATime(t *testing.T) {
	b, stub, clk := breakerFixture(1, time.Second)
	stub.setErr(MarkTransient(errors.New("reset")))
	ctx := context.Background()
	b.ComputeChunks(ctx, 0, []int{0})
	clk.advance(time.Second)

	stub.setErr(nil)
	gate := make(chan struct{})
	stub.mu.Lock()
	stub.gate = gate
	stub.mu.Unlock()
	probeDone := make(chan error, 1)
	go func() {
		_, _, err := b.ComputeChunks(ctx, 0, []int{0})
		probeDone <- err
	}()
	// Wait for the probe to reach the backend, then try a second request:
	// it must fail fast, not become a second probe.
	for stub.callCount() == 1 {
		time.Sleep(time.Millisecond)
	}
	if _, _, err := b.ComputeChunks(ctx, 0, []int{0}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("second request during probe = %v, want ErrUnavailable", err)
	}
	close(gate)
	if err := <-probeDone; err != nil {
		t.Fatalf("probe: %v", err)
	}
	if b.State() != BreakerClosed {
		t.Fatalf("breaker did not close after probe")
	}
}

func TestBreakerIgnoresPermanentErrorsAndCancellation(t *testing.T) {
	b, stub, _ := breakerFixture(2, time.Second)
	ctx := context.Background()

	// Permanent per-request errors prove the backend is answering: they
	// reset the failure run and never trip the breaker.
	stub.setErr(&RemoteError{Msg: "bad group-by"})
	for i := 0; i < 10; i++ {
		b.ComputeChunks(ctx, 0, []int{0})
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("permanent errors tripped the breaker: %v", got)
	}

	// One outage failure, then a permanent answer: run resets.
	stub.setErr(MarkTransient(errors.New("reset")))
	b.ComputeChunks(ctx, 0, []int{0})
	stub.setErr(&RemoteError{Msg: "bad group-by"})
	b.ComputeChunks(ctx, 0, []int{0})
	stub.setErr(MarkTransient(errors.New("reset")))
	b.ComputeChunks(ctx, 0, []int{0})
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("non-consecutive failures tripped the breaker: %v", got)
	}

	// Caller cancellation is neutral: neither advances nor resets the run.
	stub.setErr(context.Canceled)
	b.ComputeChunks(ctx, 0, []int{0})
	stub.setErr(MarkTransient(errors.New("reset")))
	b.ComputeChunks(ctx, 0, []int{0})
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("run of 2 outages (with neutral cancel between) = %v, want open", got)
	}
}

// TestCircuitPanickingProbeReleasesTheProbe: a half-open probe whose call
// panics is recorded as a failed probe. The circuit re-opens instead of
// keeping its one probe slot taken, so after the next cooldown a call runs.
func TestCircuitPanickingProbeReleasesTheProbe(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	c := NewCircuit(BreakerConfig{FailureThreshold: 1, Cooldown: time.Second, now: clk.now}, obs.BreakerMetrics{})
	c.Do(func() error { return MarkTransient(errors.New("reset")) })
	if got := c.current(); got != BreakerOpen {
		t.Fatalf("state after the outage = %v, want open", got)
	}
	clk.advance(time.Second)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatalf("the probe's panic did not reach its caller")
			}
		}()
		c.Do(func() error { panic("probe panicked") })
	}()
	if got := c.current(); got != BreakerOpen {
		t.Fatalf("state after the panicking probe = %v, want open", got)
	}
	clk.advance(time.Second)
	ran := false
	if err := c.Do(func() error { ran = true; return nil }); err != nil || !ran {
		t.Fatalf("call after the next cooldown: ran %v, err %v", ran, err)
	}
	if got := c.current(); got != BreakerClosed {
		t.Fatalf("state after a successful probe = %v, want closed", got)
	}
}
