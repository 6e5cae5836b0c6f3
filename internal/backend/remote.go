package backend

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"aggcache/internal/chunk"
	"aggcache/internal/lattice"
	"aggcache/internal/obs"
	"aggcache/internal/wire"
)

// RetryPolicy tunes the self-healing remote client: how many times one
// request is tried, how the backoff between tries grows, and the wire
// deadlines each try runs under.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per request, including the
	// first. At least 1.
	MaxAttempts int
	// BaseBackoff is the pause before the first retry; each further retry
	// doubles it (with ±50% deterministic jitter) up to MaxBackoff.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth.
	MaxBackoff time.Duration
	// DialTimeout bounds each (re)connect attempt.
	DialTimeout time.Duration
	// IOTimeout bounds one request/response exchange on the wire when the
	// caller's context carries no earlier deadline.
	IOTimeout time.Duration
	// Seed drives the jitter; runs with the same seed back off identically.
	Seed int64
}

// DefaultRetryPolicy is the client's out-of-the-box resilience policy.
var DefaultRetryPolicy = RetryPolicy{
	MaxAttempts: 4,
	BaseBackoff: 10 * time.Millisecond,
	MaxBackoff:  640 * time.Millisecond,
	DialTimeout: 2 * time.Second,
	IOTimeout:   30 * time.Second,
	Seed:        1,
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	d := DefaultRetryPolicy
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = d.MaxAttempts
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = d.BaseBackoff
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = d.MaxBackoff
	}
	if p.DialTimeout <= 0 {
		p.DialTimeout = d.DialTimeout
	}
	if p.IOTimeout <= 0 {
		p.IOTimeout = d.IOTimeout
	}
	return p
}

// backoff returns the pause before retry number retry (1-based), with ±50%
// jitter so a burst of failing clients does not hammer a recovering server
// in lockstep.
func (r *Remote) backoff(retry int) time.Duration {
	d := r.pol.BaseBackoff << (retry - 1)
	if d > r.pol.MaxBackoff || d <= 0 {
		d = r.pol.MaxBackoff
	}
	r.rngMu.Lock()
	f := 0.5 + r.rng.Float64()
	r.rngMu.Unlock()
	return time.Duration(float64(d) * f)
}

// Remote is a Backend talking to a Server over TCP. It is safe for
// concurrent use: callers multiplex one connection through per-request
// frame ids (an Exchange), so N in-flight requests pipeline instead of
// queueing on a client-side lock. The client is self-healing — a broken
// connection is torn down and transparently re-dialed, and transient
// failures are retried with capped exponential backoff + jitter up to the
// policy's attempt budget, after which the error wraps ErrUnavailable.
// Close tears the connection down promptly; exchanges in flight fail with
// a permanent (non-retried, non-outage) error rather than waiting out
// their I/O deadlines.
type Remote struct {
	x   *Exchange
	pol RetryPolicy
	met obs.RemoteMetrics

	rngMu sync.Mutex
	rng   *rand.Rand
}

// Dial connects to a backend server with DefaultRetryPolicy, the default
// reply payload bound and no metrics.
func Dial(addr string) (*Remote, error) {
	return DialPolicy(addr, DefaultRetryPolicy, 0, obs.RemoteMetrics{})
}

// DialPolicy connects to a backend server with an explicit retry policy.
// maxPayload bounds reply frames (0 means wire.DefaultMaxPayload) and met
// receives the client's metrics (the zero value counts nothing). The
// connection is dialed and multiplexed at once, so configuration errors
// fail fast.
func DialPolicy(addr string, pol RetryPolicy, maxPayload int, met obs.RemoteMetrics) (*Remote, error) {
	pol = pol.withDefaults()
	r := &Remote{
		x:   NewExchange(addr, frameError, pol.DialTimeout, pol.IOTimeout, maxPayload, met),
		pol: pol,
		met: met,
		rng: rand.New(rand.NewSource(pol.Seed)),
	}
	if _, err := r.x.connect(context.Background()); err != nil {
		return nil, fmt.Errorf("backend: dial %s: %w", addr, err)
	}
	return r, nil
}

// roundTrip sends one request, retrying transient failures per the policy.
func (r *Remote) roundTrip(ctx context.Context, typ uint8, payload []byte) (*wire.Frame, error) {
	r.met.Requests.Inc()
	var lastErr error
	for try := 0; try < r.pol.MaxAttempts; try++ {
		if r.x.closed.Load() {
			return nil, errClosed
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if try > 0 {
			r.met.Retries.Inc()
			pause := r.backoff(try)
			// A shedding server's retry-after hint is a floor on the pause:
			// retrying sooner than the server asked just earns another Busy.
			if be, ok := wire.AsBusy(lastErr); ok && be.RetryAfter > pause {
				pause = be.RetryAfter
			}
			t := time.NewTimer(pause)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return nil, ctx.Err()
			}
		}
		fr, err := r.x.RoundTrip(ctx, typ, payload)
		if err == nil {
			return fr, nil
		}
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		if !IsTransient(err) {
			return nil, err
		}
		lastErr = err
	}
	r.met.Unavailable.Inc()
	return nil, fmt.Errorf("backend: %s unreachable after %d attempts: %w: %w",
		r.x.addr, r.pol.MaxAttempts, ErrUnavailable, lastErr)
}

// ComputeChunks implements Backend over the wire: one frame out, one frame
// of chunk slabs back, however many chunks the batch names.
func (r *Remote) ComputeChunks(ctx context.Context, gb lattice.ID, nums []int) ([]*chunk.Chunk, Stats, error) {
	fr, err := r.roundTrip(ctx, frameCompute, encodeRequest(nil, gb, nums))
	if err != nil {
		return nil, Stats{}, err
	}
	chunks, stats, err := decodeChunksResponse(fr.Payload)
	if err != nil {
		return nil, Stats{}, err
	}
	// The caller files reply i under requested chunk i, so a reply that is
	// not exactly the request — a confused or stale server — must never reach
	// it. The server did answer, so this is a permanent error: not retried,
	// not an outage.
	if len(chunks) != len(nums) {
		return nil, Stats{}, fmt.Errorf("backend: reply holds %d chunks, %d were requested", len(chunks), len(nums))
	}
	for i, c := range chunks {
		if c.GB != gb || int(c.Num) != nums[i] {
			return nil, Stats{}, fmt.Errorf("backend: reply slab %d is chunk %d of group-by %d, requested chunk %d of group-by %d",
				i, c.Num, c.GB, nums[i], gb)
		}
	}
	return chunks, stats, nil
}

// EstimateScans implements Backend over the wire: per-chunk scan estimates
// for the whole batch in one round trip.
func (r *Remote) EstimateScans(ctx context.Context, gb lattice.ID, nums []int) ([]int64, error) {
	fr, err := r.roundTrip(ctx, frameEstimate, encodeRequest(nil, gb, nums))
	if err != nil {
		return nil, err
	}
	return decodeEstimatesResponse(fr.Payload)
}

// Close implements Backend. The connection is torn down immediately:
// exchanges in flight fail promptly with a permanent error (never retried,
// never counted as an outage), and retry loops observe the flag on their
// next attempt and stop.
func (r *Remote) Close() error { return r.x.Close() }
