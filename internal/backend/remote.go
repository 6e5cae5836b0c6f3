package backend

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
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

// errRemoteClosed is the permanent error after Close: never retried, never
// counted as an outage (the owner chose to shut down).
var errRemoteClosed = errors.New("backend: remote is closed")

// Remote is a Backend talking to a Server over TCP. It is safe for
// concurrent use: callers multiplex one connection through per-request
// frame ids (wire.Mux), so N in-flight requests pipeline instead of
// queueing on a client-side lock. The client is self-healing — a broken
// connection is torn down and transparently re-dialed, and transient
// failures are retried with capped exponential backoff + jitter up to the
// policy's attempt budget, after which the error wraps ErrUnavailable.
// Close tears the connection down promptly; exchanges in flight fail with
// a permanent (non-retried, non-outage) error rather than waiting out
// their I/O deadlines.
type Remote struct {
	addr   string
	pol    RetryPolicy
	met    obs.RemoteMetrics
	maxPay int

	closed atomic.Bool

	rngMu sync.Mutex
	rng   *rand.Rand

	mu   sync.Mutex // guards conn/mux pointer swaps only, never held across I/O
	conn net.Conn   // eagerly dialed, not yet multiplexed (configuration window)
	mux  *wire.Mux
}

// Dial connects to a backend server with DefaultRetryPolicy.
func Dial(addr string) (*Remote, error) {
	return DialPolicy(addr, DefaultRetryPolicy)
}

// DialPolicy connects to a backend server with an explicit retry policy.
// The initial connection is established eagerly so configuration errors
// fail fast, but it is not multiplexed until the first request — the window
// in which SetMetrics and SetMaxPayload may still reconfigure the client.
func DialPolicy(addr string, pol RetryPolicy) (*Remote, error) {
	pol = pol.withDefaults()
	r := &Remote{addr: addr, pol: pol, rng: rand.New(rand.NewSource(pol.Seed))}
	conn, err := r.rawDial(context.Background())
	if err != nil {
		return nil, fmt.Errorf("backend: dial %s: %w", addr, err)
	}
	r.mu.Lock()
	r.conn = conn
	r.mu.Unlock()
	return r, nil
}

// SetMetrics attaches live observability metrics. Call it before the first
// request; it is not synchronized with requests in flight.
func (r *Remote) SetMetrics(m obs.RemoteMetrics) { r.met = m }

// SetMaxPayload bounds response frame payloads (0 means
// wire.DefaultMaxPayload). Call it before the first request.
func (r *Remote) SetMaxPayload(n int) { r.maxPay = n }

// rawDial opens one TCP connection.
func (r *Remote) rawDial(ctx context.Context) (net.Conn, error) {
	d := net.Dialer{Timeout: r.pol.DialTimeout}
	conn, err := d.DialContext(ctx, "tcp", r.addr)
	if err != nil {
		return nil, MarkTransient(err)
	}
	return conn, nil
}

// newMux wraps a connection with the multiplexer under the client's current
// configuration (metrics, payload bound).
func (r *Remote) newMux(conn net.Conn) *wire.Mux {
	return wire.NewMux(conn, r.maxPay, wire.Metrics{
		BytesIn:   r.met.WireBytesIn,
		BytesOut:  r.met.WireBytesOut,
		FramesIn:  r.met.FramesIn,
		FramesOut: r.met.FramesOut,
		InFlight:  r.met.InFlight,
	})
}

// dial establishes one multiplexed connection.
func (r *Remote) dial(ctx context.Context) (*wire.Mux, error) {
	conn, err := r.rawDial(ctx)
	if err != nil {
		return nil, err
	}
	return r.newMux(conn), nil
}

// getMux returns the live multiplexed connection, re-dialing if the
// previous one was torn down. Concurrent callers share the result.
func (r *Remote) getMux(ctx context.Context) (*wire.Mux, error) {
	r.mu.Lock()
	if r.closed.Load() {
		r.mu.Unlock()
		return nil, errRemoteClosed
	}
	if m := r.mux; m != nil && m.Healthy() {
		r.mu.Unlock()
		return m, nil
	}
	if c := r.conn; c != nil {
		// First request: multiplex the eagerly-dialed connection now that
		// configuration is settled. Not a redial.
		r.conn = nil
		m := r.newMux(c)
		r.mux = m
		r.mu.Unlock()
		return m, nil
	}
	r.mu.Unlock()
	// Dial outside the lock so a slow connect never blocks Close or callers
	// racing toward an already-live connection.
	r.met.Redials.Inc()
	m, err := r.dial(ctx)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	if r.closed.Load() {
		r.mu.Unlock()
		m.Close()
		return nil, errRemoteClosed
	}
	if cur := r.mux; cur != nil && cur.Healthy() {
		// Another caller re-dialed first; share theirs.
		r.mu.Unlock()
		m.Close()
		return cur, nil
	}
	old := r.mux
	r.mux = m
	r.mu.Unlock()
	if old != nil {
		old.Close()
	}
	return m, nil
}

// dropMux discards a connection whose stream failed, if it is still the
// current one.
func (r *Remote) dropMux(m *wire.Mux) {
	r.mu.Lock()
	if r.mux == m {
		r.mux = nil
	}
	r.mu.Unlock()
	m.Close()
}

// attempt performs one pipelined exchange. Wire-level failures are marked
// transient (the PR-3 taxonomy: a retry over a fresh connection may cure
// them) and the connection is dropped; in-band error frames become
// RemoteError, transient or permanent per the frame's flag; Close and the
// caller's context produce permanent errors untouched.
func (r *Remote) attempt(ctx context.Context, typ uint8, payload []byte) (*wire.Frame, error) {
	m, err := r.getMux(ctx)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(r.pol.IOTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	fr, err := m.RoundTrip(ctx, typ, 0, payload, deadline)
	if err != nil {
		// The caller's context expiring dominates any wire classification:
		// the exchange deadline that fired may have been the context's own.
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		if errors.Is(err, wire.ErrClosed) {
			return nil, errRemoteClosed
		}
		r.dropMux(m)
		return nil, MarkTransient(fmt.Errorf("backend: exchange: %w", err))
	}
	if fr.Type == wire.FrameBusy {
		// The server shed this request before doing any work on it.
		// Transient (a retry may get through) but never an outage, and the
		// retry loop honors the frame's retry-after hint.
		r.met.Busy.Inc()
		return nil, wire.DecodeBusy(fr.Payload)
	}
	if fr.Type == frameError {
		rerr := &RemoteError{Msg: decodeErrorFrame(fr.Payload)}
		if fr.Flags&wire.FlagTransient == 0 {
			return nil, rerr // deterministic per-request failure
		}
		return nil, MarkTransient(rerr)
	}
	return &fr, nil
}

// roundTrip sends one request, retrying transient failures per the policy.
func (r *Remote) roundTrip(ctx context.Context, typ uint8, payload []byte) (*wire.Frame, error) {
	r.met.Requests.Inc()
	var lastErr error
	for try := 0; try < r.pol.MaxAttempts; try++ {
		if r.closed.Load() {
			return nil, errRemoteClosed
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
		fr, err := r.attempt(ctx, typ, payload)
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
	return nil, fmt.Errorf("backend: %s unreachable after %d attempts (%v): %w",
		r.addr, r.pol.MaxAttempts, lastErr, ErrUnavailable)
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
func (r *Remote) Close() error {
	if r.closed.Swap(true) {
		return nil
	}
	r.mu.Lock()
	m := r.mux
	c := r.conn
	r.mux = nil
	r.conn = nil
	r.mu.Unlock()
	if m != nil {
		m.Close()
	}
	if c != nil {
		c.Close()
	}
	return nil
}
