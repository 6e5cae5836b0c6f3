package backend

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"aggcache/internal/obs"
	"aggcache/internal/wire"
)

// errClosed is the permanent error after Exchange.Close: never retried, never
// counted as an outage (the owner chose to shut down).
var errClosed = errors.New("connection closed by its owner")

// Exchange is the client side of one framed request/reply protocol: a
// multiplexed connection (wire.Mux) shared by concurrent callers, redialed
// after a broken stream, and one error taxonomy for every reply. Each of the
// three protocols has one client, and each is an Exchange plus its payload
// codecs: Remote (the backend protocol, with its retry loop on top),
// mtier.PeerClient (the peer cache protocol, no retries: the Peered circuit
// owns failure policy) and mtier.Client (the query protocol).
//
// RoundTrip classifies failures per errors.go: a wire failure is transient
// and drops the connection for the next call to redial; a wire.FrameBusy
// reply is decoded to *wire.BusyError; a wire.FrameError reply becomes a
// RemoteError, transient when the server set wire.FlagTransient; the
// caller's context error wins over any of these; and after Close every call
// fails with a permanent error without waiting out its I/O deadline.
type Exchange struct {
	addr    string
	dialTmo time.Duration
	ioTmo   time.Duration
	met     obs.RemoteMetrics

	closed atomic.Bool

	mu  sync.Mutex // guards mux swaps only, never held across I/O
	mux *wire.Mux
}

// NewExchange returns an exchange with addr that dials on first use.
// dialTimeout bounds each (re)connect. ioTimeout bounds one exchange whose
// context carries no earlier deadline; an exchange that runs out of it
// tears the connection down under every exchange sharing it. With
// ioTimeout 0 there is no exchange deadline: the caller's context then ends
// only its own exchange and the connection stays up. Reply frames are
// bounded by wire.DefaultMaxPayload. met counts the dials RoundTrip makes
// (redials for an exchange from DialExchange), Busy replies and wire
// traffic; its zero value counts nothing.
func NewExchange(addr string, dialTimeout, ioTimeout time.Duration, met obs.RemoteMetrics) *Exchange {
	return &Exchange{addr: addr, dialTmo: dialTimeout, ioTmo: ioTimeout, met: met}
}

// DialExchange is NewExchange with its first connection dialed at once, so
// a server that is not listening fails the caller now rather than its first
// request.
func DialExchange(addr string, dialTimeout, ioTimeout time.Duration, met obs.RemoteMetrics) (*Exchange, error) {
	x := NewExchange(addr, dialTimeout, ioTimeout, met)
	if _, err := x.connect(context.Background()); err != nil {
		return nil, err
	}
	return x, nil
}

// connect dials one multiplexed connection and makes it current, unless the
// exchange closed meanwhile or a racing caller's connection won.
func (x *Exchange) connect(ctx context.Context) (*wire.Mux, error) {
	d := net.Dialer{Timeout: x.dialTmo}
	conn, err := d.DialContext(ctx, "tcp", x.addr)
	if err != nil {
		return nil, MarkTransient(err)
	}
	m := wire.NewMux(conn, x.met.WireMetrics)
	x.mu.Lock()
	if x.closed.Load() {
		x.mu.Unlock()
		m.Close()
		return nil, errClosed
	}
	if cur := x.mux; cur != nil && cur.Healthy() {
		// Another caller re-dialed first; share theirs.
		x.mu.Unlock()
		m.Close()
		return cur, nil
	}
	old := x.mux
	x.mux = m
	x.mu.Unlock()
	if old != nil {
		old.Close()
	}
	return m, nil
}

// getMux returns the live connection, dialing outside the lock when there is
// none, so a slow connect never blocks Close or callers racing toward an
// already-live connection.
func (x *Exchange) getMux(ctx context.Context) (*wire.Mux, error) {
	x.mu.Lock()
	m := x.mux
	x.mu.Unlock()
	if x.closed.Load() {
		return nil, errClosed
	}
	if m != nil && m.Healthy() {
		return m, nil
	}
	x.met.Redials.Inc()
	return x.connect(ctx)
}

// drop discards a connection whose stream failed, if it is still current.
func (x *Exchange) drop(m *wire.Mux) {
	x.mu.Lock()
	if x.mux == m {
		x.mux = nil
	}
	x.mu.Unlock()
	m.Close()
}

// RoundTrip sends one request frame and returns the reply, classified as the
// type comment describes. One call is one exchange: RoundTrip never retries.
func (x *Exchange) RoundTrip(ctx context.Context, typ uint8, payload []byte) (wire.Frame, error) {
	m, err := x.getMux(ctx)
	if err != nil {
		return wire.Frame{}, err
	}
	ctxDeadline, hasCtxDeadline := ctx.Deadline()
	var deadline time.Time // zero: the context alone ends this exchange
	if x.ioTmo > 0 {
		deadline = time.Now().Add(x.ioTmo)
		if hasCtxDeadline && ctxDeadline.Before(deadline) {
			deadline = ctxDeadline
		}
	}
	fr, err := m.RoundTrip(ctx, typ, 0, payload, deadline)
	if err != nil {
		// The caller's context ending dominates any wire classification:
		// the exchange deadline that fired may have been the context's own,
		// and the mux's timer can fire a moment before the context reports
		// it.
		if cerr := ctx.Err(); cerr != nil {
			return wire.Frame{}, cerr
		}
		if hasCtxDeadline && !time.Now().Before(ctxDeadline) {
			return wire.Frame{}, context.DeadlineExceeded
		}
		if errors.Is(err, wire.ErrClosed) {
			return wire.Frame{}, errClosed
		}
		x.drop(m)
		return wire.Frame{}, MarkTransient(fmt.Errorf("exchange with %s: %w", x.addr, err))
	}
	switch fr.Type {
	case wire.FrameBusy:
		// The server shed this request before doing any work on it:
		// transient, never an outage, and it carries a retry-after hint.
		x.met.Busy.Inc()
		return wire.Frame{}, wire.DecodeBusy(fr.Payload)
	case wire.FrameError:
		rerr := &RemoteError{Msg: wire.DecodeError(fr.Payload)}
		if fr.Flags&wire.FlagTransient == 0 {
			return wire.Frame{}, rerr // deterministic per-request failure
		}
		return wire.Frame{}, MarkTransient(rerr)
	}
	return fr, nil
}

// Close tears the connection down: exchanges in flight fail promptly with a
// permanent error, and every later call fails the same way.
func (x *Exchange) Close() error {
	if x.closed.Swap(true) {
		return nil
	}
	x.mu.Lock()
	m := x.mux
	x.mux = nil
	x.mu.Unlock()
	if m != nil {
		m.Close()
	}
	return nil
}
