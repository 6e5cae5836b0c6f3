package wire

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"aggcache/internal/obs"
)

// maxInFlight is the per-connection cap on concurrently executing
// handlers, for every server; excess pipelined requests queue on the read
// loop. Request frames are bounded by DefaultMaxPayload.
const maxInFlight = 32

// Timeouts bounds one side of a wire conversation so a stuck peer or a
// runaway request can never wedge a serving goroutine forever. It is shared
// by the backend and middle-tier servers.
type Timeouts struct {
	// Read bounds the wait for the next request frame on an idle
	// connection; connections idle longer are closed (counted as an idle
	// close, not a wire error). 0 means no limit — middle tiers
	// legitimately keep idle persistent connections.
	Read time.Duration
	// Write bounds writing one response to a slow or stuck client.
	Write time.Duration
	// Request bounds the work for one request: its handler runs under a
	// context with this deadline, and a request that runs out of it is
	// answered with a transient FrameError rather than by tearing the
	// connection down. 0 means no limit.
	Request time.Duration
}

// DefaultTimeouts is every server's out-of-the-box deadline policy: no idle
// limit, one minute to write a response to a slow client, no request
// deadline.
var DefaultTimeouts = Timeouts{Write: time.Minute}

// Handler serves one request frame and returns the response frame. ctx
// carries the request deadline (Timeouts.Request). The response's ID is
// overwritten with the request's id before writing, so handlers only set
// Type, Flags and Payload. Handlers run concurrently — one goroutine per
// in-flight request — and must be safe for that.
type Handler func(ctx context.Context, fr *Frame) Frame

// Server is the serving edge of a framed protocol: one accept loop,
// connection tracking, the per-request deadline and panic guard, and a
// Close that waits for every serving goroutine. The backend and middle-tier
// servers are each a Server plus their frame handler.
//
// A Server listens at most once: a second Listen, or a Listen after Close,
// is refused and its listener closed, so a listener is never leaked.
type Server struct {
	// Timeouts is the deadline policy of every connection; Metrics receives
	// the frame/byte counters, the in-flight and open connection gauges,
	// and the wire error, idle close and panic counts. Set both before
	// Listen.
	Timeouts Timeouts
	Metrics  obs.WireMetrics

	handle Handler

	mu     sync.Mutex
	ln     net.Listener
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// NewServer returns a server dispatching request frames to h, with
// DefaultTimeouts. A request whose handler panics is answered with a
// transient FrameError.
func NewServer(h Handler) *Server {
	return &Server{Timeouts: DefaultTimeouts, handle: h, conns: make(map[net.Conn]struct{})}
}

// Listen starts accepting connections on addr (e.g. "127.0.0.1:0") and
// returns the bound address. Serving happens on background goroutines until
// Close.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("wire: listen: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.ln != nil {
		ln.Close()
		if s.closed {
			return "", errors.New("wire: listen: server is closed")
		}
		return "", errors.New("wire: listen: server is already listening")
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		// Track under mu, re-checking closed: Close may have swept conns
		// between Accept returning and here, and the wg.Add must precede
		// the unlock so Close's wg.Wait cannot miss this goroutine.
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.Metrics.Conns.Add(1)
			s.serveConn(conn)
			s.Metrics.Conns.Add(-1)
			conn.Close()
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// serve runs one request under the request deadline, turning a handler
// panic into a transient FrameError so one bad request never tears down
// the connection under its pipelined neighbors, nor the process.
func (s *Server) serve(fr *Frame) (resp Frame) {
	ctx := context.Background()
	if t := s.Timeouts.Request; t > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, t)
		defer cancel()
	}
	defer func() {
		if p := recover(); p != nil {
			s.Metrics.Panics.Inc()
			resp = ErrorFrame(fmt.Sprintf("panic serving request: %v", p), true)
		}
	}()
	return s.handle(ctx, fr)
}

// Closed reports whether Close has begun.
func (s *Server) Closed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Close stops the listener, closes live connections and returns once every
// serving goroutine — in-flight handlers included — has finished. Later
// calls return nil.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

// serveConn runs a connection's serve loop until the peer hangs up, the
// idle deadline passes, or the stream fails: frames are read sequentially,
// dispatched to concurrently running handlers (bounded by maxInFlight), and
// responses are written back under a write lock in completion order — the
// server half of the pipelining protocol. It returns after all in-flight
// handlers have finished; the caller owns closing conn.
func (s *Server) serveConn(conn net.Conn) {
	tmo, met := s.Timeouts, s.Metrics
	r := NewReader(conn, 0, met)
	w := NewWriter(conn, met)
	var (
		wmu      sync.Mutex
		wg       sync.WaitGroup
		inflight atomic.Int64
		dead     atomic.Bool // a handler write failed and closed conn
	)
	sem := make(chan struct{}, maxInFlight)
	defer wg.Wait()
	for {
		// The idle deadline applies only when nothing is being served: a
		// client waiting on slow pipelined responses is not idle. Handlers
		// re-arm the deadline when the last in-flight request completes.
		if tmo.Read > 0 {
			if inflight.Load() == 0 {
				conn.SetReadDeadline(time.Now().Add(tmo.Read))
			} else {
				conn.SetReadDeadline(time.Time{})
			}
		}
		fr, err := r.ReadFrame()
		if err != nil {
			switch {
			case errors.Is(err, io.EOF):
				// The client's clean goodbye.
			case dead.Load() || errors.Is(err, net.ErrClosed):
				// We tore the connection down ourselves; already counted.
			case errors.Is(err, os.ErrDeadlineExceeded):
				met.IdleCloses.Inc()
			default:
				met.WireErrors.Inc()
			}
			return
		}
		sem <- struct{}{}
		inflight.Add(1)
		met.InFlight.Add(1)
		wg.Add(1)
		go func(fr Frame) {
			defer func() {
				met.InFlight.Add(-1)
				if inflight.Add(-1) == 0 && tmo.Read > 0 {
					conn.SetReadDeadline(time.Now().Add(tmo.Read))
				}
				<-sem
				wg.Done()
			}()
			resp := s.serve(&fr)
			resp.ID = fr.ID
			wmu.Lock()
			if tmo.Write > 0 {
				conn.SetWriteDeadline(time.Now().Add(tmo.Write))
			}
			werr := w.WriteFrame(resp)
			wmu.Unlock()
			if werr != nil && !dead.Swap(true) {
				// The stream position is unknown after a failed write; drop
				// the connection under the read loop.
				met.WireErrors.Inc()
				conn.Close()
			}
		}(fr)
	}
}
