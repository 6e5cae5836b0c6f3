package backend

import (
	"context"
	"fmt"
	"time"

	"aggcache/internal/obs"
	"aggcache/internal/wire"
)

// Timeouts bounds the server side of the wire protocol; it is wire.Timeouts
// shared with the middle-tier server (see that type for field semantics).
type Timeouts = wire.Timeouts

// DefaultTimeouts is the server's out-of-the-box deadline policy.
var DefaultTimeouts = Timeouts{Write: time.Minute}

// Server exposes an Engine over a TCP listener speaking the length-prefixed
// binary frame protocol of package wire (DESIGN.md §11). It stands in for
// the paper's remote commercial DBMS tier. It is the backend's frame
// handler on a wire.Server, which owns the listener, the connections, the
// request deadline and the panic guard. Each connection is pipelined:
// request frames are dispatched to concurrent handlers and responses return
// in completion order, matched to their request by id. Per-request engine
// errors are replied in-band; only wire-level failures (bad magic, a
// truncated frame, a reset) close the connection, and an idle-deadline
// reaping is counted separately from those.
type Server struct {
	engine *Engine
	srv    *wire.Server
}

// NewServer wraps an engine for serving with DefaultTimeouts.
func NewServer(e *Engine) *Server {
	s := &Server{engine: e}
	s.srv = wire.NewServer(s.handleFrame, func(_ *wire.Frame, msg string) wire.Frame {
		return errorFrame(msg, true)
	})
	s.srv.Options.Timeouts = DefaultTimeouts
	return s
}

// SetTimeouts replaces the deadline policy. Call it before Listen; it is not
// synchronized with connections in flight.
func (s *Server) SetTimeouts(t Timeouts) { s.srv.Options.Timeouts = t }

// SetMaxPayload bounds request frame payloads (0 means
// wire.DefaultMaxPayload). Call it before Listen.
func (s *Server) SetMaxPayload(n int) { s.srv.Options.MaxPayload = n }

// SetMaxInFlight caps concurrently executing handlers per connection (0
// means wire.DefaultMaxInFlight). Call it before Listen.
func (s *Server) SetMaxInFlight(n int) { s.srv.Options.MaxInFlight = n }

// SetMetrics attaches live observability metrics (the server records the
// wire-level counters; attach the same bundle to the engine for the compute
// counters). Call it before Listen.
func (s *Server) SetMetrics(m obs.BackendMetrics) { s.srv.Options.Metrics = m.WireMetrics }

// Listen starts accepting connections on addr (e.g. "127.0.0.1:0") and
// returns the bound address. A server listens at most once; serving happens
// on background goroutines until Close.
func (s *Server) Listen(addr string) (string, error) { return s.srv.Listen(addr) }

// Close stops the listener and closes active connections, returning once
// every request in flight has been answered or abandoned.
func (s *Server) Close() error { return s.srv.Close() }

// handleFrame serves one request frame, converting engine errors into
// in-band error frames so one bad request never tears down the connection
// under its pipelined neighbors. The transient flag carries the PR-3
// taxonomy to the client: countsAsOutage failures (the engine did not
// answer) are retryable, deterministic rejections are not.
func (s *Server) handleFrame(ctx context.Context, fr *wire.Frame) wire.Frame {
	gb, nums, err := decodeRequest(fr.Payload)
	if err != nil {
		return errorFrame(err.Error(), false)
	}
	switch fr.Type {
	case frameCompute:
		chunks, stats, err := s.engine.ComputeChunks(ctx, gb, nums)
		if err != nil {
			return errorFrame(err.Error(), countsAsOutage(err))
		}
		return wire.Frame{Type: frameChunks, Payload: encodeChunksResponse(nil, chunks, stats)}
	case frameEstimate:
		ests, err := s.engine.EstimateScans(ctx, gb, nums)
		if err != nil {
			return errorFrame(err.Error(), countsAsOutage(err))
		}
		return wire.Frame{Type: frameEstimates, Payload: encodeEstimatesResponse(nil, ests)}
	default:
		return errorFrame(fmt.Sprintf("unknown frame type 0x%02x", fr.Type), false)
	}
}
