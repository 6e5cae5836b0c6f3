package backend

import (
	"context"
	"fmt"

	"aggcache/internal/obs"
	"aggcache/internal/wire"
)

// Server exposes an Engine over a TCP listener speaking the length-prefixed
// binary frame protocol of package wire (DESIGN.md §11). It stands in for
// the paper's remote commercial DBMS tier. It is the backend's frame
// handler on a wire.Server, which owns the listener, the connections, the
// request deadline and the panic guard. Each connection is pipelined:
// request frames are dispatched to concurrent handlers and responses return
// in completion order, matched to their request by id. Per-request engine
// errors are replied as wire.FrameError; only wire-level failures (bad
// magic, a truncated frame, a reset) close the connection, and an
// idle-deadline reaping is counted separately from those.
type Server struct {
	engine *Engine
	srv    *wire.Server
}

// NewServer wraps an engine for serving with wire.DefaultTimeouts.
func NewServer(e *Engine) *Server {
	s := &Server{engine: e}
	s.srv = wire.NewServer(s.handleFrame)
	return s
}

// SetTimeouts replaces the deadline policy. Call it before Listen; it is not
// synchronized with connections in flight.
func (s *Server) SetTimeouts(t wire.Timeouts) { s.srv.Timeouts = t }

// SetMetrics attaches live observability metrics (the server records the
// wire-level counters; attach the same bundle to the engine for the compute
// counters). Call it before Listen.
func (s *Server) SetMetrics(m obs.BackendMetrics) { s.srv.Metrics = m.WireMetrics }

// Listen starts accepting connections on addr (e.g. "127.0.0.1:0") and
// returns the bound address. A server listens at most once; serving happens
// on background goroutines until Close.
func (s *Server) Listen(addr string) (string, error) { return s.srv.Listen(addr) }

// Close stops the listener and closes active connections, returning once
// every request in flight has been answered or abandoned.
func (s *Server) Close() error { return s.srv.Close() }

// handleFrame serves one request frame, converting engine errors into
// wire.FrameError replies so one bad request never tears down the
// connection under its pipelined neighbors. The transient flag carries the
// PR-3 taxonomy to the client: countsAsOutage failures (the engine did not
// answer) are retryable, deterministic rejections are not.
func (s *Server) handleFrame(ctx context.Context, fr *wire.Frame) wire.Frame {
	gb, nums, err := decodeRequest(fr.Payload)
	if err != nil {
		return wire.ErrorFrame(err.Error(), false)
	}
	switch fr.Type {
	case frameCompute:
		chunks, stats, err := s.engine.ComputeChunks(ctx, gb, nums)
		if err != nil {
			return wire.ErrorFrame(err.Error(), countsAsOutage(err))
		}
		return wire.Frame{Type: frameChunks, Payload: encodeChunksResponse(nil, chunks, stats)}
	case frameEstimate:
		ests, err := s.engine.EstimateScans(ctx, gb, nums)
		if err != nil {
			return wire.ErrorFrame(err.Error(), countsAsOutage(err))
		}
		return wire.Frame{Type: frameEstimates, Payload: encodeEstimatesResponse(nil, ests)}
	default:
		return wire.ErrorFrame(fmt.Sprintf("unknown frame type 0x%02x", fr.Type), false)
	}
}
