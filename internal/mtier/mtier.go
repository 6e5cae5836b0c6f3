// Package mtier exposes a middle-tier (aggregate aware cache) engine to
// remote clients over TCP, completing the paper's three-tier deployment:
// clients send mdq query strings, the middle tier answers from its cache or
// the backend, and replies with the result cells plus provenance (cache hit,
// aggregated, backend) and the Figure-10 time breakup.
//
// The wire protocol is the length-prefixed binary framing of package wire
// over a persistent connection — the same layer the middle tier speaks to
// the backend — so clients can pipeline queries: concurrent Query calls
// share one connection and responses are matched by request id, in
// whatever order the server finishes them. A query that fails is answered
// with a wire.FrameError, which the client reports as a *backend.RemoteError
// classified by the backend's error taxonomy.
package mtier

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"aggcache/internal/backend"
	"aggcache/internal/chunk"
	"aggcache/internal/core"
	"aggcache/internal/mdq"
	"aggcache/internal/obs"
	"aggcache/internal/wire"
)

// Cell is one result cell: absolute member ids at the queried levels plus
// the aggregate value (already computed per the query's aggregate function)
// and the underlying sum/count pair.
type Cell struct {
	Members []int32
	Value   float64
	Sum     float64
	Count   int64
}

// Response answers one Request.
type Response struct {
	// Agg is the aggregate function applied ("SUM", "COUNT", "AVG").
	Agg string
	// Levels names the group-by level per dimension.
	Levels []string
	Cells  []Cell
	// CompleteHit reports that the cache answered without the backend;
	// Aggregated reports in-cache aggregation happened.
	CompleteHit bool
	Aggregated  bool
	// Degraded reports the answer was served from the cache alone while the
	// backend was unreachable (circuit breaker open) — see core.Result.
	Degraded bool
	// Lookup/Aggregate/Update/Backend are the time-breakup components in
	// nanoseconds.
	Lookup, Aggregate, Update, Backend int64
}

// Total returns the response's total service time.
func (r *Response) Total() time.Duration {
	return time.Duration(r.Lookup + r.Aggregate + r.Update + r.Backend)
}

// Server serves one engine to many clients: the middle tier's frame
// handler on a wire.Server, which owns the listener, the connections, the
// request deadline and the panic guard. Each connection is served by its
// own goroutine and the engine executes queries concurrently, so clients
// scale with cores instead of queueing on a global engine lock.
type Server struct {
	engine *core.Engine
	grid   *chunk.Grid
	srv    *wire.Server
	// adm is the server-wide admission controller; nil means every query is
	// admitted (the pre-admission behavior).
	adm *admission

	// reg/ring/met are the observability layer, wired by SetObs (or lazily
	// by OpsHandler). met's handles are atomics; the ring takes its own
	// short lock per trace.
	reg  *obs.Registry
	ring *obs.TraceRing
	met  obs.ServerMetrics

	mu  sync.Mutex // guards ops
	ops *obs.OpsServer
}

// NewServer wraps an engine for serving with wire.DefaultTimeouts.
func NewServer(engine *core.Engine) *Server {
	s := &Server{engine: engine, grid: engine.Grid()}
	s.srv = wire.NewServer(s.handleFrame)
	return s
}

// SetTimeouts replaces the deadline policy — the same Timeouts the backend
// server uses, so a stuck or idle client can never wedge a serving
// goroutine forever. Request bounds each query: the engine runs it under
// that deadline, or under the client's budget when that is tighter, so a
// hung or slow backend fails the query with a timeout error (counted on
// /metrics) instead of hanging the client. Call before Listen; it is not
// synchronized with connections in flight.
func (s *Server) SetTimeouts(t wire.Timeouts) { s.srv.Timeouts = t }

// SetAdmission installs the server-wide admission controller: every client
// query passes its bounded queue, deadline check and tenant quotas before
// touching the engine, and shed queries are answered with an in-band Busy
// frame (transient, retry-after hint) instead of queueing without bound.
// A config with MaxConcurrent <= 0 removes the controller. Call before
// Listen; it is not synchronized with requests in flight.
func (s *Server) SetAdmission(cfg AdmissionConfig) {
	if cfg.MaxConcurrent <= 0 {
		s.adm = nil
		return
	}
	s.adm = newAdmission(cfg)
	if s.reg != nil {
		s.adm.met = obs.NewAdmissionMetrics(s.reg)
	}
}

// SetObs attaches a metrics registry and query-trace ring. Call it before
// Listen; it is not synchronized with requests in flight. Either argument
// may be nil to disable that half.
func (s *Server) SetObs(reg *obs.Registry, ring *obs.TraceRing) {
	s.reg = reg
	s.ring = ring
	if reg != nil {
		s.met = obs.NewServerMetrics(reg)
		s.srv.Metrics = s.met.WireMetrics
		if s.adm != nil {
			// SetAdmission ran first; attach its metrics now.
			s.adm.met = obs.NewAdmissionMetrics(reg)
		}
	}
}

// Healthy reports whether the server is accepting queries; it is the
// /healthz signal and flips to false on Close.
func (s *Server) Healthy() bool { return !s.srv.Closed() }

// OpsHandler returns the ops HTTP handler (/metrics, /healthz, /traces,
// /debug/pprof/) over this server's observability state, wiring a default
// registry and trace ring first if SetObs was never called.
func (s *Server) OpsHandler() http.Handler {
	if s.reg == nil {
		s.SetObs(obs.NewRegistry(), obs.NewTraceRing(0))
	}
	return obs.NewStatusHandler(s.reg, s.ring, func() (bool, string) {
		if !s.Healthy() {
			return false, "closed"
		}
		detail := ""
		if s.engine.Degraded() {
			detail = "(degraded: cache-only, backend unavailable)"
		}
		// Shedding is healthy behavior — the server is protecting itself —
		// but operators need to see it next to the degraded-mode field.
		if r, d := s.adm.ShedsPerSec(), s.adm.Depth(); r > 0 || d > 0 {
			if detail != "" {
				detail += " "
			}
			detail += fmt.Sprintf("(shedding: %.1f sheds/s, queue depth %d)", r, d)
		}
		return true, detail
	})
}

// ServeOps starts the ops HTTP listener on addr and returns the bound
// address. The listener is shut down by Close. Like Listen, a server serves
// ops at most once.
func (s *Server) ServeOps(addr string) (string, error) {
	ops, err := obs.Serve(addr, s.OpsHandler())
	if err != nil {
		return "", fmt.Errorf("mtier: ops: %w", err)
	}
	// Close marks the wire server closed before it takes mu to read ops, so
	// either it sees this listener or this check sees it closed.
	s.mu.Lock()
	if s.ops != nil || s.srv.Closed() {
		s.mu.Unlock()
		ops.Close()
		return "", errors.New("mtier: ops listener already started or server closed")
	}
	s.ops = ops
	s.mu.Unlock()
	return ops.Addr(), nil
}

// Listen starts accepting connections on addr and returns the bound
// address. A server listens at most once: a second call — or a call after
// Close — is rejected so the first listener is never silently leaked.
func (s *Server) Listen(addr string) (string, error) { return s.srv.Listen(addr) }

// handleFrame serves one frame — a client query or a peer cache request
// (both kinds share the listener, so a cluster member is just another
// pipelined client). All failures — including an unrecognized frame type —
// are answered with a wire.FrameError, so the connection survives a bad
// request under its pipelined neighbors. ctx carries the server's request
// deadline; a query's own budget (the client's deadline) tightens it
// further, so no work continues past the point the client has given up.
//
// Client queries pass the admission controller when one is installed; peer
// cache frames bypass it deliberately — they are cheap memory operations,
// and shedding them would push a neighbor's misses to the backend, the
// opposite of protecting the cluster under load.
func (s *Server) handleFrame(ctx context.Context, fr *wire.Frame) wire.Frame {
	switch fr.Type {
	case framePeerGet:
		return s.handlePeerGet(fr)
	case frameQuery:
	default:
		return wire.ErrorFrame(fmt.Sprintf("mtier: unknown frame type 0x%02x", fr.Type), false)
	}
	query, tenant, budget, err := decodeQuery(fr.Payload)
	if err != nil {
		return wire.ErrorFrame(err.Error(), false)
	}
	if budget > 0 {
		// Pinned before queueing, so the engine runs under what remains of
		// the budget after the queue wait, not the original.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, budget)
		defer cancel()
	}
	if s.adm != nil {
		release, busy := s.adm.Admit(tenant, budget)
		if busy != nil {
			return wire.BusyFrame(busy.RetryAfter, busy.Reason)
		}
		defer release()
	}
	return s.answer(ctx, query)
}

// answer executes one query and returns its reply frame, recording metrics
// and a trace-ring entry for every outcome. Failures are counted
// server-side by kind — not just replied to the client — so a misbehaving
// client or a failing backend is visible on /metrics and /traces, and they
// are replied as a wire.FrameError: permanent for a query that does not
// compile or that the engine rejects, transient for a server timeout or an
// unavailable backend, where a retry may succeed. The trace fills in as
// the query progresses and is recorded once, with the latency, on the way
// out. A panic is recorded like an execute error, with the outcome
// "panic", and raised again for the wire.Server guard, which answers the
// client with a transient FrameError and counts it.
func (s *Server) answer(ctx context.Context, query string) wire.Frame {
	tr := obs.QueryTrace{Start: time.Now(), Query: query}
	s.met.Requests.Inc()
	defer func() {
		p := recover()
		if p != nil {
			s.met.ExecuteErrors.Inc()
			tr.Outcome, tr.Err = "panic", fmt.Sprint(p)
		}
		elapsed := time.Since(tr.Start)
		s.met.Latency.Observe(elapsed)
		tr.TotalNS = int64(elapsed)
		s.ring.Add(tr)
		if p != nil {
			panic(p)
		}
	}()
	q, agg, err := mdq.Compile(query, s.grid)
	if err != nil {
		s.met.CompileErrors.Inc()
		tr.Outcome, tr.Err = "compile_error", err.Error()
		return wire.ErrorFrame(err.Error(), false)
	}
	lat := s.grid.Lattice()
	res, err := s.engine.Execute(ctx, q)
	if err != nil {
		// Count failures by kind so an open breaker or a hung backend is
		// distinguishable from a bad query on /metrics and /traces.
		tr.GroupBy, tr.Outcome, tr.Err = lat.LevelTupleString(q.GB), "execute_error", err.Error()
		transient := true
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			tr.Outcome = "timeout"
			s.met.TimeoutErrors.Inc()
		case errors.Is(err, core.ErrBackendUnavailable):
			tr.Outcome = "unavailable"
			s.met.UnavailableErrors.Inc()
		default:
			s.met.ExecuteErrors.Inc()
			transient = false
		}
		return wire.ErrorFrame(err.Error(), transient)
	}
	lv := lat.Level(q.GB)
	sch := s.grid.Schema()
	resp := &Response{
		Agg:         agg.String(),
		CompleteHit: res.CompleteHit,
		Aggregated:  res.AggregatedTuples > 0,
		Degraded:    res.Degraded,
		Lookup:      int64(res.Breakdown.Lookup),
		Aggregate:   int64(res.Breakdown.Aggregate),
		Update:      int64(res.Breakdown.Update),
		Backend:     int64(res.Breakdown.Backend),
	}
	for d, l := range lv {
		resp.Levels = append(resp.Levels, sch.Dim(d).Name()+":"+sch.Dim(d).LevelName(l))
	}
	for _, c := range res.Chunks {
		for i, key := range c.Keys {
			members := s.grid.CellMembers(c.GB, int(c.Num), key, nil)
			count := int64(1)
			if c.Counts != nil {
				count = c.Counts[i]
			}
			resp.Cells = append(resp.Cells, Cell{
				Members: members,
				Value:   agg.Apply(c.Vals[i], count),
				Sum:     c.Vals[i],
				Count:   count,
			})
		}
	}
	tr = obs.QueryTrace{
		Start:            tr.Start,
		Query:            query,
		GroupBy:          lat.LevelTupleString(q.GB),
		Chunks:           len(res.Chunks),
		Hit:              res.HitChunks - res.AggChunks,
		Aggregated:       res.AggChunks,
		Fetched:          res.MissChunks,
		AggregatedTuples: res.AggregatedTuples,
		BackendTuples:    res.BackendTuples,
		LookupNS:         int64(res.Breakdown.Lookup),
		AggregateNS:      int64(res.Breakdown.Aggregate),
		UpdateNS:         int64(res.Breakdown.Update),
		BackendNS:        int64(res.Breakdown.Backend),
		CompleteHit:      res.CompleteHit,
		Outcome:          "ok",
	}
	return wire.Frame{Type: frameAnswer, Payload: encodeResponse(nil, resp)}
}

// Close stops the listener, closes active connections, and finally shuts
// the ops HTTP listener down. The server reads closed from the start, so
// /healthz reports unhealthy for the remainder of the shutdown.
func (s *Server) Close() error {
	err := s.srv.Close()
	s.mu.Lock()
	ops := s.ops
	s.mu.Unlock()
	if cerr := ops.Close(); err == nil {
		err = cerr
	}
	return err
}

// Client is a middle-tier client: a backend.Exchange plus the query codec
// and the tenant, as PeerClient is. It is safe for concurrent use: queries
// are pipelined over one multiplexed connection, so N goroutines calling
// Query share the connection without serializing on each other's round
// trips, and a connection that broke is redialed by the next query. The
// exchange has no deadline of its own: a query's context ends only that
// query, never the connection its pipelined neighbors share.
type Client struct {
	x      *backend.Exchange
	tenant atomic.Value // string
}

// Dial connects to a middle-tier server, failing at once when nothing
// listens at addr.
func Dial(addr string) (*Client, error) {
	x, err := backend.DialExchange(addr, dialTimeout, 0, obs.RemoteMetrics{})
	if err != nil {
		return nil, fmt.Errorf("mtier: dial %s: %w", addr, err)
	}
	return &Client{x: x}, nil
}

// SetTenant attaches a tenant id to every subsequent query, keying the
// server's per-tenant admission quotas. Empty (the default) is anonymous.
func (c *Client) SetTenant(id string) { c.tenant.Store(id) }

// Query runs one mdq query on the middle tier.
func (c *Client) Query(src string) (*Response, error) {
	return c.QueryContext(context.Background(), src)
}

// QueryContext runs one mdq query under a caller-supplied context; the
// query is abandoned (the connection stays healthy) when the context ends.
// A context deadline also propagates to the server as the query's budget,
// so an overloaded server can shed the query up front — replied as a
// *wire.BusyError — instead of doing work the caller will have abandoned.
// Failures classify as backend.Exchange's do: a query the server could not
// answer is a *backend.RemoteError, transient (backend.IsTransient) when a
// retry may succeed.
func (c *Client) QueryContext(ctx context.Context, src string) (*Response, error) {
	var budget time.Duration
	if d, ok := ctx.Deadline(); ok {
		if budget = time.Until(d); budget <= 0 {
			return nil, context.DeadlineExceeded
		}
	}
	tenant, _ := c.tenant.Load().(string)
	fr, err := c.x.RoundTrip(ctx, frameQuery, encodeQuery(nil, src, tenant, budget))
	if err != nil {
		return nil, err
	}
	if fr.Type != frameAnswer {
		return nil, fmt.Errorf("mtier: unexpected frame type 0x%02x", fr.Type)
	}
	return decodeResponse(fr.Payload)
}

// Close releases the connection; queries in flight fail promptly.
func (c *Client) Close() error { return c.x.Close() }
