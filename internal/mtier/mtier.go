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
// whatever order the server finishes them.
package mtier

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"aggcache/internal/chunk"
	"aggcache/internal/core"
	"aggcache/internal/mdq"
	"aggcache/internal/obs"
	"aggcache/internal/wire"
)

// Request is one client query.
type Request struct {
	// Query is an mdq statement, e.g.
	// "SUM(UnitSales) BY Product:Group WHERE Product:Group IN 0..3".
	Query string
	// Tenant identifies the client for per-tenant admission quotas; empty
	// means anonymous (no quota applies).
	Tenant string
	// Budget is the query's remaining deadline budget; the engine runs
	// under min(Budget, server query timeout). 0 means no client deadline.
	Budget time.Duration
}

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
	// Err is non-empty on failure.
	Err string
}

// Total returns the response's total service time.
func (r *Response) Total() time.Duration {
	return time.Duration(r.Lookup + r.Aggregate + r.Update + r.Backend)
}

// Server serves one engine to many clients. Each connection is served by
// its own goroutine and the engine executes queries concurrently, so
// clients scale with cores instead of queueing on a global engine lock.
type Server struct {
	engine *core.Engine
	grid   *chunk.Grid
	// queryTimeout bounds each query's execution; zero means no bound.
	queryTimeout time.Duration
	// tmo is the wire deadline policy (idle reaping, response writes).
	tmo wire.Timeouts
	// maxPay bounds request frames; 0 means wire.DefaultMaxPayload.
	maxPay int
	// maxInFlight caps concurrently executing handlers per connection; 0
	// means wire.DefaultMaxInFlight.
	maxInFlight int
	// adm is the server-wide admission controller; nil means every query is
	// admitted (the pre-admission behavior).
	adm *admission

	// reg/ring/met are the observability layer, wired by SetObs (or lazily
	// by OpsHandler). met's handles are atomics; the ring takes its own
	// short lock per trace.
	reg  *obs.Registry
	ring *obs.TraceRing
	met  obs.ServerMetrics

	mu     sync.Mutex
	ln     net.Listener
	closed bool
	conns  map[net.Conn]struct{}
	ops    *obs.OpsServer
	wg     sync.WaitGroup
}

// DefaultTimeouts is the middle-tier server's out-of-the-box wire deadline
// policy: no idle limit (clients legitimately hold idle persistent
// connections), one minute to write a response to a slow client.
var DefaultTimeouts = wire.Timeouts{Write: time.Minute}

// NewServer wraps an engine for serving with DefaultTimeouts.
func NewServer(engine *core.Engine) *Server {
	return &Server{engine: engine, grid: engine.Grid(), tmo: DefaultTimeouts, conns: make(map[net.Conn]struct{})}
}

// SetTimeouts replaces the wire deadline policy — the same Timeouts the
// backend server uses, so a stuck or idle client can never wedge a serving
// goroutine forever. The Request field is ignored; use SetQueryTimeout,
// which also classifies the failure for /metrics. Call before Listen; it is
// not synchronized with connections in flight.
func (s *Server) SetTimeouts(t wire.Timeouts) { s.tmo = t }

// SetMaxPayload bounds request frame payloads (0 means
// wire.DefaultMaxPayload). Call before Listen.
func (s *Server) SetMaxPayload(n int) { s.maxPay = n }

// SetMaxInFlight caps concurrently executing handlers per connection (0
// means wire.DefaultMaxInFlight). It bounds one connection's pipelining;
// SetAdmission bounds the whole server. Call before Listen.
func (s *Server) SetMaxInFlight(n int) { s.maxInFlight = n }

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

// SetQueryTimeout bounds each query's execution time: the engine runs it
// under a context with this deadline, so a hung or slow backend fails the
// query with a timeout error instead of hanging the client. Zero (the
// default) means unbounded. Call before Listen; it is not synchronized with
// requests in flight.
func (s *Server) SetQueryTimeout(d time.Duration) { s.queryTimeout = d }

// SetObs attaches a metrics registry and query-trace ring. Call it before
// Listen; it is not synchronized with requests in flight. Either argument
// may be nil to disable that half.
func (s *Server) SetObs(reg *obs.Registry, ring *obs.TraceRing) {
	s.reg = reg
	s.ring = ring
	if reg != nil {
		s.met = obs.NewServerMetrics(reg)
		if s.adm != nil {
			// SetAdmission ran first; attach its metrics now.
			s.adm.met = obs.NewAdmissionMetrics(reg)
		}
	}
}

// Healthy reports whether the server is accepting queries; it is the
// /healthz signal and flips to false on Close.
func (s *Server) Healthy() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.closed
}

// Traces returns the server's trace ring (nil when tracing is off).
func (s *Server) Traces() *obs.TraceRing { return s.ring }

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
	h := s.OpsHandler()
	s.mu.Lock()
	if s.closed || s.ops != nil {
		s.mu.Unlock()
		return "", errors.New("mtier: ops listener already started or server closed")
	}
	s.mu.Unlock()
	ops, err := obs.Serve(addr, h)
	if err != nil {
		return "", fmt.Errorf("mtier: ops: %w", err)
	}
	s.mu.Lock()
	if s.closed || s.ops != nil {
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
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("mtier: listen: %w", err)
	}
	s.mu.Lock()
	if s.closed || s.ln != nil {
		closed := s.closed
		s.mu.Unlock()
		ln.Close()
		if closed {
			return "", errors.New("mtier: listen: server is closed")
		}
		return "", errors.New("mtier: listen: server is already listening")
	}
	s.ln = ln
	s.wg.Add(1)
	s.mu.Unlock()
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		// Re-check closed under mu before tracking: Close may have swept
		// conns between Accept returning and this point, and a connection
		// registered after the sweep would never be closed. The wg.Add must
		// also happen before unlocking so Close's wg.Wait cannot miss the
		// serving goroutine.
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	s.met.ConnectionsOpen.Add(1)
	defer func() {
		s.met.ConnectionsOpen.Add(-1)
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	// The shared serve loop brings the deadline policy and error accounting
	// the backend server has had since the Timeouts work: decode/encode
	// failures count on /metrics instead of silently dropping the
	// connection, idle reaping is counted separately, and pipelined
	// requests execute concurrently.
	wire.ServeConn(conn, wire.ConnOptions{
		Timeouts:    s.tmo,
		MaxPayload:  s.maxPay,
		MaxInFlight: s.maxInFlight,
		Metrics: wire.Metrics{
			BytesIn:   s.met.WireBytesIn,
			BytesOut:  s.met.WireBytesOut,
			FramesIn:  s.met.FramesIn,
			FramesOut: s.met.FramesOut,
			InFlight:  s.met.InFlight,
		},
		WireErrors: s.met.WireErrors,
		IdleCloses: s.met.IdleCloses,
	}, s.handleFrame)
}

// handleFrame serves one frame — a client query or a peer cache request
// (both kinds share the listener, so a cluster member is just another
// pipelined client). All failures — including an unrecognized frame type —
// are answered in-band, so the connection survives a bad request under its
// pipelined neighbors.
//
// Client queries pass the admission controller when one is installed; peer
// cache frames bypass it deliberately — they are cheap memory operations,
// and shedding them would push a neighbor's misses to the backend, the
// opposite of protecting the cluster under load.
func (s *Server) handleFrame(fr *wire.Frame) wire.Frame {
	switch fr.Type {
	case framePeerGet:
		return s.handlePeerGet(fr)
	case framePeerPut:
		return s.handlePeerPut(fr)
	}
	if fr.Type != frameQuery {
		resp := &Response{Err: fmt.Sprintf("unknown frame type 0x%02x", fr.Type)}
		return wire.Frame{Type: frameAnswer, Payload: encodeResponse(nil, resp)}
	}
	query, tenant, budget, err := decodeQuery(fr.Payload)
	if err != nil {
		return wire.Frame{Type: frameAnswer, Payload: encodeResponse(nil, &Response{Err: err.Error()})}
	}
	req := Request{Query: query, Tenant: tenant, Budget: budget}
	if s.adm == nil {
		return wire.Frame{Type: frameAnswer, Payload: encodeResponse(nil, s.answer(req))}
	}
	// Pin the absolute deadline before queueing so the budget the engine
	// runs under is what remains after the queue wait, not the original.
	var deadline time.Time
	if budget > 0 {
		deadline = time.Now().Add(budget)
	}
	release, busy := s.adm.Admit(tenant, budget)
	if busy != nil {
		return wire.BusyFrame(busy.RetryAfter, busy.Reason)
	}
	if !deadline.IsZero() {
		req.Budget = time.Until(deadline)
	}
	payload := encodeResponse(nil, s.answer(req))
	release()
	return wire.Frame{Type: frameAnswer, Payload: payload}
}

// answer executes one query, recording metrics and a trace-ring entry for
// every outcome. Failures are counted server-side by kind — not just folded
// into the wire Err string — so a misbehaving client or a failing backend
// is visible on /metrics and /traces.
func (s *Server) answer(req Request) *Response {
	start := time.Now()
	s.met.Requests.Inc()
	q, agg, err := mdq.Compile(req.Query, s.grid)
	if err != nil {
		s.met.CompileErrors.Inc()
		s.met.Latency.Observe(time.Since(start))
		s.ring.Add(obs.QueryTrace{
			Start: start, Query: req.Query,
			TotalNS: int64(time.Since(start)),
			Outcome: "compile_error", Err: err.Error(),
		})
		return &Response{Err: err.Error()}
	}
	lat := s.grid.Lattice()
	ctx := context.Background()
	timeout := s.queryTimeout
	if req.Budget > 0 && (timeout <= 0 || req.Budget < timeout) {
		// The client's deadline budget is tighter than the server policy:
		// honoring it means no work continues past the point the client has
		// given up.
		timeout = req.Budget
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	res, err := s.engine.Execute(ctx, q)
	if err != nil {
		// Count failures by kind so an open breaker or a hung backend is
		// distinguishable from a bad query on /metrics and /traces.
		outcome := "execute_error"
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			outcome = "timeout"
			s.met.TimeoutErrors.Inc()
		case errors.Is(err, core.ErrBackendUnavailable):
			outcome = "unavailable"
			s.met.UnavailableErrors.Inc()
		default:
			s.met.ExecuteErrors.Inc()
		}
		s.met.Latency.Observe(time.Since(start))
		s.ring.Add(obs.QueryTrace{
			Start: start, Query: req.Query,
			GroupBy: lat.LevelTupleString(q.GB),
			TotalNS: int64(time.Since(start)),
			Outcome: outcome, Err: err.Error(),
		})
		return &Response{Err: err.Error()}
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
	s.met.Latency.Observe(time.Since(start))
	s.ring.Add(obs.QueryTrace{
		Start:            start,
		Query:            req.Query,
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
		TotalNS:          int64(time.Since(start)),
		CompleteHit:      res.CompleteHit,
		Outcome:          "ok",
	})
	return resp
}

// Close stops the listener, closes active connections, and finally shuts
// the ops HTTP listener down. The closed flag flips first, so /healthz
// reports unhealthy for the remainder of the shutdown.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	ops := s.ops
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	if cerr := ops.Close(); err == nil {
		err = cerr
	}
	return err
}

// Client is a middle-tier client. It is safe for concurrent use: queries
// are pipelined over one multiplexed connection, so N goroutines calling
// Query share the connection without serializing on each other's round
// trips.
type Client struct {
	mu     sync.Mutex
	mux    *wire.Mux
	closed bool
	tenant string
}

// Dial connects to a middle-tier server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("mtier: dial %s: %w", addr, err)
	}
	return &Client{mux: wire.NewMux(conn, 0, wire.Metrics{})}, nil
}

// SetTenant attaches a tenant id to every subsequent query, keying the
// server's per-tenant admission quotas. Empty (the default) is anonymous.
func (c *Client) SetTenant(id string) {
	c.mu.Lock()
	c.tenant = id
	c.mu.Unlock()
}

// Query runs one mdq query on the middle tier.
func (c *Client) Query(src string) (*Response, error) {
	return c.QueryContext(context.Background(), src)
}

// QueryContext runs one mdq query under a caller-supplied context; the
// query is abandoned (the connection stays healthy) when the context ends.
// A context deadline also propagates to the server as the query's budget,
// so an overloaded server can shed the query up front — replied as a
// *wire.BusyError, transient per the backend taxonomy — instead of doing
// work the caller will have abandoned.
func (c *Client) QueryContext(ctx context.Context, src string) (*Response, error) {
	c.mu.Lock()
	m := c.mux
	closed := c.closed
	tenant := c.tenant
	c.mu.Unlock()
	if closed || m == nil {
		return nil, errors.New("mtier: client is closed")
	}
	var budget time.Duration
	if d, ok := ctx.Deadline(); ok {
		if budget = time.Until(d); budget <= 0 {
			return nil, context.DeadlineExceeded
		}
	}
	fr, err := m.RoundTrip(ctx, frameQuery, 0, encodeQuery(nil, src, tenant, budget), time.Time{})
	if err != nil {
		if errors.Is(err, io.EOF) {
			err = errors.New("server closed the connection")
		}
		return nil, fmt.Errorf("mtier: %w", err)
	}
	if fr.Type == wire.FrameBusy {
		// Load shedding: transient by the PR-3 taxonomy (backend.IsTransient
		// is true for BusyError), so retry loops back off per the hint.
		return nil, fmt.Errorf("mtier: %w", wire.DecodeBusy(fr.Payload))
	}
	if fr.Type != frameAnswer {
		return nil, fmt.Errorf("mtier: unexpected frame type 0x%02x", fr.Type)
	}
	resp, err := decodeResponse(fr.Payload)
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return nil, fmt.Errorf("mtier: remote: %s", resp.Err)
	}
	return resp, nil
}

// Close releases the connection; queries in flight fail promptly.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	if c.mux != nil {
		c.mux.Close()
	}
	return nil
}
