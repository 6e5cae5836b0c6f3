package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"aggcache/internal/backend"
	"aggcache/internal/cache"
	"aggcache/internal/chunk"
	"aggcache/internal/lattice"
	"aggcache/internal/strategy"
)

// The traced pass records a span around every call the benchmark can see
// into a layer: the public interfaces cache.Store, strategy.Strategy,
// backend.Backend and cache.Peer are wrapped in the decorators below, and
// the client records one root span per request. Spans live in memory until
// the pass ends. Exactly one request is in flight, so a span belongs to the
// request current when it started and nests under whichever span of that
// request contains it in time.

// Span operations. The layer is the prefix before the dot.
const (
	opClientQuery = "client.query"
	opCacheGet    = "cache.get"
	opCachePin    = "cache.pin"
	opCacheReinf  = "cache.reinforce"
	opCacheInsert = "cache.insert"
	opCacheFill   = "cache.peer_fill"
	opStratFind   = "strategy.find"
	opStratInsert = "strategy.on_insert"
	opStratEvent  = "strategy.on_event"
	opBackendComp = "backend.compute"
	opBackendEst  = "backend.estimate"
	opPeerGet     = "peer.get"
	opPeerPut     = "peer.put"
)

// span is one timed call. Start and End are nanoseconds since the tracer's
// epoch; Req is the request index (-1 outside any request). ID, Parent and
// Self are filled in by tracer.resolve.
type span struct {
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     string `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer collects spans and the few counts spans cannot carry.
type tracer struct {
	epoch time.Time
	// on gates recording, so set-up and warm-up leave no spans.
	on atomic.Bool
	// req is the index of the request in flight, -1 between requests.
	req atomic.Int64

	mu    sync.Mutex
	spans []span
	// codecSample keeps the first chunks the backend decorator saw (set-up
	// included) for the off-the-clock wire codec timing.
	codecSample []*chunk.Chunk

	findHits      atomic.Int64
	backendChunks atomic.Int64
	backendTuples atomic.Int64
	backendWallNS atomic.Int64
	backendErrors atomic.Int64
}

const codecSampleMax = 256

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.req.Store(-1)
	return t
}

// began is the opening half of a span: when the call started and which
// request was in flight then. An asynchronous call that ends during a later
// request still belongs to the one that caused it.
type began struct {
	at  time.Time
	req int64
}

func (t *tracer) begin() began { return began{time.Now(), t.req.Load()} }

// record appends one finished span. Use as: defer tr.record(op, tr.begin()).
func (t *tracer) record(op string, b began) {
	end := time.Now()
	if !t.on.Load() {
		return
	}
	s := span{Req: int(b.req), Op: op, Start: int64(b.at.Sub(t.epoch)), End: int64(end.Sub(t.epoch))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// resolve assigns ids, parents and self times. Within a request the spans
// are swept in time order: every instant of the root span is charged to the
// most recently started span still open, so self times are non-negative and
// add up to exactly the root's duration even when siblings overlap (parallel
// peer fills). Without overlap that is the span minus the union of its
// children. Spans that outlive their request (asynchronous peer puts) or run
// outside any request are detached: parent -1, self = their own duration,
// and they take no part in the request's accounting.
func (t *tracer) resolve() []span {
	t.mu.Lock()
	spans := t.spans
	t.spans = nil
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.Req != b.Req {
			return a.Req < b.Req
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.End > b.End
	})
	for i := range spans {
		spans[i].ID = i
		spans[i].Parent = -1
		spans[i].Self = spans[i].End - spans[i].Start
	}
	for lo := 0; lo < len(spans); {
		hi := lo
		for hi < len(spans) && spans[hi].Req == spans[lo].Req {
			hi++
		}
		if spans[lo].Req >= 0 {
			resolveRequest(spans[lo:hi])
		}
		lo = hi
	}
	return spans
}

// resolveRequest handles one request's spans, sorted by (start, -end). The
// root is the client span; what it does not contain in time is detached.
func resolveRequest(spans []span) {
	var root *span
	for i := range spans {
		if spans[i].Op == opClientQuery {
			root = &spans[i]
			break
		}
	}
	if root == nil {
		return
	}
	var inside []*span
	for i := range spans {
		s := &spans[i]
		if s != root && s.Start >= root.Start && s.End <= root.End {
			inside = append(inside, s)
		}
	}
	// Parents by containment: the innermost open span that also ends no
	// earlier than the new one.
	stack := []*span{root}
	for _, s := range inside {
		for len(stack) > 1 && stack[len(stack)-1].End < s.End {
			stack = stack[:len(stack)-1]
		}
		s.Parent = stack[len(stack)-1].ID
		stack = append(stack, s)
	}
	// Self times by sweep over the start/end instants.
	type edge struct {
		at   int64
		s    *span
		open bool
	}
	edges := make([]edge, 0, 2*(len(inside)+1))
	root.Self = 0
	edges = append(edges, edge{root.Start, root, true}, edge{root.End, root, false})
	for _, s := range inside {
		s.Self = 0
		edges = append(edges, edge{s.Start, s, true}, edge{s.End, s, false})
	}
	sort.SliceStable(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		// Close before open at the same instant, so a zero-length gap is not
		// charged to a span that has already ended.
		return !edges[i].open && edges[j].open
	})
	var open []*span
	last := root.Start
	for _, e := range edges {
		if n := len(open); n > 0 && e.at > last {
			open[n-1].Self += e.at - last
		}
		last = e.at
		if e.open {
			open = append(open, e.s)
			continue
		}
		for i := len(open) - 1; i >= 0; i-- {
			if open[i] == e.s {
				open = append(open[:i], open[i+1:]...)
				break
			}
		}
	}
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// opTotals sums, per operation, the calls and the inclusive and self time of
// the spans that belong to a request.
type opTotal struct {
	Calls  int64
	Incl   int64
	SelfNS int64
}

func sumByOp(spans []span) map[string]opTotal {
	out := make(map[string]opTotal)
	for i := range spans {
		s := &spans[i]
		if s.Req < 0 || (s.Parent < 0 && s.Op != opClientQuery) {
			continue
		}
		t := out[s.Op]
		t.Calls++
		t.Incl += s.End - s.Start
		t.SelfNS += s.Self
		out[s.Op] = t
	}
	return out
}

// tracedStore decorates the node's outermost store. Embedding the concrete
// *cache.Peered forwards everything the engine and the mtier server discover
// by type assertion (Local, GetInfo, PeerStats, Shards); only the timed
// methods are overridden.
type tracedStore struct {
	*cache.Peered
	tr *tracer
}

func (s *tracedStore) Get(k cache.Key) (*chunk.Chunk, bool) {
	defer s.tr.record(opCacheGet, s.tr.begin())
	return s.Peered.Get(k)
}

func (s *tracedStore) Pin(k cache.Key) bool {
	defer s.tr.record(opCachePin, s.tr.begin())
	return s.Peered.Pin(k)
}

func (s *tracedStore) Reinforce(keys []cache.Key, benefit float64) {
	defer s.tr.record(opCacheReinf, s.tr.begin())
	s.Peered.Reinforce(keys, benefit)
}

func (s *tracedStore) Insert(k cache.Key, data *chunk.Chunk, opts ...cache.InsertOption) bool {
	defer s.tr.record(opCacheInsert, s.tr.begin())
	return s.Peered.Insert(k, data, opts...)
}

func (s *tracedStore) PeerFill(ctx context.Context, k cache.Key) (*chunk.Chunk, bool) {
	defer s.tr.record(opCacheFill, s.tr.begin())
	return s.Peered.PeerFill(ctx, k)
}

// tracedStrategy decorates the lookup strategy. Unwrap lets
// strategy.AsCostEstimator reach VCMC's CostEstimate, so the recycler keeps
// pricing through the decorator.
type tracedStrategy struct {
	strategy.Strategy
	tr *tracer
}

func (s *tracedStrategy) Unwrap() strategy.Strategy { return s.Strategy }

func (s *tracedStrategy) Find(gb lattice.ID, num int) (*strategy.Plan, bool, error) {
	defer s.tr.record(opStratFind, s.tr.begin())
	p, ok, err := s.Strategy.Find(gb, num)
	if ok && s.tr.on.Load() {
		s.tr.findHits.Add(1)
	}
	return p, ok, err
}

func (s *tracedStrategy) OnInsert(e *cache.Entry) {
	defer s.tr.record(opStratInsert, s.tr.begin())
	s.Strategy.OnInsert(e)
}

func (s *tracedStrategy) OnEvent(ev cache.Event) {
	defer s.tr.record(opStratEvent, s.tr.begin())
	s.Strategy.OnEvent(ev)
}

// tracedBackend decorates the remote backend client, inside the breaker.
type tracedBackend struct {
	backend.Backend
	tr *tracer
}

func (b *tracedBackend) ComputeChunks(ctx context.Context, gb lattice.ID, nums []int) ([]*chunk.Chunk, backend.Stats, error) {
	defer b.tr.record(opBackendComp, b.tr.begin())
	chunks, st, err := b.Backend.ComputeChunks(ctx, gb, nums)
	if err != nil {
		b.tr.backendErrors.Add(1)
		return chunks, st, err
	}
	b.tr.mu.Lock()
	for _, c := range chunks {
		if len(b.tr.codecSample) >= codecSampleMax {
			break
		}
		if c.Cells() > 0 {
			b.tr.codecSample = append(b.tr.codecSample, c)
		}
	}
	b.tr.mu.Unlock()
	if b.tr.on.Load() {
		b.tr.backendChunks.Add(int64(len(chunks)))
		b.tr.backendTuples.Add(st.TuplesScanned)
		b.tr.backendWallNS.Add(int64(st.Wall))
	}
	return chunks, st, nil
}

func (b *tracedBackend) EstimateScans(ctx context.Context, gb lattice.ID, nums []int) ([]int64, error) {
	defer b.tr.record(opBackendEst, b.tr.begin())
	return b.Backend.EstimateScans(ctx, gb, nums)
}

// tracedPeer decorates one peer connection.
type tracedPeer struct {
	cache.Peer
	tr *tracer
}

func (p *tracedPeer) Get(ctx context.Context, k cache.Key) (*chunk.Chunk, cache.Class, float64, bool, error) {
	defer p.tr.record(opPeerGet, p.tr.begin())
	return p.Peer.Get(ctx, k)
}

func (p *tracedPeer) Put(ctx context.Context, k cache.Key, data *chunk.Chunk, cl cache.Class, benefit float64) error {
	defer p.tr.record(opPeerPut, p.tr.begin())
	return p.Peer.Put(ctx, k, data, cl, benefit)
}
