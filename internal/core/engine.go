package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"aggcache/internal/backend"
	"aggcache/internal/cache"
	"aggcache/internal/chunk"
	"aggcache/internal/lattice"
	"aggcache/internal/obs"
	"aggcache/internal/sizer"
	"aggcache/internal/strategy"
)

// options collects the engine tunables; construct through the With…
// functional options on New.
type options struct {
	recycle           bool
	recycleMinBenefit float64
	disableReinforce  bool
	metrics           *obs.EngineMetrics
}

// Option tunes the engine at construction time. Options are applied in
// order; later options win.
type Option func(*options)

// resolveOptions applies opts over the defaults.
func resolveOptions(opts []Option) options {
	o := options{recycleMinBenefit: DefaultRecycleMinBenefit}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// backendPenalty scales backend tuples into benefit cost units relative to
// in-cache aggregation — the paper measured backend computation to be about
// 8× slower (§7.1).
const backendPenalty = 8

// connectCost is the per-backend-request fixed benefit surcharge in cost
// units (tuples-equivalent).
const connectCost = 4000

// DefaultRecycleMinBenefit is the admission threshold for recycled
// intermediates, in recompute-cost units (tuples scanned) saved per byte
// retained. A chunk's footprint is ≈24 bytes per cell, so the default admits
// interior nodes that fold ≥24 input cells into each output cell. That bar is
// deliberately high: a recycled chunk displaces its own size in resident
// chunks, and a typical non-speculative computed resident is worth on the
// order of one cost unit per byte (it was derived by scanning a few times its
// own cells), so only intermediates at least that valuable should speculate.
// Sweeping the threshold on ad-hoc multi-level streams (bench "recycle")
// shows response time improving monotonically from 0.125 up to ≈1.0 and
// plateauing there — permissive thresholds admit copy-through nodes whose
// displacement of proven residents costs more than their reuse saves.
const DefaultRecycleMinBenefit = 1.0

// WithRecycling(true) enables benefit-driven recycling of intermediate
// aggregates: every interior plan node of an in-cache aggregation is
// scored in O(1) via the strategy's CostEstimate and, when the recompute
// cost it saves per byte clears DefaultRecycleMinBenefit,
// materialized and admitted to the cache as a computed-class chunk; every
// other interior node is never built (see Engine.rollInto). Off by default:
// the paper's engine caches only the newly computed result chunk.
func WithRecycling(on bool) Option {
	return func(o *options) { o.recycle = on }
}

// WithResultCache does nothing.
//
// Deprecated: there is no result cache above the chunk cache. A repeated or
// contained query is a present-chunk hit on the chunks its first run left
// resident. The option stays only for callers that still pass it.
func WithResultCache(entries int) Option {
	return func(*options) {}
}

// WithReinforce(false) turns off group reinforcement (§6.3 second bullet);
// used by the ablation experiments. On by default.
func WithReinforce(on bool) Option {
	return func(o *options) { o.disableReinforce = !on }
}

// WithMetrics makes the engine count into m — a bundle registered with
// obs.NewEngineMetrics, so /metrics exports what Stats reports. Without it
// the engine counts into an unregistered bundle of its own.
func WithMetrics(m obs.EngineMetrics) Option {
	return func(o *options) { o.metrics = &m }
}

// ErrBackendUnavailable is the typed error a query fails fast with when it
// needs the backend but the backend is unreachable — the circuit breaker is
// open, or the remote client exhausted its redial/retry budget. Queries
// answerable from the cache alone (complete hits and in-cache aggregation)
// still succeed in that state: the engine's cache-only degraded mode.
// Match with errors.Is.
var ErrBackendUnavailable = backend.ErrUnavailable

// Stats accumulates engine activity across queries. Every field is read
// from the engine's metrics bundle (Engine.Stats), so it equals the matching
// aggcache_engine_* series when the bundle is registered.
type Stats struct {
	Queries        int64
	CompleteHits   int64
	BackendQueries int64
	BackendTuples  int64
	AggTuples      int64
	BudgetMisses   int64
	// PeerChunks counts missing chunks served by a cluster peer instead of
	// the backend.
	PeerChunks int64
	// DegradedHits counts queries answered from the cache alone while the
	// backend circuit breaker was not closed.
	DegradedHits int64
	// Unavailable counts queries that failed with ErrBackendUnavailable.
	Unavailable int64
	// Recycled counts intermediate aggregates the benefit heuristic admitted
	// to the cache; RecycleRejected counts the interior nodes it declined.
	Recycled        int64
	RecycleRejected int64
	// ResultCacheHits is always 0.
	//
	// Deprecated: there is no result cache; see WithResultCache.
	ResultCacheHits int64
	Breakdown       Breakdown
}

// Engine is the aggregate aware cache manager. It is safe for concurrent
// use, and queries genuinely overlap: the engine itself holds no lock — the
// cache store and the lookup strategy each synchronize internally (a sharded
// store stripes its locking per shard, so concurrent queries touching
// different shards never contend). The backend round trip and the in-cache
// aggregation run with the plan's leaves pinned so the replacement policy
// cannot evict an input mid-flight. Identical concurrent backend chunk
// fetches are deduplicated through flights, and independent planned chunks
// of one query aggregate in parallel across a GOMAXPROCS-bounded worker
// pool.
type Engine struct {
	grid  *chunk.Grid
	lat   *lattice.Lattice
	back  backend.Backend
	sizes sizer.Sizer
	opts  options

	cache cache.Store
	strat strategy.Strategy

	flights flightGroup
	// met is the engine's one set of counters: Stats reads it, and /metrics
	// exports it when WithMetrics supplied a registered bundle. All handles
	// are atomics, so recording needs no lock and an ops scraper can read
	// concurrently with queries in flight.
	met obs.EngineMetrics
	// avail reports the backend circuit breaker's state when the backend
	// (or a wrapper in its chain) carries one; nil otherwise. Used for
	// degraded-mode accounting and health reporting.
	avail interface{ State() backend.BreakerState }
	// peers is the cache store's cluster tier when the store provides one
	// (cache.Peered); nil otherwise. Missing chunks are offered to the
	// key's ring owner before the backend fetch.
	peers PeerFiller
	// est is the strategy's O(1) benefit API when it offers one (VCMC, also
	// through decorators); nil otherwise. The recycler falls back to the
	// node's exact subtree scan count without it.
	est strategy.CostEstimator
	// recycleSeen is the recycler's one-shot admission ghost set (see
	// recycleTry); guarded by recycleMu, nil unless recycling is on.
	recycleMu   sync.Mutex
	recycleSeen map[cache.Key]struct{}
}

// PeerFiller is the optional cluster tier a cache store can expose:
// PeerFill asks the chunk key's ring owner for the payload, installing it in
// the local tier on success. false means fall through to the backend.
// cache.Peered implements it; the engine detects it on the store at New and
// calls it only for the chunks whose flight it leads, so an implementation
// needs no deduplication of its own.
type PeerFiller interface {
	PeerFill(ctx context.Context, k cache.Key) (*chunk.Chunk, bool)
}

// New wires a cache store, a lookup strategy and a backend into an engine,
// tuned by functional options (WithRecycling, WithMetrics, …). The
// strategy is registered as the store's listener; the store must be empty
// (or have been populated through the same strategy).
func New(g *chunk.Grid, c cache.Store, s strategy.Strategy, b backend.Backend, sizes sizer.Sizer, opts ...Option) (*Engine, error) {
	if g == nil || c == nil || s == nil || b == nil || sizes == nil {
		return nil, errors.New("core: all of grid, cache, strategy, backend and sizer are required")
	}
	o := resolveOptions(opts)
	e := &Engine{
		grid:    g,
		lat:     g.Lattice(),
		cache:   c,
		strat:   s,
		back:    b,
		sizes:   sizes,
		opts:    o,
		flights: flightGroup{m: make(map[flightKey]*flightCall)},
	}
	c.SetListener(s)
	if o.metrics != nil {
		e.met = *o.metrics
	} else {
		e.met = obs.NewEngineMetrics(nil)
	}
	if a, ok := b.(interface{ State() backend.BreakerState }); ok {
		e.avail = a
	}
	if p, ok := c.(PeerFiller); ok {
		e.peers = p
	}
	if est, ok := strategy.AsCostEstimator(s); ok {
		e.est = est
	}
	if o.recycle {
		e.recycleSeen = make(map[cache.Key]struct{})
	}
	return e, nil
}

// Grid returns the engine's chunk grid.
func (e *Engine) Grid() *chunk.Grid { return e.grid }

// Cache returns the underlying cache store (for inspection; treat as
// read-only).
func (e *Engine) Cache() cache.Store { return e.cache }

// Strategy returns the lookup strategy.
func (e *Engine) Strategy() strategy.Strategy { return e.strat }

// Stats returns the cumulative counters, read from the metrics bundle; the
// Breakdown is the phase histograms' sums.
func (e *Engine) Stats() Stats {
	m := &e.met
	return Stats{
		Queries:         m.Queries.Value(),
		CompleteHits:    m.CompleteHits.Value(),
		BackendQueries:  m.BackendRequests.Value(),
		BackendTuples:   m.BackendTuples.Value(),
		AggTuples:       m.AggregatedTuples.Value(),
		BudgetMisses:    m.BudgetMisses.Value(),
		PeerChunks:      m.ChunksPeerFilled.Value(),
		DegradedHits:    m.DegradedAnswers.Value(),
		Unavailable:     m.BackendUnavailable.Value(),
		Recycled:        m.RecycledChunks.Value(),
		RecycleRejected: m.RecycleRejected.Value(),
		Breakdown: Breakdown{
			Lookup:    m.Lookup.Sum(),
			Aggregate: m.Aggregate.Sum(),
			Update:    m.Update.Sum(),
			Backend:   m.Backend.Sum(),
		},
	}
}

// TierStats returns the local store's tier counters (cold-tier hits,
// demotions, compression footprint) when that store — directly or behind a
// Peered wrapper — has a cold tier; ok=false for a flat store. A cold read
// shows up in plans as a cache hit whose decode cost the plan does not see,
// so these counters are what attributes that cost.
func (e *Engine) TierStats() (cache.TierStats, bool) {
	if s := e.local(); s != nil {
		ts := s.TierStats()
		return ts, ts.ColdCapacity > 0
	}
	return cache.TierStats{}, false
}

// local returns the local store under the engine's cache, unwrapping a
// Peered ring (or any decorator with a Local method); nil when the innermost
// store is not a *cache.Sharded.
func (e *Engine) local() *cache.Sharded {
	st := e.cache
	for {
		if s, ok := st.(*cache.Sharded); ok {
			return s
		}
		u, ok := st.(interface{ Local() cache.Store })
		if !ok {
			return nil
		}
		st = u.Local()
	}
}

// Degraded reports whether the engine is in cache-only degraded mode: its
// backend carries a circuit breaker and the breaker is not closed. In that
// state cache-computable queries still succeed and backend-requiring
// queries fail fast with ErrBackendUnavailable.
func (e *Engine) Degraded() bool {
	return e.avail != nil && e.avail.State() != backend.BreakerClosed
}

// planned is one chunk of the query answerable from the cache, with the
// pinned cache keys of its plan's leaves.
type planned struct {
	idx    int
	plan   *strategy.Plan
	leaves []cache.Key
}

// computed is an interior plan result the recycler admitted, destined for
// the cache. benefit is the recompute cost the copy saves (tuples scanned),
// which the replacement policy turns into a clock weight.
type computed struct {
	key     cache.Key
	data    *chunk.Chunk
	benefit float64
}

// aggOut is the result of materializing one plan outside the cache lock.
type aggOut struct {
	data     *chunk.Chunk
	tuples   int64 // cells actually scanned
	inter    []computed
	rejected int64 // interior nodes the recycler declined, hence never built
	err      error
}

// Execute answers one query: probe the cache per chunk, batch the misses to
// the backend, aggregate the computable chunks in the cache, and assemble
// the answer. Concurrent calls overlap; see the Engine doc for the locking
// structure.
//
// The backend phase (and follower waits on shared flights) aborts promptly
// when ctx is cancelled or its deadline passes, so a hung backend hangs no
// query past its budget. Cache-only work is not interrupted — it completes
// in microseconds and an answer already paid for is worth returning.
func (e *Engine) Execute(ctx context.Context, q Query) (*Result, error) {
	res, err := e.execute(ctx, q)
	if err != nil {
		e.met.QueryErrors.Inc()
		switch {
		case errors.Is(err, ErrBackendUnavailable):
			e.met.BackendUnavailable.Inc()
		case errors.Is(err, context.DeadlineExceeded):
			e.met.DeadlineExceeded.Inc()
		}
	}
	return res, err
}

// execute is Execute without the error accounting wrapper.
func (e *Engine) execute(ctx context.Context, q Query) (*Result, error) {
	nq, err := q.normalize(e.grid)
	if err != nil {
		return nil, err
	}
	nums := nq.chunkNumbers(e.grid)
	res := &Result{Query: nq, Chunks: make([]*chunk.Chunk, len(nums))}

	var plans []*planned // answerable from cache; leaves pinned
	var missing []int
	var missingIdx []int

	// Whatever happens below, release every pin still held on exit.
	defer func() {
		for _, p := range plans {
			e.unpinAll(p.leaves)
		}
	}()

	// Phase 1 — lookup: one strategy probe per chunk (the paper's cache
	// lookup problem), pinning each plan's leaves so later insertions —
	// ours or a concurrent query's — cannot evict an input.
	lookupStart := time.Now()
	var lookupErr error
	for i, num := range nums {
		p, err := e.lookup(nq.GB, num)
		switch {
		case errors.Is(err, strategy.ErrBudget):
			res.BudgetExceeded = true
			e.met.BudgetMisses.Inc()
		case err != nil:
			lookupErr = fmt.Errorf("core: lookup: %w", err)
		}
		if lookupErr != nil {
			break
		}
		if p == nil {
			missing = append(missing, num)
			missingIdx = append(missingIdx, i)
			continue
		}
		p.idx = i
		plans = append(plans, p)
	}
	if lookupErr != nil {
		return nil, lookupErr
	}
	res.Breakdown.Lookup = time.Since(lookupStart)
	res.HitChunks = len(plans)
	res.MissChunks = len(missing)
	res.CompleteHit = len(missing) == 0
	for _, p := range plans {
		if !p.plan.Present {
			res.AggChunks++
		}
	}

	// Phase 2 — backend: one batched request for all missing chunks (the
	// paper issues one SQL statement for the missing chunk numbers),
	// deduplicated against identical in-flight fetches.
	if len(missing) > 0 {
		if err := e.fetchMissing(ctx, nq.GB, missing, missingIdx, res, 0); err != nil {
			return nil, err
		}
	}

	// Phase 3 — aggregate computable chunks. 3a snapshots the pinned leaf
	// payloads (chunk payloads are immutable, so the pointers stay valid
	// after each Get returns); 3b aggregates across a bounded worker pool;
	// 3c installs the computed chunks and reinforces their input groups.
	if len(plans) > 0 {
		leafData := make(map[cache.Key]*chunk.Chunk)
		var snapErr error
		for _, p := range plans {
			if snapErr = e.snapshotLeaves(p.plan, leafData); snapErr != nil {
				break
			}
		}
		if snapErr != nil {
			return nil, snapErr
		}

		aggStart := time.Now()
		outs := make([]aggOut, len(plans))
		if workers := min(len(plans), runtime.GOMAXPROCS(0)); workers > 1 {
			var cursor atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := int(cursor.Add(1)) - 1
						if i >= len(plans) {
							return
						}
						outs[i] = e.runPlan(plans[i].plan, leafData)
					}
				}()
			}
			wg.Wait()
		} else {
			for i, p := range plans {
				outs[i] = e.runPlan(p.plan, leafData)
			}
		}
		res.Breakdown.Aggregate = time.Since(aggStart)
		for _, out := range outs {
			if out.err != nil {
				return nil, out.err
			}
		}

		m0 := e.strat.Maintenance()
		var rejected int64
		for i, out := range outs {
			p := plans[i]
			res.Chunks[p.idx] = out.data
			res.AggregatedTuples += out.tuples
			if p.plan.Present {
				continue
			}
			rejected += out.rejected
			for _, ic := range out.inter {
				// Recycled intermediates enter as computed-class residents
				// with the Recycled mark: they can never displace the
				// backend-class hot set, and strategies maintain them with
				// presence-only (O(1)) bookkeeping.
				if e.cache.Insert(ic.key, ic.data, cache.AsRecycled(ic.benefit)) {
					res.RecycledChunks++
					e.met.RecycledChunks.Inc()
				}
			}
			benefit := float64(out.tuples)
			rootKey := cache.Key{GB: nq.GB, Num: int32(p.plan.Num)}
			e.cache.Insert(rootKey, out.data, cache.AsComputed(benefit))
			if !e.opts.disableReinforce {
				// The root served the query that created it, so it counts as
				// reused on arrival: reinforcing it alongside the leaves lifts
				// it out of the promote policy's probationary tier, leaving
				// only speculative recycled intermediates probationary.
				e.cache.Reinforce(append(p.leaves, rootKey), benefit)
			}
		}
		if rejected > 0 {
			e.met.RecycleRejected.Add(rejected)
		}
		m1 := e.strat.Maintenance()
		// The delta attributes this query's insert maintenance (Figure 10's
		// "update" component). With other queries inserting concurrently the
		// window can include some of their work, so under concurrency the
		// attribution is approximate; the cumulative engine totals stay
		// exact.
		res.Breakdown.Update += m1.Sub(m0).Time
	}

	if nq.MemberRanges != nil {
		for i, c := range res.Chunks {
			res.Chunks[i] = e.grid.Slice(c, nq.MemberRanges)
		}
	}
	if res.CompleteHit && e.Degraded() {
		// The backend is unreachable but the cache answered anyway — the
		// availability win degraded mode exists for.
		res.Degraded = true
		e.met.DegradedAnswers.Inc()
	}
	e.observe(res)
	return res, nil
}

// observe counts one answered query. Every handle is a preallocated atomic,
// so the whole call is branch-and-add; phase histograms only record phases
// the query actually ran, so quantiles are not diluted by zeros (a phase
// that did not run took no time, so the sums Stats reads are unaffected).
func (e *Engine) observe(res *Result) {
	e.met.Queries.Inc()
	if res.CompleteHit {
		e.met.CompleteHits.Inc()
	}
	e.met.ChunksHit.Add(int64(res.HitChunks - res.AggChunks))
	e.met.ChunksAggregated.Add(int64(res.AggChunks))
	e.met.ChunksFetched.Add(int64(res.MissChunks - res.PeerChunks))
	e.met.ChunksPeerFilled.Add(int64(res.PeerChunks))
	e.met.AggregatedTuples.Add(res.AggregatedTuples)
	e.met.Lookup.Observe(res.Breakdown.Lookup)
	if res.HitChunks > 0 {
		e.met.Aggregate.Observe(res.Breakdown.Aggregate)
	}
	if res.Breakdown.Update > 0 {
		e.met.Update.Observe(res.Breakdown.Update)
	}
	if res.MissChunks > 0 {
		e.met.Backend.Observe(res.Breakdown.Backend)
	}
	e.met.Query.Observe(res.Breakdown.Total())
}

// lookup plans chunk num of gb and pins the plan's leaves, or returns nil
// when the chunk must be fetched. A leaf the strategy believed resident can
// leave between the lookup and the pin: the strategy's summary state and the
// store are updated under different locks. The eviction's listener event
// has usually reached the strategy by the time the pin fails (a hot
// eviction's always has: it fires under the stripe lock the pin then takes),
// so one more lookup plans around the leaf. Only when that plan cannot be
// pinned either is the chunk fetched.
func (e *Engine) lookup(gb lattice.ID, num int) (*planned, error) {
	for try := 0; try < 2; try++ {
		plan, found, err := e.strat.Find(gb, num)
		if err != nil || !found {
			return nil, err
		}
		if leaves := plan.Leaves(nil); e.pinAll(leaves) {
			return &planned{plan: plan, leaves: leaves}, nil
		}
	}
	return nil, nil
}

// pinAll pins every key, rolling back already-taken pins on the first
// failure.
func (e *Engine) pinAll(keys []cache.Key) bool {
	for i, k := range keys {
		if !e.cache.Pin(k) {
			for _, u := range keys[:i] {
				e.cache.Unpin(u)
			}
			return false
		}
	}
	return true
}

// unpinAll releases one pin per key.
func (e *Engine) unpinAll(keys []cache.Key) {
	for _, k := range keys {
		e.cache.Unpin(k)
	}
}

// snapshotLeaves records the payload of every present leaf of the plan,
// counting one cache hit per leaf occurrence as the serial engine did. The
// leaves are pinned, so a missing one is a bug.
func (e *Engine) snapshotLeaves(p *strategy.Plan, m map[cache.Key]*chunk.Chunk) error {
	if p.Present {
		k := cache.Key{GB: p.GB, Num: int32(p.Num)}
		data, ok := e.cache.Get(k)
		if !ok {
			return fmt.Errorf("core: plan leaf %v vanished from the cache", k)
		}
		m[k] = data
		return nil
	}
	for _, in := range p.Inputs {
		if err := e.snapshotLeaves(in, m); err != nil {
			return err
		}
	}
	return nil
}

// runPlan materializes one plan from snapshotted leaf payloads — pure
// computation over immutable chunks, touching no shared state. A panic
// becomes the plan's error: runPlan runs on the aggregation workers, where no
// handler's guard sits above it, and the query's deferred unpin releases its
// leaves when execute returns the error.
func (e *Engine) runPlan(p *strategy.Plan, leafData map[cache.Key]*chunk.Chunk) (out aggOut) {
	defer func() {
		if r := recover(); r != nil {
			out = aggOut{err: fmt.Errorf("core: aggregation panicked: %v", r)}
		}
	}()
	if p.Present {
		k := cache.Key{GB: p.GB, Num: int32(p.Num)}
		if out.data = leafData[k]; out.data == nil {
			out.err = fmt.Errorf("core: plan leaf %v vanished from the cache", k)
		}
		return out
	}
	out.data, out.tuples, out.err = e.materialize(p, leafData, &out)
	return out
}

// materialize builds plan node p into a fresh chunk — one that outlives the
// plan run: the root, which lands in the Result and the cache, or an interior
// node the recycler admitted — by folding its whole subtree into one pooled
// accumulator. It returns the chunk and the cells scanned to produce it.
func (e *Engine) materialize(p *strategy.Plan, leafData map[cache.Key]*chunk.Chunk, out *aggOut) (*chunk.Chunk, int64, error) {
	cm := e.grid.GetCellMap(p.GB, p.Num)
	defer chunk.PutCellMap(cm)
	var tuples int64
	for _, in := range p.Inputs {
		n, err := e.rollInto(cm, p, in, leafData, out)
		if err != nil {
			return nil, 0, err
		}
		tuples += n
	}
	return cm.Build(p.GB, p.Num), tuples, nil
}

// rollInto folds the subtree rooted at plan node n into cm, the accumulator
// of n's nearest materialized ancestor dst, and returns the cells scanned.
// An intermediate is either worth keeping or it is pipelined, never built and
// discarded: the recycler prices an interior node before it exists, an
// admitted node is materialized (collected bottom-up into out.inter for
// insertion) and rolled up as one chunk, and every other interior node is
// skipped — roll-up is associative, so its pinned leaves go straight into cm
// however many lattice levels lie between.
func (e *Engine) rollInto(cm *chunk.CellMap, dst, n *strategy.Plan, leafData map[cache.Key]*chunk.Chunk, out *aggOut) (int64, error) {
	k := cache.Key{GB: n.GB, Num: int32(n.Num)}
	var src *chunk.Chunk
	var tuples int64
	if n.Present {
		if src = leafData[k]; src == nil {
			return 0, fmt.Errorf("core: plan leaf %v vanished from the cache", k)
		}
	} else if admit, benefit := e.recycleScore(n, leafData); admit {
		var err error
		if src, tuples, err = e.materialize(n, leafData, out); err != nil {
			return 0, err
		}
		out.inter = append(out.inter, computed{key: k, data: src, benefit: benefit})
	} else {
		if e.opts.recycle {
			out.rejected++
		}
		for _, in := range n.Inputs {
			t, err := e.rollInto(cm, dst, in, leafData, out)
			if err != nil {
				return 0, err
			}
			tuples += t
		}
		return tuples, nil
	}
	scanned, err := e.grid.RollUpInto(cm, dst.GB, dst.Num, src)
	if err != nil {
		return 0, fmt.Errorf("core: aggregation: %w", err)
	}
	return tuples + int64(scanned), nil
}
