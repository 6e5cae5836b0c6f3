// Package core is the middle tier of the paper's three-tier system: an
// aggregate aware ("active") chunk cache. A query is analyzed into the
// chunks it needs; each chunk is answered from the cache — directly, or by
// aggregating other cached chunks along a lattice path chosen by the lookup
// strategy — and only the remaining misses are computed at the backend with
// a single batched request (§1, §2).
package core

import (
	"fmt"
	"time"

	"aggcache/internal/chunk"
	"aggcache/internal/lattice"
)

// Query asks for the measure aggregated to group-by GB over a rectangular
// chunk region. Lo/Hi are half-open per-dimension chunk coordinate bounds;
// nil means the full extent on every dimension. MemberRanges optionally
// trims the chunk-aligned answer to exact member bounds (used by the query
// language front end).
type Query struct {
	GB           lattice.ID
	Lo, Hi       []int32
	MemberRanges []chunk.Range
}

// WholeGroupBy returns a query covering every chunk of gb.
func WholeGroupBy(gb lattice.ID) Query { return Query{GB: gb} }

// normalize validates q against the grid and fills in full-extent bounds.
func (q Query) normalize(g *chunk.Grid) (Query, error) {
	lat := g.Lattice()
	if int(q.GB) < 0 || int(q.GB) >= lat.NumNodes() {
		return q, fmt.Errorf("core: group-by %d out of range", q.GB)
	}
	nd := g.Schema().NumDims()
	lv := lat.Level(q.GB)
	if q.Lo == nil && q.Hi == nil {
		q.Lo = make([]int32, nd)
		q.Hi = make([]int32, nd)
		for d := 0; d < nd; d++ {
			q.Hi[d] = int32(g.ChunkCount(d, lv[d]))
		}
		return q, nil
	}
	if len(q.Lo) != nd || len(q.Hi) != nd {
		return q, fmt.Errorf("core: query bounds have %d/%d dims, want %d", len(q.Lo), len(q.Hi), nd)
	}
	for d := 0; d < nd; d++ {
		max := int32(g.ChunkCount(d, lv[d]))
		if q.Lo[d] < 0 || q.Hi[d] > max || q.Lo[d] >= q.Hi[d] {
			return q, fmt.Errorf("core: dimension %d bounds [%d,%d) outside [0,%d)", d, q.Lo[d], q.Hi[d], max)
		}
	}
	if q.MemberRanges != nil && len(q.MemberRanges) != nd {
		return q, fmt.Errorf("core: MemberRanges has %d dims, want %d", len(q.MemberRanges), nd)
	}
	return q, nil
}

// chunkNumbers enumerates the chunk numbers covered by the (normalized)
// query rectangle.
func (q Query) chunkNumbers(g *chunk.Grid) []int {
	nd := len(q.Lo)
	total := 1
	for d := 0; d < nd; d++ {
		total *= int(q.Hi[d] - q.Lo[d])
	}
	nums := make([]int, 0, total)
	cur := make([]int32, nd)
	copy(cur, q.Lo)
	for {
		nums = append(nums, g.Number(q.GB, cur))
		d := nd - 1
		for d >= 0 {
			cur[d]++
			if cur[d] < q.Hi[d] {
				break
			}
			cur[d] = q.Lo[d]
			d--
		}
		if d < 0 {
			return nums
		}
	}
}

// NumChunks returns how many chunks the query touches once normalized
// against grid g.
func (q Query) NumChunks(g *chunk.Grid) (int, error) {
	n, err := q.normalize(g)
	if err != nil {
		return 0, err
	}
	return len(n.chunkNumbers(g)), nil
}

// Breakdown is the cost of answering one query, split the way Figure 10
// splits it, plus the backend component for cache misses.
type Breakdown struct {
	// Lookup is the time spent deciding, per chunk, whether the cache can
	// answer (strategy Find calls).
	Lookup time.Duration
	// Aggregate is the time spent aggregating cached chunks.
	Aggregate time.Duration
	// Update is the time spent maintaining strategy state (virtual counts,
	// costs) while inserting and evicting chunks.
	Update time.Duration
	// Backend is the time attributed to backend execution: real compute plus
	// the latency model's simulated component.
	Backend time.Duration
}

// Total returns the full response time.
func (b Breakdown) Total() time.Duration {
	return b.Lookup + b.Aggregate + b.Update + b.Backend
}

// Add accumulates another breakdown into b.
func (b *Breakdown) Add(o Breakdown) {
	b.Lookup += o.Lookup
	b.Aggregate += o.Aggregate
	b.Update += o.Update
	b.Backend += o.Backend
}

// Scale returns b divided by n (for averaging); n must be positive.
func (b Breakdown) Scale(n int) Breakdown {
	if n <= 0 {
		panic("core: Scale by non-positive count")
	}
	return Breakdown{
		Lookup:    b.Lookup / time.Duration(n),
		Aggregate: b.Aggregate / time.Duration(n),
		Update:    b.Update / time.Duration(n),
		Backend:   b.Backend / time.Duration(n),
	}
}

// String formats the breakdown compactly.
func (b Breakdown) String() string {
	return fmt.Sprintf("lookup=%v agg=%v update=%v backend=%v total=%v",
		b.Lookup, b.Aggregate, b.Update, b.Backend, b.Total())
}

// Result is one answered query.
type Result struct {
	Query Query
	// Chunks holds one payload per requested chunk, in enumeration order,
	// trimmed to MemberRanges when set.
	Chunks []*chunk.Chunk
	// Breakdown splits the response time (Figure 10): cache lookup,
	// aggregation, strategy maintenance, backend.
	Breakdown Breakdown
	// CompleteHit reports that no backend access was needed — the metric of
	// Figure 7 and Table 4.
	CompleteHit bool
	// HitChunks counts chunks answered from the cache (present or
	// aggregated); MissChunks counts chunks computed at the backend.
	HitChunks, MissChunks int
	// PeerChunks counts the subset of MissChunks served by a cluster peer
	// instead of the backend (the store is a cache.Peered and the key's ring
	// owner held the chunk). A peer-filled query is still not a CompleteHit:
	// the chunk left this node, just not the cache group.
	PeerChunks int
	// AggChunks counts the subset of HitChunks that required in-cache
	// aggregation (the rest were resident verbatim).
	AggChunks int
	// AggregatedTuples counts the tuples in-cache aggregation actually
	// scanned: the cells of every chunk rolled into a materialized plan node
	// (levels the executor skips cost nothing). A VCMC plan's Cost prices the
	// hop-by-hop path and is an upper bound on this.
	AggregatedTuples int64
	// BackendTuples counts tuples scanned at the backend.
	BackendTuples int64
	// BudgetExceeded reports that the strategy gave up on at least one
	// lookup (budget-limited ESM/ESMC) and the chunk went to the backend.
	BudgetExceeded bool
	// Degraded reports that the answer was produced from the cache alone
	// while the backend circuit breaker was open or half-open — correct and
	// complete, but served in cache-only degraded mode.
	Degraded bool
	// RecycledChunks counts intermediate aggregates this query's plans (or
	// backend-fill roll-ups) computed that the benefit heuristic admitted to
	// the cache for reuse by later queries.
	RecycledChunks int
}

// Cells returns the total number of cells across the result's chunks.
func (r *Result) Cells() int {
	n := 0
	for _, c := range r.Chunks {
		n += c.Cells()
	}
	return n
}

// Total returns the sum of the measure over the result.
func (r *Result) Total() float64 {
	t := 0.0
	for _, c := range r.Chunks {
		t += c.Total()
	}
	return t
}
