package strategy

import (
	"fmt"
	"math"
	"sync"

	"aggcache/internal/cache"
	"aggcache/internal/chunk"
	"aggcache/internal/lattice"
	"aggcache/internal/sizer"
)

// infCost marks a chunk that is not computable from the cache.
const infCost = math.MaxInt64

// VCMC is the cost-based virtual count method (§5.2). In addition to VCM's
// counts it maintains, per chunk, the least cost of computing it from the
// cache (Cost array) and the lattice parent through which that least-cost
// path passes (BestParent array):
//
//	cost = 0                                   if the chunk is resident
//	     = min over parents P with a complete
//	       path:  Σ over the chunk's inputs c
//	       at P of (cost(c) + size(c))         otherwise
//
// Find is O(plan size): it just follows BestParent pointers. CostEstimate
// answers "how expensive would this chunk be?" in O(1) without aggregating —
// the hook the paper offers to a cost-based optimizer, which the engine's
// recycler uses to price interior plan nodes. Maintenance
// propagates on insert/evict whenever computability or least cost changes.
type VCMC struct {
	grid    *chunk.Grid
	lat     *lattice.Lattice
	sizes   sizer.Sizer
	mu      sync.RWMutex
	present *presence
	// silent marks recycled intermediates: resident (in present) but
	// excluded from count/cost bookkeeping, so the cost field stays a
	// consistent upper bound that never has to be re-derived when they
	// churn. recompute must ignore silent presence when assigning cost 0.
	silent *presence
	counts [][]int32
	costs  [][]int64
	best   [][]int16 // index into lat.Parents(gb); -1 none, -2 present
	maint  maintCounters
	// levelSum[gb] orders propagation: children always have a strictly
	// smaller sum, so processing pending nodes by descending sum recomputes
	// each affected chunk exactly once per maintenance operation.
	levelSum []int
	// Propagation scratch, owned by the write lock and reused across
	// operations so warm maintenance allocates nothing: pending[sum] is the
	// worklist of chunks at group-bys of that level sum, and mark[gb][num]
	// == epoch when the chunk is already queued by the current propagation.
	// None of it is summary state (Overhead does not count it).
	pending [][]nodeRef
	mark    [][]uint32
	epoch   uint32
}

// NewVCMC creates a VCMC strategy; sizes supplies the cost model's chunk
// sizes.
func NewVCMC(g *chunk.Grid, sizes sizer.Sizer) *VCMC {
	lat := g.Lattice()
	n := lat.NumNodes()
	s := &VCMC{
		grid:     g,
		lat:      lat,
		sizes:    sizes,
		present:  newPresence(g),
		silent:   newPresence(g),
		counts:   make([][]int32, n),
		costs:    make([][]int64, n),
		best:     make([][]int16, n),
		levelSum: make([]int, n),
		mark:     make([][]uint32, n),
	}
	for id := 0; id < n; id++ {
		for _, l := range lat.Level(lattice.ID(id)) {
			s.levelSum[id] += l
		}
	}
	s.pending = make([][]nodeRef, s.levelSum[lat.Base()]+1)
	for id := 0; id < n; id++ {
		nc := g.NumChunks(lattice.ID(id))
		s.counts[id] = make([]int32, nc)
		s.costs[id] = make([]int64, nc)
		s.best[id] = make([]int16, nc)
		s.mark[id] = make([]uint32, nc)
		for i := 0; i < nc; i++ {
			s.costs[id][i] = infCost
			s.best[id][i] = -1
		}
	}
	return s
}

// Name implements Strategy.
func (s *VCMC) Name() string { return "VCMC" }

// Count exposes a chunk's virtual count.
func (s *VCMC) Count(gb lattice.ID, num int) int32 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.counts[gb][num]
}

// CostEstimate returns the least cost (in tuples scanned) of computing the
// chunk from the cache, in constant time. ok is false when the chunk is not
// computable. A resident chunk costs 0.
func (s *VCMC) CostEstimate(gb lattice.ID, num int) (cost int64, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c := s.costs[gb][num]
	if c == infCost {
		return 0, false
	}
	return c, true
}

// Find implements Strategy, materializing the least-cost plan by following
// BestParent pointers. Concurrent Finds share the read lock.
func (s *VCMC) Find(gb lattice.ID, num int) (*Plan, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	plan := s.build(gb, num)
	return plan, plan != nil, nil
}

func (s *VCMC) build(gb lattice.ID, num int) *Plan {
	// Presence is checked before the count: recycled intermediates are
	// resident but excluded from count/cost bookkeeping, so a present chunk
	// may carry a zero count.
	if s.present.has(gb, num) {
		return &Plan{GB: gb, Num: num, Present: true}
	}
	if s.counts[gb][num] == 0 {
		return nil
	}
	// Prefer a parent whose input chunks are all resident — one roll-up step
	// over present chunks — when that is no worse than the stored least
	// cost. Recycled intermediates are excluded from the cost lattice, so
	// the best-parent pointer cannot know about them; this presence scan (a
	// handful of bit tests) lets plans exploit them anyway. The cost guard
	// keeps Find's minimum-cost guarantee: without silent residents the
	// all-present candidate is one of the paths the stored cost already
	// minimized over, and with them the stored cost is an upper bound the
	// candidate must beat or match.
	if p := presentStep(s.grid, s.present, s.sizes, s.costs[gb][num], gb, num); p != nil {
		return p
	}
	bp := s.best[gb][num]
	if bp < 0 {
		panic(fmt.Sprintf("strategy: VCMC computable chunk without best parent (gb %d chunk %d)", gb, num))
	}
	parent := s.lat.Parents(gb)[bp]
	r := s.grid.ParentRun(gb, num, int(s.lat.ParentDims(gb)[bp]))
	inputs := make([]*Plan, r.N)
	for i := range inputs {
		cn := r.At(i)
		if inputs[i] = s.build(parent, cn); inputs[i] == nil {
			panic(fmt.Sprintf("strategy: VCMC best-parent path broken at gb %d chunk %d", parent, cn))
		}
	}
	return &Plan{GB: gb, Num: num, Via: parent, Inputs: inputs, Cost: s.costs[gb][num]}
}

// OnInsert implements cache.Listener. Recycled intermediates get
// presence-only maintenance: they serve as Present plan nodes (and exact
// hits) but never enter the cost lattice, so admitting one is O(1) instead
// of a propagation over every affected descendant. The stored costs then
// describe the cache without its speculative entries — a consistent upper
// bound: plans that do route through a recycled chunk still stop at its
// presence and pay nothing.
func (s *VCMC) OnInsert(e *cache.Entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	timeMaint(&s.maint, func() {
		gb, num := e.Key.GB, int(e.Key.Num)
		s.present.set(gb, num)
		if e.Recycled {
			s.silent.set(gb, num)
			s.maint.bump(1)
			return
		}
		if s.recompute(gb, num) {
			s.propagate(gb, num)
		}
	})
}

// OnEvent implements cache.Listener: the eviction dual. A recycled entry
// never touched the cost lattice, so clearing its presence bits is the
// entire dual. A tier move (Demoted) leaves the chunk answerable through the
// store, so it is ignored here; the dual runs only when the chunk truly
// leaves (Evicted).
func (s *VCMC) OnEvent(ev cache.Event) {
	if ev.Answerable() {
		return
	}
	e := ev.Entry
	s.mu.Lock()
	defer s.mu.Unlock()
	timeMaint(&s.maint, func() {
		gb, num := e.Key.GB, int(e.Key.Num)
		s.present.clear(gb, num)
		if e.Recycled {
			s.silent.clear(gb, num)
			s.maint.bump(1)
			return
		}
		if s.recompute(gb, num) {
			s.propagate(gb, num)
		}
	})
}

// nodeRef identifies one chunk of one group-by during propagation.
type nodeRef struct {
	gb  lattice.ID
	num int
}

// propagate re-derives every child chunk affected by a computability or
// least-cost change of (gb, num). Pending nodes are processed in descending
// level-sum order, so each affected chunk is recomputed exactly once, after
// all of its parents have settled — avoiding the exponential re-derivation a
// naive depth-first walk would do through lattice diamonds. Children only
// ever join lists of a smaller sum than the one being drained, so every
// list is empty again when propagate returns.
func (s *VCMC) propagate(gb lattice.ID, num int) {
	if s.epoch++; s.epoch == 0 {
		// Wrapped: clear the marks so none can equal a future epoch.
		for _, m := range s.mark {
			clear(m)
		}
		s.epoch = 1
	}
	s.enqueueChildren(gb, num)
	for sum := s.levelSum[gb] - 1; sum >= 0; sum-- {
		list := s.pending[sum]
		for _, ref := range list {
			if s.recompute(ref.gb, ref.num) {
				s.enqueueChildren(ref.gb, ref.num)
			}
		}
		s.pending[sum] = list[:0]
	}
}

// enqueueChildren queues, once per propagation, the chunk each lattice child
// of gb aggregates chunk num into.
func (s *VCMC) enqueueChildren(gb lattice.ID, num int) {
	cdims := s.lat.ChildDims(gb)
	for i, child := range s.lat.Children(gb) {
		cn := s.grid.ChildStep(gb, num, int(cdims[i]))
		if s.mark[child][cn] == s.epoch {
			continue
		}
		s.mark[child][cn] = s.epoch
		sum := s.levelSum[child]
		s.pending[sum] = append(s.pending[sum], nodeRef{child, cn})
	}
}

// recompute re-derives count/cost/best of one chunk from the current state
// of its lattice parents and its own presence. It reports whether the
// chunk's externally visible state (computability or least cost) changed.
func (s *VCMC) recompute(gb lattice.ID, num int) bool {
	s.maint.bump(1)
	oldCount, oldCost := s.counts[gb][num], s.costs[gb][num]
	newCount := int32(0)
	newCost := int64(infCost)
	newBest := int16(-1)
	if s.present.has(gb, num) && !s.silent.has(gb, num) {
		newCount++
		newCost = 0
		newBest = -2
	}
	pdims := s.lat.ParentDims(gb)
	for pi, parent := range s.lat.Parents(gb) {
		r := s.grid.ParentRun(gb, num, int(pdims[pi]))
		costs := s.costs[parent]
		complete := true
		cand := int64(0)
		for i := 0; i < r.N; i++ {
			cn := r.At(i)
			c := costs[cn]
			if c == infCost {
				complete = false
				break
			}
			cand += c + s.sizes.ChunkCells(parent, cn)
		}
		if !complete {
			continue
		}
		newCount++
		if newBest != -2 && cand < newCost {
			newCost = cand
			newBest = int16(pi)
		}
	}
	s.counts[gb][num] = newCount
	s.costs[gb][num] = newCost
	s.best[gb][num] = newBest
	return (oldCount == 0) != (newCount == 0) || oldCost != newCost
}

// Overhead implements Strategy: per chunk, 1 byte of count, 4 of cost and 1
// of best parent (Table 3 accounting).
func (s *VCMC) Overhead() int64 { return 6 * s.grid.TotalChunks() }

// Maintenance implements Strategy.
func (s *VCMC) Maintenance() Maint { return s.maint.snapshot() }
