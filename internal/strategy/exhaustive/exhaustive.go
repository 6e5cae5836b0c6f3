// Package exhaustive holds the paper's exhaustive lookup baselines ESM
// (§3.1) and ESMC (§5.1). Their lookups are worst-case exponential in the
// distance to the base group-by (Lemma 1), so they are experiment code: only
// internal/bench and tests link this package, `make depguard` keeps it out of
// the daemons, and core.Build does not name them. Both return
// strategy.ErrBudget when one Find visits more nodes than its budget allows.
package exhaustive

import (
	"sync"
	"sync/atomic"

	"aggcache/internal/cache"
	"aggcache/internal/chunk"
	"aggcache/internal/lattice"
	"aggcache/internal/sizer"
	"aggcache/internal/strategy"
)

// ESM is the Exhaustive Search Method (§3.1): on a miss, recursively search
// every lattice path toward the base group-by until one succeeds. It keeps
// no summary state beyond chunk presence, so inserts and evictions are free.
// Its plans carry no cost.
type ESM struct{ base }

// NewESM creates an ESM strategy for the grid. budget bounds the nodes
// visited by one Find (0 = unlimited).
func NewESM(g *chunk.Grid, budget int64) *ESM { return &ESM{newBase(g, budget)} }

// Name implements strategy.Strategy.
func (s *ESM) Name() string { return "ESM" }

// Find implements strategy.Strategy: the paper's ESM(Level, ChunkNumber)
// returning an executable plan on success.
func (s *ESM) Find(gb lattice.ID, num int) (*strategy.Plan, bool, error) {
	return s.lookup(gb, num, s.find)
}

func (s *ESM) find(gb lattice.ID, num int, visited *int64) (*strategy.Plan, bool, error) {
	*visited++
	if s.budget > 0 && *visited > s.budget {
		return nil, false, strategy.ErrBudget
	}
	if s.present.has(gb, num) {
		return &strategy.Plan{GB: gb, Num: num, Present: true}, true, nil
	}
	pdims := s.lat.ParentDims(gb)
	for i, parent := range s.lat.Parents(gb) {
		r := s.grid.ParentRun(gb, num, int(pdims[i]))
		inputs := make([]*strategy.Plan, 0, r.N)
		ok := true
		for j := 0; j < r.N; j++ {
			sub, found, err := s.find(parent, r.At(j), visited)
			if err != nil {
				return nil, false, err
			}
			if !found {
				ok = false
				break
			}
			inputs = append(inputs, sub)
		}
		if ok {
			return &strategy.Plan{GB: gb, Num: num, Via: parent, Inputs: inputs}, true, nil
		}
	}
	return nil, false, nil
}

// ESMC is the cost-based exhaustive method (§5.1): it explores *all* lattice
// paths and returns the cheapest plan under the linear cost model. Its
// average complexity is far worse than ESM's because it cannot stop at the
// first success — the paper abandons it after Table 1.
type ESMC struct {
	base
	sizes sizer.Sizer
}

// NewESMC creates an ESMC strategy; sizes supplies the cost model's chunk
// sizes and budget bounds nodes per Find (0 = unlimited).
func NewESMC(g *chunk.Grid, sizes sizer.Sizer, budget int64) *ESMC {
	return &ESMC{newBase(g, budget), sizes}
}

// Name implements strategy.Strategy.
func (s *ESMC) Name() string { return "ESMC" }

// Find implements strategy.Strategy, returning the minimum-cost plan.
func (s *ESMC) Find(gb lattice.ID, num int) (*strategy.Plan, bool, error) {
	return s.lookup(gb, num, s.find)
}

func (s *ESMC) find(gb lattice.ID, num int, visited *int64) (*strategy.Plan, bool, error) {
	*visited++
	if s.budget > 0 && *visited > s.budget {
		return nil, false, strategy.ErrBudget
	}
	if s.present.has(gb, num) {
		return &strategy.Plan{GB: gb, Num: num, Present: true}, true, nil
	}
	var best *strategy.Plan
	pdims := s.lat.ParentDims(gb)
	for i, parent := range s.lat.Parents(gb) {
		r := s.grid.ParentRun(gb, num, int(pdims[i]))
		inputs := make([]*strategy.Plan, 0, r.N)
		cost := int64(0)
		ok := true
		for j := 0; j < r.N; j++ {
			cn := r.At(j)
			sub, found, err := s.find(parent, cn, visited)
			if err != nil {
				return nil, false, err
			}
			if !found {
				ok = false
				break
			}
			cost += sub.Cost + s.sizes.ChunkCells(parent, cn)
			inputs = append(inputs, sub)
		}
		if ok && (best == nil || cost < best.Cost) {
			best = &strategy.Plan{GB: gb, Num: num, Via: parent, Inputs: inputs, Cost: cost}
		}
	}
	return best, best != nil, nil
}

// base is the state and listener both methods share: chunk presence, the
// per-Find node budget and the last Find's visit count.
type base struct {
	grid    *chunk.Grid
	lat     *lattice.Lattice
	mu      sync.RWMutex
	present *presence
	// budget bounds nodes visited per Find; 0 means unlimited (faithful).
	budget  int64
	visited atomic.Int64
}

func newBase(g *chunk.Grid, budget int64) base {
	return base{grid: g, lat: g.Lattice(), present: newPresence(g), budget: budget}
}

// lookup runs one search under the read lock, so concurrent Finds share it,
// and records the nodes it visited.
func (s *base) lookup(gb lattice.ID, num int, find func(lattice.ID, int, *int64) (*strategy.Plan, bool, error)) (*strategy.Plan, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var visited int64
	p, ok, err := find(gb, num, &visited)
	s.visited.Store(visited)
	return p, ok, err
}

// OnInsert implements cache.Listener: the methods track only presence.
func (s *base) OnInsert(e *cache.Entry) {
	s.mu.Lock()
	s.present.set(e.Key.GB, int(e.Key.Num))
	s.mu.Unlock()
}

// OnEvent implements cache.Listener. A tier move (Demoted) leaves the chunk
// answerable through the store, so presence is untouched.
func (s *base) OnEvent(ev cache.Event) {
	if ev.Answerable() {
		return
	}
	s.mu.Lock()
	s.present.clear(ev.Key.GB, int(ev.Key.Num))
	s.mu.Unlock()
}

// Overhead implements strategy.Strategy; the exhaustive methods keep no
// count/cost arrays (Table 3).
func (s *base) Overhead() int64 { return 0 }

// Maintenance implements strategy.Strategy; there is none to perform.
func (s *base) Maintenance() strategy.Maint { return strategy.Maint{} }

// LastVisited returns the number of nodes visited by the most recent Find —
// the lookup-complexity metric behind Table 1. With concurrent Finds in
// flight it is that of whichever Find stored last.
func (s *base) LastVisited() int64 { return s.visited.Load() }

// presence tracks which chunks are resident, one bitset per group-by (a
// copy of the strategy package's own, which stays unexported).
type presence struct {
	bits [][]uint64
}

func newPresence(g *chunk.Grid) *presence {
	n := g.Lattice().NumNodes()
	p := &presence{bits: make([][]uint64, n)}
	for id := 0; id < n; id++ {
		p.bits[id] = make([]uint64, (g.NumChunks(lattice.ID(id))+63)/64)
	}
	return p
}

func (p *presence) set(gb lattice.ID, num int)   { p.bits[gb][num/64] |= 1 << (num % 64) }
func (p *presence) clear(gb lattice.ID, num int) { p.bits[gb][num/64] &^= 1 << (num % 64) }
func (p *presence) has(gb lattice.ID, num int) bool {
	return p.bits[gb][num/64]&(1<<(num%64)) != 0
}
