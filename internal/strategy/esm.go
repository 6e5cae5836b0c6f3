package strategy

import (
	"sync"
	"sync/atomic"

	"aggcache/internal/cache"
	"aggcache/internal/chunk"
	"aggcache/internal/lattice"
	"aggcache/internal/sizer"
)

// ESM is the Exhaustive Search Method (§3.1): on a miss, recursively search
// every lattice path toward the base group-by until one succeeds. It keeps
// no summary state beyond chunk presence, so inserts and evictions are free;
// lookups are worst-case exponential in the distance to the base level
// (Lemma 1).
type ESM struct {
	grid    *chunk.Grid
	lat     *lattice.Lattice
	mu      sync.RWMutex
	present *presence
	// budget bounds nodes visited per Find; 0 means unlimited (faithful).
	budget  int64
	visited atomic.Int64
}

// NewESM creates an ESM strategy for the grid. budget bounds the nodes
// visited by one Find (0 = unlimited).
func NewESM(g *chunk.Grid, budget int64) *ESM {
	return &ESM{grid: g, lat: g.Lattice(), present: newPresence(g), budget: budget}
}

// Name implements Strategy.
func (s *ESM) Name() string { return "ESM" }

// Find implements Strategy: the paper's ESM(Level, ChunkNumber) returning an
// executable plan on success. Concurrent Finds share the read lock.
func (s *ESM) Find(gb lattice.ID, num int) (*Plan, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var visited int64
	p, ok, err := s.find(gb, num, &visited)
	s.visited.Store(visited)
	return p, ok, err
}

func (s *ESM) find(gb lattice.ID, num int, visited *int64) (*Plan, bool, error) {
	*visited++
	if s.budget > 0 && *visited > s.budget {
		return nil, false, ErrBudget
	}
	if s.present.has(gb, num) {
		return &Plan{GB: gb, Num: num, Present: true}, true, nil
	}
	var nums []int
	for _, parent := range s.lat.Parents(gb) {
		nums = s.grid.ParentChunks(gb, num, parent, nums[:0])
		inputs := make([]*Plan, 0, len(nums))
		ok := true
		for _, cn := range nums {
			sub, found, err := s.find(parent, cn, visited)
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
			return &Plan{GB: gb, Num: num, Via: parent, Inputs: inputs}, true, nil
		}
	}
	return nil, false, nil
}

// OnInsert implements cache.Listener; ESM only tracks presence.
func (s *ESM) OnInsert(e *cache.Entry) {
	s.mu.Lock()
	s.present.set(e.Key.GB, int(e.Key.Num))
	s.mu.Unlock()
}

// OnEvent implements cache.Listener. A tier move (Demoted) leaves the chunk
// answerable through the store, so presence is untouched.
func (s *ESM) OnEvent(ev cache.Event) {
	if ev.Answerable() {
		return
	}
	s.mu.Lock()
	s.present.clear(ev.Key.GB, int(ev.Key.Num))
	s.mu.Unlock()
}

// Overhead implements Strategy; ESM keeps no count/cost arrays (Table 3).
func (s *ESM) Overhead() int64 { return 0 }

// Maintenance implements Strategy; ESM performs none.
func (s *ESM) Maintenance() Maint { return Maint{} }

// LastVisited returns the number of nodes visited by the most recent Find —
// the lookup-complexity metric behind Table 1. With concurrent Finds in
// flight it is that of whichever Find stored last.
func (s *ESM) LastVisited() int64 { return s.visited.Load() }

// ESMC is the cost-based exhaustive method (§5.1): it explores *all* lattice
// paths and returns the cheapest plan under the linear cost model. Its
// average complexity is far worse than ESM's because it cannot stop at the
// first success — the paper abandons it after Table 1.
type ESMC struct {
	grid    *chunk.Grid
	lat     *lattice.Lattice
	mu      sync.RWMutex
	present *presence
	sizes   sizer.Sizer
	budget  int64
	visited atomic.Int64
}

// NewESMC creates an ESMC strategy; sizes supplies the cost model's chunk
// sizes and budget bounds nodes per Find (0 = unlimited).
func NewESMC(g *chunk.Grid, sizes sizer.Sizer, budget int64) *ESMC {
	return &ESMC{grid: g, lat: g.Lattice(), present: newPresence(g), sizes: sizes, budget: budget}
}

// Name implements Strategy.
func (s *ESMC) Name() string { return "ESMC" }

// Find implements Strategy, returning the minimum-cost plan.
func (s *ESMC) Find(gb lattice.ID, num int) (*Plan, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var visited int64
	p, ok, err := s.find(gb, num, &visited)
	s.visited.Store(visited)
	return p, ok, err
}

func (s *ESMC) find(gb lattice.ID, num int, visited *int64) (*Plan, bool, error) {
	*visited++
	if s.budget > 0 && *visited > s.budget {
		return nil, false, ErrBudget
	}
	if s.present.has(gb, num) {
		return &Plan{GB: gb, Num: num, Present: true}, true, nil
	}
	var best *Plan
	var nums []int
	for _, parent := range s.lat.Parents(gb) {
		nums = s.grid.ParentChunks(gb, num, parent, nums[:0])
		inputs := make([]*Plan, 0, len(nums))
		cost := int64(0)
		ok := true
		for _, cn := range nums {
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
			best = &Plan{GB: gb, Num: num, Via: parent, Inputs: inputs, Cost: cost}
		}
	}
	return best, best != nil, nil
}

// OnInsert implements cache.Listener.
func (s *ESMC) OnInsert(e *cache.Entry) {
	s.mu.Lock()
	s.present.set(e.Key.GB, int(e.Key.Num))
	s.mu.Unlock()
}

// OnEvent implements cache.Listener. A tier move (Demoted) leaves the chunk
// answerable through the store, so presence is untouched.
func (s *ESMC) OnEvent(ev cache.Event) {
	if ev.Answerable() {
		return
	}
	s.mu.Lock()
	s.present.clear(ev.Key.GB, int(ev.Key.Num))
	s.mu.Unlock()
}

// Overhead implements Strategy.
func (s *ESMC) Overhead() int64 { return 0 }

// Maintenance implements Strategy.
func (s *ESMC) Maintenance() Maint { return Maint{} }

// LastVisited is ESM.LastVisited for ESMC.
func (s *ESMC) LastVisited() int64 { return s.visited.Load() }

// NoAgg is the conventional chunk cache of the paper's comparison (§7.2
// "no aggregation"): a chunk is answerable only when it is itself resident.
type NoAgg struct {
	mu      sync.RWMutex
	present *presence
}

// NewNoAgg creates the no-aggregation baseline.
func NewNoAgg(g *chunk.Grid) *NoAgg { return &NoAgg{present: newPresence(g)} }

// Name implements Strategy.
func (s *NoAgg) Name() string { return "NoAgg" }

// Find implements Strategy.
func (s *NoAgg) Find(gb lattice.ID, num int) (*Plan, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.present.has(gb, num) {
		return &Plan{GB: gb, Num: num, Present: true}, true, nil
	}
	return nil, false, nil
}

// OnInsert implements cache.Listener.
func (s *NoAgg) OnInsert(e *cache.Entry) {
	s.mu.Lock()
	s.present.set(e.Key.GB, int(e.Key.Num))
	s.mu.Unlock()
}

// OnEvent implements cache.Listener. A tier move (Demoted) leaves the chunk
// answerable through the store, so presence is untouched.
func (s *NoAgg) OnEvent(ev cache.Event) {
	if ev.Answerable() {
		return
	}
	s.mu.Lock()
	s.present.clear(ev.Key.GB, int(ev.Key.Num))
	s.mu.Unlock()
}

// Overhead implements Strategy.
func (s *NoAgg) Overhead() int64 { return 0 }

// Maintenance implements Strategy.
func (s *NoAgg) Maintenance() Maint { return Maint{} }
