package strategy

import (
	"fmt"
	"sync"

	"aggcache/internal/cache"
	"aggcache/internal/chunk"
	"aggcache/internal/lattice"
)

// VCM is the Virtual Count based Method (§4). For every chunk of every
// group-by it maintains a count:
//
//	count = (1 if the chunk is resident) +
//	        (number of lattice parents through which a complete
//	         computation path exists)
//
// Property 1: count ≠ 0 ⇔ the chunk is answerable from the cache. Lookups
// therefore reject misses in O(1) and explore exactly one successful path on
// hits; the price is count maintenance on insert and eviction
// (VCM_InsertUpdateCount and its eviction dual).
type VCM struct {
	grid    *chunk.Grid
	lat     *lattice.Lattice
	mu      sync.RWMutex
	present *presence
	counts  [][]int32
	maint   maintCounters
}

// NewVCM creates a VCM strategy with all-zero counts (empty cache).
func NewVCM(g *chunk.Grid) *VCM {
	lat := g.Lattice()
	s := &VCM{grid: g, lat: lat, present: newPresence(g), counts: make([][]int32, lat.NumNodes())}
	for id := range s.counts {
		s.counts[id] = make([]int32, g.NumChunks(lattice.ID(id)))
	}
	return s
}

// Name implements Strategy.
func (s *VCM) Name() string { return "VCM" }

// Count exposes a chunk's virtual count (tests and diagnostics).
func (s *VCM) Count(gb lattice.ID, num int) int32 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.counts[gb][num]
}

// Find implements Strategy. A zero count returns immediately; otherwise
// exactly one successful path is expanded into a plan. Concurrent Finds share
// the read lock.
func (s *VCM) Find(gb lattice.ID, num int) (*Plan, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	plan := s.build(gb, num)
	return plan, plan != nil, nil
}

func (s *VCM) build(gb lattice.ID, num int) *Plan {
	// Presence is checked before the count: recycled intermediates are
	// resident but excluded from count bookkeeping, so a present chunk may
	// legitimately carry a zero count.
	if s.present.has(gb, num) {
		return &Plan{GB: gb, Num: num, Present: true}
	}
	if s.counts[gb][num] == 0 {
		return nil
	}
	// Prefer a parent whose input chunks are all resident (recycled
	// intermediates included — they are excluded from count bookkeeping, so
	// the count scan below cannot see them): one roll-up step over present
	// chunks beats re-deriving a deeper path.
	pdims := s.lat.ParentDims(gb)
	for pi, parent := range s.lat.Parents(gb) {
		r := s.grid.ParentRun(gb, num, int(pdims[pi]))
		all := true
		for i := 0; i < r.N && all; i++ {
			all = s.present.has(parent, r.At(i))
		}
		if all {
			return &Plan{GB: gb, Num: num, Via: parent, Inputs: presentInputs(parent, r)}
		}
	}
	for pi, parent := range s.lat.Parents(gb) {
		r := s.grid.ParentRun(gb, num, int(pdims[pi]))
		if !s.computable(parent, r, -1) {
			continue
		}
		inputs := make([]*Plan, r.N)
		for i := range inputs {
			cn := r.At(i)
			if inputs[i] = s.build(parent, cn); inputs[i] == nil {
				// Property 1 guarantees this cannot happen.
				panic(fmt.Sprintf("strategy: VCM count invariant violated at gb %d chunk %d", parent, cn))
			}
		}
		return &Plan{GB: gb, Num: num, Via: parent, Inputs: inputs}
	}
	panic(fmt.Sprintf("strategy: VCM count %d at gb %d chunk %d but no successful parent",
		s.counts[gb][num], gb, num))
}

// computable reports whether every chunk of run r at gb, except skip, has a
// non-zero count.
func (s *VCM) computable(gb lattice.ID, r chunk.Run, skip int) bool {
	counts := s.counts[gb]
	for i := 0; i < r.N; i++ {
		if cn := r.At(i); cn != skip && counts[cn] == 0 {
			return false
		}
	}
	return true
}

// OnInsert implements cache.Listener: the paper's VCM_InsertUpdateCount.
// Recycled intermediates get presence-only maintenance — they answer
// lookups as resident chunks but never enter the count lattice, so their
// admission (and later eviction) is O(1) instead of a cascade. The counts
// then describe exactly the non-speculative contents, which keeps the
// insert/evict duals consistent no matter how recycled entries churn.
func (s *VCM) OnInsert(e *cache.Entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	timeMaint(&s.maint, func() {
		gb, num := e.Key.GB, int(e.Key.Num)
		s.present.set(gb, num)
		if e.Recycled {
			s.maint.bump(1)
			return
		}
		s.inc(gb, num)
	})
}

// inc increments a chunk's count and, when the chunk has *newly* become
// computable, propagates to every child whose sibling set through this
// group-by just completed.
func (s *VCM) inc(gb lattice.ID, num int) {
	s.maint.bump(1)
	s.counts[gb][num]++
	if s.counts[gb][num] > 1 {
		return // was already computable; children unaffected
	}
	cdims := s.lat.ChildDims(gb)
	for i, child := range s.lat.Children(gb) {
		d := int(cdims[i])
		ccn := s.grid.ChildStep(gb, num, d)
		if s.computable(gb, s.grid.ParentRun(child, ccn, d), -1) {
			s.inc(child, ccn)
		}
	}
}

// OnEvent implements cache.Listener: the eviction dual of insert (the paper
// notes it is "similar in implementation and complexity"). A demotion or
// promotion is a tier move — the chunk still answers through the store, so
// presence and counts are untouched; the count teardown runs only when the
// chunk truly leaves (Evicted, Removed).
func (s *VCM) OnEvent(ev cache.Event) {
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
			s.maint.bump(1)
			return
		}
		s.dec(gb, num)
	})
}

// dec decrements a chunk's count; when the chunk just stopped being
// computable, every child whose path through this group-by was previously
// complete loses that path.
func (s *VCM) dec(gb lattice.ID, num int) {
	s.maint.bump(1)
	s.counts[gb][num]--
	if s.counts[gb][num] > 0 {
		return // still computable; children unaffected
	}
	if s.counts[gb][num] < 0 {
		panic(fmt.Sprintf("strategy: VCM count below zero at gb %d chunk %d", gb, num))
	}
	cdims := s.lat.ChildDims(gb)
	for i, child := range s.lat.Children(gb) {
		d := int(cdims[i])
		ccn := s.grid.ChildStep(gb, num, d)
		// The path through gb existed before this chunk went to zero iff all
		// of its siblings are (still) computable.
		if s.computable(gb, s.grid.ParentRun(child, ccn, d), num) {
			s.dec(child, ccn)
		}
	}
}

// Overhead implements Strategy: one count byte per chunk over all levels
// (Table 3 accounting).
func (s *VCM) Overhead() int64 { return s.grid.TotalChunks() }

// Maintenance implements Strategy.
func (s *VCM) Maintenance() Maint { return s.maint.snapshot() }
