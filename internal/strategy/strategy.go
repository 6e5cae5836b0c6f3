// Package strategy implements the paper's cache lookup strategies: given a
// chunk of a group-by, decide whether it can be answered from the cache —
// directly or by aggregating other cached chunks — and produce an executable
// aggregation plan.
//
//   - VCM  (§4):   virtual counts make the computability test O(1); one
//     successful path is materialized.
//   - VCMC (§5.2): virtual counts plus Cost/BestParent arrays; the cheapest
//     plan is materialized in time linear in the plan size.
//   - NoAgg:       a conventional cache (exact chunk hits only), the paper's
//     "no aggregation" baseline.
//
// The exhaustive baselines ESM (§3.1) and ESMC (§5.1) live in the
// subpackage exhaustive, which only experiments link.
//
// Strategies register as the cache's Listener so inserts and evictions keep
// their summary state (virtual counts, costs) current.
package strategy

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"aggcache/internal/cache"
	"aggcache/internal/chunk"
	"aggcache/internal/lattice"
	"aggcache/internal/sizer"
)

// ErrBudget is returned by budget-limited strategies when a single Find
// visits more nodes than allowed. The engine treats it as "not computable"
// and reports the truncation; it exists because faithful ESM/ESMC lookups
// are exponential (the paper measured 19,826 s for one ESMC lookup).
var ErrBudget = errors.New("strategy: lookup budget exceeded")

// Plan describes how to obtain one chunk from the cache. Either the chunk is
// Present, or it is aggregated from the Inputs — the full set of its chunks
// at the parent group-by Via.
type Plan struct {
	GB      lattice.ID
	Num     int
	Present bool
	Via     lattice.ID
	Inputs  []*Plan
	// Cost is the plan's estimated aggregation cost in tuples scanned
	// (linear cost model, §5); 0 for present chunks.
	Cost int64
}

// Leaves appends the cache keys of all present leaf chunks of the plan —
// the group of chunks the two-level policy reinforces after use.
func (p *Plan) Leaves(dst []cache.Key) []cache.Key {
	if p.Present {
		return append(dst, cache.Key{GB: p.GB, Num: int32(p.Num)})
	}
	for _, in := range p.Inputs {
		dst = in.Leaves(dst)
	}
	return dst
}

// Nodes returns the number of plan nodes (present leaves and intermediate
// aggregations).
func (p *Plan) Nodes() int {
	n := 1
	for _, in := range p.Inputs {
		n += in.Nodes()
	}
	return n
}

// Maint reports cumulative maintenance work a strategy has performed in its
// OnInsert/OnEvent handlers: state updates applied and wall time spent.
// Callers snapshot and diff it to attribute per-query update cost
// (Figure 10's "update" component, Table 2).
type Maint struct {
	Updates int64
	Time    time.Duration
}

// Sub returns m - o.
func (m Maint) Sub(o Maint) Maint {
	return Maint{Updates: m.Updates - o.Updates, Time: m.Time - o.Time}
}

// maintCounters accumulates maintenance work with atomic counters so
// Maintenance() can be sampled lock-free while queries are in flight (bench
// reporters and snapshots read it concurrently). The handlers that bump the
// counters run under their strategy's write lock.
type maintCounters struct {
	updates atomic.Int64
	nanos   atomic.Int64
}

// bump records n state updates.
func (m *maintCounters) bump(n int64) { m.updates.Add(n) }

// snapshot returns the counters as a Maint value.
func (m *maintCounters) snapshot() Maint {
	return Maint{Updates: m.updates.Load(), Time: time.Duration(m.nanos.Load())}
}

// timeMaint attributes fn's wall time to m.
func timeMaint(m *maintCounters, fn func()) {
	start := time.Now()
	fn()
	m.nanos.Add(int64(time.Since(start)))
}

// Strategy is a cache lookup strategy. Implementations synchronize
// internally: concurrent Finds share a read lock over the summary state,
// while OnInsert/OnEvent (which the cache store invokes from its Listener
// hooks, possibly from several shards at once) take the write lock. Every
// method may be called from any goroutine. A plan returned by Find reflects
// residence at lookup time; the engine re-validates it by pinning the leaves
// and falls back to fetching when a leaf has since been evicted.
type Strategy interface {
	// Name identifies the strategy in reports ("VCMC", "NoAgg", …).
	Name() string
	// Find reports whether chunk num of gb is answerable from the cache and
	// returns an executable plan. It returns ErrBudget when a node budget
	// was exhausted before an answer was established.
	Find(gb lattice.ID, num int) (*Plan, bool, error)
	// OnInsert and OnEvent implement cache.Listener to maintain summary
	// state. OnEvent distinguishes tier moves (Demoted — the chunk stays
	// answerable, summary state must not change) from true departures
	// (Evicted).
	OnInsert(e *cache.Entry)
	OnEvent(ev cache.Event)
	// Overhead returns the strategy's summary-state space in bytes using the
	// paper's accounting (Table 3: 1 byte per count, 4 per cost, 1 per best
	// parent).
	Overhead() int64
	// Maintenance returns cumulative maintenance counters.
	Maintenance() Maint
}

// New builds the middle tier's strategy whose Name is name: VCM, VCMC or
// NoAgg.
func New(name string, g *chunk.Grid, sz sizer.Sizer) (Strategy, error) {
	switch name {
	case "VCM":
		return NewVCM(g), nil
	case "VCMC":
		return NewVCMC(g, sz), nil
	case "NoAgg":
		return NewNoAgg(g), nil
	}
	return nil, fmt.Errorf("strategy: unknown strategy %q (want VCM, VCMC or NoAgg)", name)
}

// CostEstimator is the benefit API a strategy may offer on top of Find:
// the least cost (in tuples scanned, the linear cost model of §5) of
// computing one chunk from what is currently resident, answered in O(1)
// without materializing a plan. ok is false when the chunk is not
// computable from the cache at all; a resident chunk costs 0. The engine's
// intermediate-recycler uses this to price an interior plan node: the
// estimate is exactly the re-derivation cost the cache would pay next time
// if the node is thrown away now. VCMC implements it from its Cost array.
type CostEstimator interface {
	CostEstimate(gb lattice.ID, num int) (cost int64, ok bool)
}

// AsCostEstimator returns the CostEstimator behind s, unwrapping decorators
// (Instrument's wrapper, the benchmark's tracer) via their Unwrap method. It reports false for
// strategies with no cost model (VCM, NoAgg).
func AsCostEstimator(s Strategy) (CostEstimator, bool) {
	for s != nil {
		if ce, ok := s.(CostEstimator); ok {
			return ce, true
		}
		u, ok := s.(interface{ Unwrap() Strategy })
		if !ok {
			return nil, false
		}
		s = u.Unwrap()
	}
	return nil, false
}

// presence tracks which chunks are resident, one bitset per group-by.
// Strategies keep their own copy (kept current via listener callbacks) so
// probes never touch the cache's replacement state.
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

// presentInputs returns the inputs of a one-step roll-up over run r of
// resident chunks of parent: one Present leaf per chunk, allocated together.
func presentInputs(parent lattice.ID, r chunk.Run) []*Plan {
	leaves := make([]Plan, r.N)
	inputs := make([]*Plan, r.N)
	for i := range inputs {
		leaves[i] = Plan{GB: parent, Num: r.At(i), Present: true}
		inputs[i] = &leaves[i]
	}
	return inputs
}

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
