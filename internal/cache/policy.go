package cache

import (
	"fmt"
	"math"
)

// maxClock caps clock weights so reinforcement cannot make an entry
// permanently unevictable.
const maxClock = 64

// clockWeight maps a benefit (recomputation cost in cost units) to an
// initial CLOCK weight. The log keeps sweep counts bounded while preserving
// the paper's ordering: expensive-to-recompute chunks survive longer.
func clockWeight(benefit float64) float64 {
	if benefit < 0 {
		benefit = 0
	}
	w := math.Log2(1 + benefit)
	if w > maxClock {
		w = maxClock
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ring is an intrusive circular list of entries with a CLOCK hand.
type ring struct {
	hand *Entry
	n    int
	id   int8
}

func (r *ring) push(e *Entry) {
	e.ringID = r.id
	if r.hand == nil {
		e.next, e.prev = e, e
		r.hand = e
	} else {
		// Insert just behind the hand (the position last swept).
		tail := r.hand.prev
		tail.next = e
		e.prev = tail
		e.next = r.hand
		r.hand.prev = e
	}
	r.n++
}

func (r *ring) drop(e *Entry) {
	if r.n == 1 {
		r.hand = nil
	} else {
		e.prev.next = e.next
		e.next.prev = e.prev
		if r.hand == e {
			r.hand = e.next
		}
	}
	e.next, e.prev = nil, nil
	r.n--
}

// sweep runs the CLOCK algorithm: decrement weights until an unpinned entry
// with weight ≤ 0 is found. If every entry stays positive after bounded
// passes (or is pinned), it falls back to the minimum-weight unpinned entry.
// Returns nil when nothing is evictable.
func (r *ring) sweep() *Entry {
	if r.n == 0 {
		return nil
	}
	limit := r.n * int(maxClock+1)
	for i := 0; i < limit; i++ {
		e := r.hand
		r.hand = e.next
		if e.Pinned() {
			continue
		}
		if e.clock <= 0 {
			return e
		}
		e.clock--
	}
	// All pinned, or pathological weights: pick the minimum unpinned.
	var min *Entry
	e := r.hand
	for i := 0; i < r.n; i++ {
		if !e.Pinned() && (min == nil || e.clock < min.clock) {
			min = e
		}
		e = e.next
	}
	return min
}

// sweepClass runs the CLOCK pass over r but considers — and ages — only
// unpinned entries of class cl; entries of other classes are passed over
// untouched, so a computed-class scan cannot erode backend weights.
func (r *ring) sweepClass(cl Class) *Entry {
	if r.n == 0 {
		return nil
	}
	limit := r.n * int(maxClock+1)
	for i := 0; i < limit; i++ {
		e := r.hand
		r.hand = e.next
		if e.Pinned() || e.Class != cl {
			continue
		}
		if e.clock <= 0 {
			return e
		}
		e.clock--
	}
	var min *Entry
	e := r.hand
	for i := 0; i < r.n; i++ {
		if !e.Pinned() && e.Class == cl && (min == nil || e.clock < min.clock) {
			min = e
		}
		e = e.next
	}
	return min
}

// NewPolicy builds the replacement policy whose Name is name: benefit,
// two-level, two-level-promote or lru.
func NewPolicy(name string) (Policy, error) {
	switch name {
	case "benefit":
		return NewBenefitClock(), nil
	case "two-level":
		return NewTwoLevel(), nil
	case "two-level-promote":
		return NewTwoLevelPromote(), nil
	case "lru":
		return NewLRU(), nil
	}
	return nil, fmt.Errorf("cache: unknown policy %q", name)
}

// BenefitClock is the [DRSN98] baseline replacement policy: a CLOCK
// approximation of LRU where each chunk's weight is its benefit (cost to
// recompute), so highly aggregated, expensive chunks survive longer.
type BenefitClock struct {
	r ring
}

// NewBenefitClock returns the baseline policy.
func NewBenefitClock() *BenefitClock { return &BenefitClock{} }

// Name implements Policy.
func (p *BenefitClock) Name() string { return "benefit" }

// Added implements Policy.
func (p *BenefitClock) Added(e *Entry) {
	e.clock = clockWeight(e.Benefit)
	p.r.push(e)
}

// Removed implements Policy.
func (p *BenefitClock) Removed(e *Entry) { p.r.drop(e) }

// Accessed implements Policy.
func (p *BenefitClock) Accessed(e *Entry) { e.clock = clockWeight(e.Benefit) }

// Reinforced implements Policy. The baseline treats reinforcement as a plain
// access (it has no group notion).
func (p *BenefitClock) Reinforced(e *Entry, benefit float64) { p.Accessed(e) }

// NextVictim implements Policy; class is ignored by the baseline.
func (p *BenefitClock) NextVictim(Class) *Entry { return p.r.sweep() }

// Fork implements Policy.
func (p *BenefitClock) Fork() Policy { return NewBenefitClock() }

// TwoLevel is the paper's replacement policy (§6.3):
//
//   - backend chunks have priority: they may replace cache-computed chunks
//     but cache-computed chunks may never evict backend chunks;
//   - within each class, replacement follows the benefit CLOCK;
//   - chunks used together to compute an aggregate are reinforced by the
//     aggregate's benefit, keeping useful groups resident.
type TwoLevel struct {
	backend  ring
	computed ring
	promote  bool
	// promoted counts computed-class entries living in the backend ring
	// (promote-on-reuse migrations), so the computed victim scan knows
	// whether a filtered sweep of the protected ring can find anything.
	promoted int
}

// NewTwoLevel returns the paper's two-level policy.
func NewTwoLevel() *TwoLevel {
	p := &TwoLevel{}
	p.backend.id = 0
	p.computed.id = 1
	return p
}

// NewTwoLevelPromote returns the two-level policy with promote-on-reuse:
// a computed-class entry that gets reinforced (i.e. it actually served as an
// aggregation input after being admitted) migrates to the protected ring, so
// proven-useful recycled intermediates stop competing with speculative ones.
// Entry.Class still records provenance (a promoted entry remains
// ClassComputed and is never replicated to peers); only its replacement ring
// changes. The plain NewTwoLevel keeps the paper's exact §6.3 semantics for
// the replication experiments.
func NewTwoLevelPromote() *TwoLevel {
	p := NewTwoLevel()
	p.promote = true
	return p
}

// Name implements Policy.
func (p *TwoLevel) Name() string {
	if p.promote {
		return "two-level-promote"
	}
	return "two-level"
}

func (p *TwoLevel) ringOf(e *Entry) *ring {
	if e.ringID == 0 {
		return &p.backend
	}
	return &p.computed
}

// Added implements Policy. Under promote-on-reuse, computed-class arrivals
// are probationary: they enter at the minimum clock weight so unproven
// chunks are the first reclaimed, and earn their benefit-derived weight with
// the first reinforcement (which also promotes them to the protected ring).
func (p *TwoLevel) Added(e *Entry) {
	e.clock = clockWeight(e.Benefit)
	if e.Class == ClassBackend {
		p.backend.push(e)
		return
	}
	if p.promote {
		e.clock = 1
	}
	p.computed.push(e)
}

// Removed implements Policy.
func (p *TwoLevel) Removed(e *Entry) {
	if e.ringID == p.backend.id && e.Class != ClassBackend {
		p.promoted--
	}
	p.ringOf(e).drop(e)
}

// Accessed implements Policy.
func (p *TwoLevel) Accessed(e *Entry) { e.clock = clockWeight(e.Benefit) }

// Reinforced implements Policy: add the aggregate's (log-scaled) benefit to
// the member's clock, capped so entries stay evictable eventually. Under
// promote-on-reuse, the first reinforcement of a computed-ring entry also
// moves it to the protected ring.
func (p *TwoLevel) Reinforced(e *Entry, benefit float64) {
	e.clock += clockWeight(benefit)
	if e.clock > maxClock {
		e.clock = maxClock
	}
	if p.promote && e.ringID == p.computed.id {
		p.computed.drop(e)
		p.backend.push(e)
		p.promoted++
	}
}

// NextVictim implements Policy. Computed chunks can only displace computed
// chunks; backend chunks displace computed chunks first, then other backend
// chunks. Under promote-on-reuse, a computed-class scan that finds the
// computed ring empty falls back to a class-filtered sweep of the protected
// ring: promoted intermediates are reclaimable as a last resort, true
// backend fills never are — otherwise promotions would slowly lock the whole
// cache against fresh computed inserts.
func (p *TwoLevel) NextVictim(cl Class) *Entry {
	if cl == ClassComputed {
		if v := p.computed.sweep(); v != nil {
			return v
		}
		if p.promoted > 0 {
			return p.backend.sweepClass(ClassComputed)
		}
		return nil
	}
	if v := p.computed.sweep(); v != nil {
		return v
	}
	return p.backend.sweep()
}

// Fork implements Policy, preserving the promote-on-reuse setting.
func (p *TwoLevel) Fork() Policy {
	if p.promote {
		return NewTwoLevelPromote()
	}
	return NewTwoLevel()
}
