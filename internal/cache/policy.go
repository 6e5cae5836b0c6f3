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

// anyClass is sweep's filter that admits entries of every class.
const anyClass Class = 255

// sweep runs the CLOCK algorithm: decrement weights until an unpinned entry
// with weight ≤ 0 is found. If every entry stays positive after bounded
// passes (or is pinned), it falls back to the minimum-weight unpinned entry.
// Returns nil when nothing is evictable. Unless only is anyClass, the pass
// considers — and ages — only entries of class only; others are passed over
// untouched, so a computed-class scan cannot erode backend weights.
func (r *ring) sweep(only Class) *Entry {
	if r.n == 0 {
		return nil
	}
	skip := func(e *Entry) bool { return e.Pinned() || (only != anyClass && e.Class != only) }
	limit := r.n * int(maxClock+1)
	for i := 0; i < limit; i++ {
		e := r.hand
		r.hand = e.next
		if skip(e) {
			continue
		}
		if e.clock <= 0 {
			return e
		}
		e.clock--
	}
	// All skipped, or pathological weights: pick the minimum candidate.
	var min *Entry
	e := r.hand
	for i := 0; i < r.n; i++ {
		if !skip(e) && (min == nil || e.clock < min.clock) {
			min = e
		}
		e = e.next
	}
	return min
}

// NewPolicy builds the replacement policy whose Name is name: benefit,
// two-level, two-level-promote or lru. It is the one way to build a policy.
func NewPolicy(name string) (Policy, error) {
	switch name {
	case "benefit":
		return newBenefitClock(), nil
	case "two-level":
		return newTwoLevel(false), nil
	case "two-level-promote":
		return newTwoLevel(true), nil
	case "lru":
		return newLRU(), nil
	}
	return nil, fmt.Errorf("cache: unknown policy %q", name)
}

// NewTwoLevel is NewPolicy("two-level"). It stays exported only because
// the end-to-end benchmark module calls it.
func NewTwoLevel() Policy { return newTwoLevel(false) }

// NewTwoLevelPromote is NewPolicy("two-level-promote"). It stays exported
// only because the end-to-end benchmark module calls it.
func NewTwoLevelPromote() Policy { return newTwoLevel(true) }

// benefitClock is the [DRSN98] baseline replacement policy ("benefit"): a
// CLOCK approximation of LRU where each chunk's weight is its benefit (cost
// to recompute), so highly aggregated, expensive chunks survive longer.
type benefitClock struct {
	r ring
}

func newBenefitClock() *benefitClock { return &benefitClock{} }

// Name implements Policy.
func (p *benefitClock) Name() string { return "benefit" }

// Added implements Policy.
func (p *benefitClock) Added(e *Entry) {
	e.clock = clockWeight(e.Benefit)
	p.r.push(e)
}

// Removed implements Policy.
func (p *benefitClock) Removed(e *Entry) { p.r.drop(e) }

// Accessed implements Policy.
func (p *benefitClock) Accessed(e *Entry) { e.clock = clockWeight(e.Benefit) }

// Reinforced implements Policy. The baseline treats reinforcement as a plain
// access (it has no group notion).
func (p *benefitClock) Reinforced(e *Entry, benefit float64) { p.Accessed(e) }

// NextVictim implements Policy; class is ignored by the baseline.
func (p *benefitClock) NextVictim(Class) *Entry { return p.r.sweep(anyClass) }

// Fork implements Policy.
func (p *benefitClock) Fork() Policy { return newBenefitClock() }

// twoLevel is the paper's replacement policy (§6.3), "two-level":
//
//   - backend chunks have priority: they may replace cache-computed chunks
//     but cache-computed chunks may never evict backend chunks;
//   - within each class, replacement follows the benefit CLOCK;
//   - chunks used together to compute an aggregate are reinforced by the
//     aggregate's benefit, keeping useful groups resident.
//
// With promote set ("two-level-promote", promote-on-reuse), a
// computed-class entry that gets reinforced (i.e. it actually served as an
// aggregation input after being admitted) migrates to the protected ring,
// so proven-useful recycled intermediates stop competing with speculative
// ones. Entry.Class still records provenance (a promoted entry remains
// ClassComputed); only its replacement ring changes. The plain policy keeps
// the paper's exact §6.3 semantics for reproducing its experiments.
type twoLevel struct {
	backend  ring
	computed ring
	promote  bool
	// promoted counts computed-class entries living in the backend ring
	// (promote-on-reuse migrations), so the computed victim scan knows
	// whether a filtered sweep of the protected ring can find anything.
	promoted int
}

func newTwoLevel(promote bool) *twoLevel {
	p := &twoLevel{promote: promote}
	p.backend.id = 0
	p.computed.id = 1
	return p
}

// Name implements Policy.
func (p *twoLevel) Name() string {
	if p.promote {
		return "two-level-promote"
	}
	return "two-level"
}

func (p *twoLevel) ringOf(e *Entry) *ring {
	if e.ringID == 0 {
		return &p.backend
	}
	return &p.computed
}

// Added implements Policy. Under promote-on-reuse, computed-class arrivals
// are probationary: they enter at the minimum clock weight so unproven
// chunks are the first reclaimed, and earn their benefit-derived weight with
// the first reinforcement (which also promotes them to the protected ring).
func (p *twoLevel) Added(e *Entry) {
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
func (p *twoLevel) Removed(e *Entry) {
	if e.ringID == p.backend.id && e.Class != ClassBackend {
		p.promoted--
	}
	p.ringOf(e).drop(e)
}

// Accessed implements Policy.
func (p *twoLevel) Accessed(e *Entry) { e.clock = clockWeight(e.Benefit) }

// Reinforced implements Policy: add the aggregate's (log-scaled) benefit to
// the member's clock, capped so entries stay evictable eventually. Under
// promote-on-reuse, the first reinforcement of a computed-ring entry also
// moves it to the protected ring.
func (p *twoLevel) Reinforced(e *Entry, benefit float64) {
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
func (p *twoLevel) NextVictim(cl Class) *Entry {
	if cl == ClassComputed {
		if v := p.computed.sweep(anyClass); v != nil {
			return v
		}
		if p.promoted > 0 {
			return p.backend.sweep(ClassComputed)
		}
		return nil
	}
	if v := p.computed.sweep(anyClass); v != nil {
		return v
	}
	return p.backend.sweep(anyClass)
}

// Fork implements Policy, preserving the promote-on-reuse setting.
func (p *twoLevel) Fork() Policy { return newTwoLevel(p.promote) }
