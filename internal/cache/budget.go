package cache

import (
	"sync/atomic"

	"aggcache/internal/chunk"
)

// One budget: a store with a cold tier holds capacity bytes across both
// tiers, and the boundary between the hot share and the cold share moves
// online, in the style of ARC (Megiddo & Modha, FAST 2003). Two ghost lists
// of keys, without payloads, price each side's extra room:
//
//   - the cold ghost holds keys the cold tier held and then dropped under
//     pressure; a fresh Insert of one of them means a larger cold share would
//     have kept it, and moves the boundary toward cold by the chunk's encoded
//     bytes, priced at the insert's benefit (the backend work it cost);
//   - the hot ghost holds recently demoted keys; a cold decode of one of them
//     means a larger hot share would have kept it decoded, and moves the
//     boundary toward hot by the chunk's decoded bytes, priced at its cells
//     times decodeCost;
//   - an Insert the hot tier denies for want of an evictable victim is hot
//     pressure, priced like a cold ghost hit but toward hot.
//
// A move toward hot is paid in whole cold chunks (growHot), a move toward
// cold by demoting the inserting stripe's victims (shrinkHotLocked). Every
// share change happens under the cold tier's lock (see coldTier). A share is
// never given up below what its tier needs to hold its largest resident, and
// a tier that never held a chunk keeps its configured share, so a cold tier
// too small to admit anything pins the boundary where the operator put it.

// decodeCost is the price of decoding one cold cell, in the engine's benefit
// units (one tuple folded by the in-cache roll-up kernel; a backend tuple
// costs core's backendPenalty = 8 of them). `make bench-kernel` on 2 CPUs
// (go1.24, linux/amd64) measured BenchmarkCodecDecode at 21–32 ns/cell
// against BenchmarkRollUpInto at 16–17 ns/tuple over the same dense 64-cell
// chunk, a ratio of 1.3–1.9. It is a measurement, not a knob.
const decodeCost = 1.5

// maxPriceRatio caps one event's price at this many times the mean fill
// benefit, so a single outlier cannot swing the boundary by more than a few
// chunks.
const maxPriceRatio = 4

// fillMeanWeight is the weight of one fresh insert's benefit in the running
// mean that converts prices into bytes (an exponential moving average).
const fillMeanWeight = 1.0 / 64

// ghost is a bounded FIFO of keys without payloads. A key that leaves early
// (take) or is pushed again leaves a stale slot behind; pops skip those.
type ghost struct {
	at    map[Key]uint64 // live key -> sequence number of its slot
	slots []ghostSlot
	head  int // slots[head:] are queued
	seq   uint64
}

type ghostSlot struct {
	k   Key
	seq uint64
}

// push appends k, then drops the oldest keys until at most bound are live
// and stale slots are bounded too.
func (g *ghost) push(k Key, bound int) {
	if g.at == nil {
		g.at = make(map[Key]uint64)
	}
	g.seq++
	g.at[k] = g.seq
	g.slots = append(g.slots, ghostSlot{k, g.seq})
	for len(g.at) > bound || len(g.slots)-g.head > 2*bound+1 {
		s := g.slots[g.head]
		g.head++
		if g.at[s.k] == s.seq {
			delete(g.at, s.k)
		}
	}
	if g.head > len(g.slots)/2 {
		g.slots = append(g.slots[:0], g.slots[g.head:]...)
		g.head = 0
	}
}

// take removes k and reports whether it was live.
func (g *ghost) take(k Key) bool {
	if _, ok := g.at[k]; !ok {
		return false
	}
	delete(g.at, k)
	return true
}

// stepLocked converts a boundary event into bytes: bytes scaled by the event's
// price over the mean fill benefit, capped at maxPriceRatio. It is 0 while
// the boundary is frozen or before any fill carried a benefit; mu is locked
// by the caller.
func (t *coldTier) stepLocked(bytes int64, price float64) int64 {
	if t.frozen || t.fillMean <= 0 || price <= 0 {
		return 0
	}
	return int64(float64(bytes) * min(price/t.fillMean, maxPriceRatio))
}

// filling is the cold tier's part of a fresh hot insert of data under k with
// the given benefit: it folds the benefit into the fill mean, reports
// whether k is cold-resident (the insert is then refused: the cold copy
// answers k) and, when k is on the cold ghost instead, takes it off and
// returns the step toward cold that data's encoded bytes priced at benefit
// are worth.
func (t *coldTier) filling(k Key, data *chunk.Chunk, benefit float64) (resident, ghostHit bool, step int64) {
	if t == nil {
		return false, false, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.fillMean == 0 {
		t.fillMean = benefit
	} else {
		t.fillMean += (benefit - t.fillMean) * fillMeanWeight
	}
	if _, ok := t.entries[k]; ok {
		return true, false, 0
	}
	if !t.coldGhost.take(k) {
		return false, false, 0
	}
	// A move toward cold first cancels what the cold share still owes the
	// hot share.
	step = t.stepLocked(int64(chunk.EncodedSize(data))+coldEntryOverhead, benefit)
	paid := min(step, t.owed)
	t.owed -= paid
	return false, true, step - paid
}

// floorsLocked returns the smallest share each tier may shrink to: the
// largest chunk it has held, or its configured share until it has held one.
func (t *coldTier) floorsLocked(hotMax int64) (hot, cold int64) {
	hot, cold = t.hotInit, t.budget-t.hotInit
	if hotMax > 0 {
		hot = hotMax
	}
	if t.coldMax > 0 {
		cold = t.coldMax
	}
	return hot, cold
}

// growHot adds the step that bytes priced at price are worth (stepLocked)
// to what the cold share owes the hot share, bounded by the cold floor, and
// pays the debt: from the cold tier's free room at once, then by evicting
// its unpinned residents of least priority (they join the cold ghost), each
// only once the debt covers all of its bytes. A move therefore never
// drops a cold chunk to hand the hot tier a fraction of it, and the small
// steps of cheap decodes accumulate until they are worth a chunk. It
// returns the bytes moved and the residents evicted, whose Evicted events
// the caller fires.
func (t *coldTier) growHot(bytes int64, price float64, hotMax int64, hotResidents int) (moved int64, evicted []*coldEntry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, floor := t.floorsLocked(hotMax)
	t.owed = max(min(t.owed+t.stepLocked(bytes, price), t.shareLocked()-floor), 0)
	for t.owed > 0 {
		if pay := min(t.owed, t.shareLocked()-t.used); pay > 0 {
			t.hot.Add(pay)
			t.owed -= pay
			moved += pay
			continue
		}
		if len(t.victims) == 0 || t.victims[0].bytes() > t.owed {
			break
		}
		evicted = append(evicted, t.evictLocked(hotResidents))
	}
	return moved, evicted
}

// transfer moves n bytes of the budget from the hot share to the cold share.
// The caller holds n bytes of the hot tier's charge (a reservation or a
// victim's bytes not yet released), which the transfer releases with the
// share, so the hot tier never charges more than its share. It refuses,
// leaving both untouched, when the hot share would drop below its floor.
func (t *coldTier) transfer(n, hotMax int64, used *atomic.Int64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	floor, _ := t.floorsLocked(hotMax)
	if t.hot.Load()-n < floor {
		return false
	}
	t.hot.Add(-n)
	used.Add(-n)
	return true
}

// shrinkHotLocked moves about step bytes of the budget from the hot share to
// the cold share, taking s's free room first and then demoting s's victims
// through evictLocked; s is locked by the caller. Only s's bytes are s's to
// give, and the hot floor bounds the move.
func (c *Sharded) shrinkHotLocked(s *shard, step int64) {
	var moved int64
	if free := min(step, c.hotCap.Load()-c.used.Load()); free > 0 && c.reserve(free) {
		if !c.cold.transfer(free, c.hotMax.Load(), &c.used) {
			c.used.Add(-free)
			return
		}
		moved = free
	}
	for moved < step {
		v := s.policy.NextVictim(ClassBackend)
		if v == nil || !c.evictLocked(s, v, true) {
			break
		}
		moved += v.Bytes()
	}
	if moved > 0 {
		c.tmet.MovesTowardCold.Inc()
		c.syncTierGauges()
	}
}

// growHot moves the boundary toward hot by what bytes priced at price are
// worth and fires the Evicted events of the cold residents it displaced.
func (c *Sharded) growHot(bytes int64, price float64) {
	n, victims := c.cold.growHot(bytes, price, c.hotMax.Load(), int(c.resident.Load()))
	for _, v := range victims {
		c.tmet.ColdEvictions.Inc()
		c.coldGone(v)
	}
	if n > 0 {
		c.tmet.MovesTowardHot.Inc()
	}
	if n > 0 || len(victims) > 0 {
		c.syncTierGauges()
	}
}

// hotPressure prices an insert of need bytes that the hot tier denied for
// want of an evictable victim, and moves the boundary toward hot. Only a
// backend-class insert counts: every policy lets it evict any unpinned
// resident, so its denial means the stripe holds nothing but pins, while a
// computed-class denial may be the two-level policy's class rule, which more
// room does not lift.
func (c *Sharded) hotPressure(need int64, spec insertSpec) {
	if c.cold != nil && spec.class == ClassBackend {
		c.growHot(need, spec.benefit)
	}
}

// hotGhostHit prices the cold decode of a recently demoted chunk and moves
// the boundary toward hot.
func (c *Sharded) hotGhostHit(data *chunk.Chunk) {
	c.tmet.HotGhostHits.Inc()
	c.growHot(data.Bytes(), float64(data.Cells())*decodeCost)
}

// noteHotMax raises the largest-hot-chunk mark to n.
func (c *Sharded) noteHotMax(n int64) {
	for {
		m := c.hotMax.Load()
		if n <= m || c.hotMax.CompareAndSwap(m, n) {
			return
		}
	}
}
