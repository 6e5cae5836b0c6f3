package cache

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"aggcache/internal/chunk"
	"aggcache/internal/obs"
)

// Sharded is the local Store, the only one: keys are spread across a
// power-of-two number of stripes by a cheap hash of (GB, Num), and each stripe
// is an independent map + policy instance guarded by its own mutex. With one
// stripe (New's default) it is the paper's single bounded cache under one
// lock; with more, concurrent queries touching different stripes never
// contend.
//
// The stripes are the hot tier. NewTiered adds an optional compressed cold
// tier below them: a hot-tier victim is demoted to it instead of dropped, and
// a cold resident answers where it lives until cold pressure evicts it;
// nothing moves back up. A key is resident in at most one tier. Every per-key
// tier decision (demotion, the refusal of an insert of a cold-resident key,
// a pin of a cold key) is made under the stripe lock that serializes the
// key's hot-tier mutations; the cold tier's own lock is taken inside it
// (lock order stripe → cold tier, never the reverse). A lookup that misses
// the hot tier is served by the cold tier and counts once, as one hit or one
// miss. Listeners observe the full event taxonomy: Demoted when a victim
// stays answerable compressed, Evicted only when a chunk leaves the store.
//
// Capacity is partitioned per stripe with a borrow margin: each stripe may
// charge up to capacity/N plus half again (so a hot stripe can steal headroom
// from idle ones), while a global atomic reservation keeps the sum of all
// stripes within the configured capacity. When the global bound binds, the
// inserting stripe evicts locally until its reservation fits — so a saturated
// store converges to roughly capacity/N per active stripe without any
// cross-stripe locking. With one stripe the limit is the capacity and the two
// bounds coincide.
//
// Locking contract: every method takes the lock of the stripe that owns the
// key, never more than one at a time. Listener and Policy callbacks fire
// synchronously under that lock and must not call back into the store.
//
// Range and Reinforce visit stripes one at a time — there is no
// stop-the-world lock, so the result is a consistent-per-stripe (not globally
// atomic) snapshot, which is all the callers (reports, snapshots) need.
// Used, Len, Stats and the obs series are fed from global atomics (and the
// cold tier's own lock) and are therefore exact.
type Sharded struct {
	capacity int64
	limit    int64  // per-stripe byte cap: capacity/N + borrow margin
	mask     uint64 // len(shards) - 1
	used     atomic.Int64
	resident atomic.Int64
	shards   []shard
	// met is the store's one set of counters: Stats reads it, and /metrics
	// exports it when WithMetrics supplied a registered bundle. The handles
	// are atomics, so an ops scraper can read them while writers hold a
	// stripe lock.
	met obs.CacheMetrics
	// listener, cold and tmet are set before the store serves traffic (see
	// the Store contract) and are read-only afterwards.
	listener Listener
	// cold is the compressed cold tier, nil without one (NewTiered).
	cold *coldTier
	// tmet is the cold tier's one set of traffic counters; TierStats reads
	// it, and /metrics exports it once SetTierMetrics attached a registered
	// bundle.
	tmet obs.TierMetrics
}

// shard is one stripe: an independent map + policy under its own lock. The
// padding rounds a stripe up to 128 bytes, keeping neighbouring stripes'
// mutexes and byte counts off each other's cache lines.
type shard struct {
	mu      sync.Mutex
	entries map[Key]*Entry
	policy  Policy
	used    int64
	_       [88]byte
}

// newSharded builds an n-stripe store; n must be a power of two in
// [1, MaxShards]. The seed policy serves stripe 0 and forks the rest.
// Callers go through New.
func newSharded(capacity int64, n int, seed Policy, met obs.CacheMetrics) (*Sharded, error) {
	if n < 1 || n > MaxShards || n&(n-1) != 0 {
		return nil, fmt.Errorf("cache: shard count must be a power of two in [1, %d], got %d", MaxShards, n)
	}
	base := capacity / int64(n)
	limit := base + base/2
	if limit <= 0 || limit > capacity {
		// One stripe, or fewer bytes than stripes: the global bound is the
		// only bound.
		limit = capacity
	}
	c := &Sharded{capacity: capacity, limit: limit, mask: uint64(n - 1), shards: make([]shard, n), met: met}
	for i := range c.shards {
		p := seed
		if i > 0 {
			p = seed.Fork()
		}
		c.shards[i].entries = make(map[Key]*Entry)
		c.shards[i].policy = p
	}
	c.met.CapacityBytes.Set(capacity)
	c.syncGauges()
	return c, nil
}

// shardIndex hashes k onto a stripe. The splitmix64 finalizer spreads the
// low-entropy (GB, Num) pairs APB workloads produce evenly over the mask.
func (c *Sharded) shardIndex(k Key) uint64 {
	h := uint64(uint32(k.GB))<<32 | uint64(uint32(k.Num))
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h & c.mask
}

func (c *Sharded) shard(k Key) *shard { return &c.shards[c.shardIndex(k)] }

// reserve charges delta bytes against the global capacity, failing without
// side effects when it would overflow.
func (c *Sharded) reserve(delta int64) bool {
	for {
		u := c.used.Load()
		if u+delta > c.capacity {
			return false
		}
		if c.used.CompareAndSwap(u, u+delta) {
			return true
		}
	}
}

// syncGauges publishes occupancy from the global atomics; callers may hold a
// shard lock but never more than one.
func (c *Sharded) syncGauges() {
	c.met.OccupancyBytes.Set(c.used.Load())
	c.met.ResidentChunks.Set(c.resident.Load())
}

// Shards reports the stripe count.
func (c *Sharded) Shards() int { return len(c.shards) }

// SetListener implements Store.
func (c *Sharded) SetListener(l Listener) { c.listener = l }

// Capacity implements Store: the combined byte bound of both tiers.
func (c *Sharded) Capacity() int64 { return c.capacity + c.cold.occupancy().ColdCapacity }

// Used implements Store: hot bytes plus compressed cold bytes.
func (c *Sharded) Used() int64 { return c.used.Load() + c.cold.occupancy().ColdUsed }

// Len implements Store: residents across both tiers.
func (c *Sharded) Len() int { return int(c.resident.Load() + c.cold.occupancy().ColdChunks) }

// Stats implements Store, reading the metrics bundle.
func (c *Sharded) Stats() Stats {
	return Stats{
		Hits:      c.met.Hits.Value(),
		Misses:    c.met.Misses.Value(),
		Inserts:   c.met.Inserts.Value(),
		Evictions: c.met.EvictionsPolicy.Value(),
		Denied:    c.met.Denied.Value(),
	}
}

// Get implements Store.
func (c *Sharded) Get(k Key) (*chunk.Chunk, bool) {
	data, _, _, ok := c.GetInfo(k)
	return data, ok
}

// GetInfo implements Store: a hot hit counts as an access. A hot miss is
// served by the cold tier when it holds k (see coldGet), with the class and
// benefit k was demoted with; k stays cold. Either way the lookup counts as
// one hit or one miss.
func (c *Sharded) GetInfo(k Key) (*chunk.Chunk, Class, float64, bool) {
	s := c.shard(k)
	s.mu.Lock()
	if e, ok := s.entries[k]; ok {
		s.policy.Accessed(e)
		data, cl, benefit := e.Data, e.Class, e.Benefit
		s.mu.Unlock()
		c.met.Hits.Inc()
		return data, cl, benefit, true
	}
	s.mu.Unlock()
	if c.cold != nil {
		if data, cl, benefit, ok := c.coldGet(k); ok {
			c.met.Hits.Inc()
			return data, cl, benefit, true
		}
	}
	c.met.Misses.Inc()
	return nil, 0, 0, false
}

// Peek returns k's payload, hot first, then a cold decode, without touching
// recency or counting hits/misses — a diagnostic read (Explain, tests).
func (c *Sharded) Peek(k Key) (*chunk.Chunk, bool) {
	s := c.shard(k)
	s.mu.Lock()
	e, ok := s.entries[k]
	var data *chunk.Chunk
	if ok {
		data = e.Data
	}
	s.mu.Unlock()
	if ok {
		return data, true
	}
	ce, ok := c.cold.peek(k)
	if !ok {
		return nil, false
	}
	data, err := chunk.DecodePayload(k.GB, k.Num, ce.enc)
	if err != nil {
		return nil, false
	}
	return data, true
}

// Insert implements Store: it makes data resident under k, evicting from k's
// stripe per the policy as needed, and reports whether the chunk was
// admitted. With no options the chunk enters as a backend-class resident with
// zero benefit; see InsertOption for the residency variants. Re-inserting a
// resident key replaces the payload, re-charges the byte delta (evicting if
// the store overflows), refreshes class/benefit and counts as an access;
// presence is unchanged, so no listener event fires. A chunk larger than the
// whole store is not admitted, and a replacement that is denied leaves the old
// entry resident. An insert of a cold-resident key is denied: the cold copy
// already answers it. Room is bounded by both the stripe limit (local
// evictions) and the global capacity (reserved atomically); see
// makeRoomLocked.
func (c *Sharded) Insert(k Key, data *chunk.Chunk, opts ...InsertOption) bool {
	return c.insert(k, data, applyInsertOptions(opts))
}

func (c *Sharded) insert(k Key, data *chunk.Chunk, spec insertSpec) bool {
	need := data.Bytes()
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if need > c.capacity {
		c.met.Denied.Inc()
		return false
	}
	if e, ok := s.entries[k]; ok {
		delta := need - e.Bytes()
		if delta > 0 {
			// Shield the entry being replaced from the victim scan.
			e.pins++
			if !c.makeRoomLocked(s, need, delta, spec.class) {
				e.pins--
				c.met.Denied.Inc()
				return false
			}
			e.pins--
		} else {
			c.used.Add(delta)
		}
		s.used += delta
		e.Data = data
		if e.Class != spec.class {
			// Migrate to the ring matching the new class.
			s.policy.Removed(e)
			e.Class = spec.class
			s.policy.Added(e)
		}
		e.Benefit = spec.benefit
		// e.Recycled keeps its insert-time value: replacement fires no
		// listener events, and the strategy's eviction dual must match
		// whatever maintenance OnInsert performed for this residency.
		s.policy.Accessed(e)
		c.met.Replacements.Inc()
		c.syncGauges()
		return true
	}
	if c.cold.contains(k) {
		// The cold copy already answers k. Decided here, under the stripe
		// lock that serializes this key's tier transitions, so k is never
		// resident in both tiers.
		c.met.Denied.Inc()
		return false
	}
	if !c.makeRoomLocked(s, need, need, spec.class) {
		c.met.Denied.Inc()
		return false
	}
	e := &Entry{Key: k, Data: data, Class: spec.class, Benefit: spec.benefit, Recycled: spec.recycled}
	s.entries[k] = e
	s.used += need
	c.resident.Add(1)
	c.met.Inserts.Inc()
	s.policy.Added(e)
	c.syncGauges()
	if c.listener != nil {
		c.listener.OnInsert(e)
	}
	return true
}

// makeRoomLocked evicts from s (locked by the caller) until delta more
// bytes — the growth an arriving chunk of need bytes causes — fit under both
// the stripe limit and the global capacity, reserving the global bytes on
// success. The stripe limit shares capacity between stripes; it is not an
// admission bound: a chunk above it may hold its stripe alone, so only what
// the whole store cannot hold is refused for size. It reports false — with
// nothing reserved — when the policy runs out of victims first: other
// stripes' bytes are not this one's to evict.
func (c *Sharded) makeRoomLocked(s *shard, need, delta int64, cl Class) bool {
	limit := max(c.limit, need)
	for s.used+delta > limit || !c.reserve(delta) {
		v := s.policy.NextVictim(cl)
		if v == nil {
			return false
		}
		c.evictLocked(s, v)
	}
	return true
}

// evictLocked drops the policy's victim e from s (locked by the caller),
// releasing its global reservation and offering it to the cold tier; the
// listener learns whether it stays answerable (Demoted) or left (Evicted).
func (c *Sharded) evictLocked(s *shard, e *Entry) {
	delete(s.entries, e.Key)
	s.used -= e.Bytes()
	c.used.Add(-e.Bytes())
	c.resident.Add(-1)
	c.met.EvictionsPolicy.Inc()
	c.syncGauges()
	s.policy.Removed(e)
	reason := Evicted
	if c.cold != nil && c.demote(e) {
		reason = Demoted
	}
	if c.listener != nil {
		c.listener.OnEvent(Event{Key: e.Key, Reason: reason, Entry: e})
	}
}

// Pin implements Store. A key that is not hot is pinned where it lives when
// the cold tier holds it (pinCold); a pinned key does not change tiers until
// its last Unpin.
func (c *Sharded) Pin(k Key) bool {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[k]; ok {
		e.pins++
		return true
	}
	if c.pinCold(k) {
		return true
	}
	c.met.PinFailures.Inc()
	return false
}

// Unpin implements Store.
func (c *Sharded) Unpin(k Key) {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[k]; ok {
		if e.pins > 0 {
			e.pins--
		}
		return
	}
	c.cold.unpin(k)
}

// Reinforce implements Store — the two-level policy's group maintenance
// (§6.3: "whenever a group of chunks is used to compute another chunk, the
// clock value of all the chunks in the group is incremented by ... the
// benefit of the aggregated chunk"). Keys are grouped by stripe via a bitmask
// (MaxShards ≤ 64 keeps it one word) so each involved stripe's lock is taken
// exactly once regardless of group size.
func (c *Sharded) Reinforce(keys []Key, benefit float64) {
	var mask uint64
	for _, k := range keys {
		mask |= 1 << c.shardIndex(k)
	}
	for mask != 0 {
		i := uint64(bits.TrailingZeros64(mask))
		mask &^= 1 << i
		s := &c.shards[i]
		s.mu.Lock()
		for _, k := range keys {
			if c.shardIndex(k) != i {
				continue
			}
			if e, ok := s.entries[k]; ok {
				s.policy.Reinforced(e, benefit)
			}
		}
		s.mu.Unlock()
	}
}

// Range implements Store over both tiers, visiting shards one at a time; fn
// runs under the owning shard's lock and must not call back into the store.
// Cold residents follow, decoded per call (Range is a snapshot/diagnostic
// path, not a hot path), with fn outside every lock.
func (c *Sharded) Range(fn func(k Key, data *chunk.Chunk, cl Class, benefit float64, recycled bool)) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for k, e := range s.entries {
			fn(k, e.Data, e.Class, e.Benefit, e.Recycled)
		}
		s.mu.Unlock()
	}
	for _, e := range c.cold.snapshot() {
		data, err := chunk.DecodePayload(e.key.GB, e.key.Num, e.enc)
		if err != nil {
			continue
		}
		fn(e.key, data, e.class, e.benefit, e.recycled)
	}
}
