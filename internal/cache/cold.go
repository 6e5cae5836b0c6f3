package cache

import (
	"fmt"
	"sync"

	"aggcache/internal/chunk"
	"aggcache/internal/obs"
)

// coldEntryOverhead is the fixed footprint charged per cold-tier entry on
// top of its encoded payload: map slot, struct, list links.
const coldEntryOverhead = 64

// coldEntry is one compressed resident of the cold tier. The residency
// attributes (class, benefit, recycled) are preserved verbatim, so a cold
// read reports the chunk's exact pre-demotion standing.
type coldEntry struct {
	key      Key
	enc      []byte // codec-encoded cells (chunk.AppendPayload)
	rawBytes int64  // uncompressed footprint, for the compression-ratio gauge
	class    Class
	benefit  float64
	recycled bool
	// pins counts the plan leaves reading the entry in place, which shield
	// it from cold-pressure eviction; pinned is the payload the first of them
	// decoded, served by Get until the last Unpin (nil while pins is 0).
	pins   int
	pinned *chunk.Chunk

	newer, older *coldEntry // intrusive LRU list
}

// bytes returns the entry's charged cold-tier footprint.
func (e *coldEntry) bytes() int64 { return int64(len(e.enc)) + coldEntryOverhead }

// coldTier is the compressed in-RAM second tier of a Sharded store: a
// byte-bounded map of codec-encoded payloads in LRU order (recency =
// demotion, pin or lookup time). It is deliberately not a Store — it keeps
// opaque compressed residents with no policy and no listener; the Sharded
// store that owns it makes every tier decision and fires every event.
// All methods synchronize on mu; none call out while holding it, so a caller
// may hold a stripe lock (the demotion, insert and pin paths do). The
// methods a flat store reaches accept a nil receiver: no cold tier holds
// nothing.
type coldTier struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	raw      int64 // sum of rawBytes over residents
	held     int64 // sum of bytes() over pinned residents
	entries  map[Key]*coldEntry
	newest   *coldEntry
	oldest   *coldEntry
}

func newColdTier(capacity int64) *coldTier {
	return &coldTier{capacity: capacity, entries: make(map[Key]*coldEntry)}
}

// unlink removes e from the LRU list; mu is locked by the caller.
func (t *coldTier) unlink(e *coldEntry) {
	if e.newer != nil {
		e.newer.older = e.older
	} else {
		t.newest = e.older
	}
	if e.older != nil {
		e.older.newer = e.newer
	} else {
		t.oldest = e.newer
	}
	e.newer, e.older = nil, nil
}

// pushNewest links e at the head of the LRU list; mu is locked by the caller.
func (t *coldTier) pushNewest(e *coldEntry) {
	e.older = t.newest
	e.newer = nil
	if t.newest != nil {
		t.newest.newer = e
	}
	t.newest = e
	if t.oldest == nil {
		t.oldest = e
	}
}

// dropLocked removes e entirely; mu is locked by the caller.
func (t *coldTier) dropLocked(e *coldEntry) {
	t.unlink(e)
	delete(t.entries, e.key)
	t.used -= e.bytes()
	t.raw -= e.rawBytes
	if e.pins > 0 {
		t.held -= e.bytes()
	}
}

// add admits a demoted chunk, evicting LRU residents that are not pinned
// until it fits. It returns the entries evicted to make room and whether the
// chunk was admitted (false when it cannot fit even with every unpinned
// resident gone, or there is no cold tier). A key already resident is
// replaced in place.
func (t *coldTier) add(k Key, data *chunk.Chunk, cl Class, benefit float64, recycled bool) (evicted []*coldEntry, ok bool) {
	if t == nil {
		return nil, false
	}
	// Refuse before encoding: a payload that cannot fit is never built.
	size := chunk.EncodedSize(data)
	need := int64(size) + coldEntryOverhead
	t.mu.Lock()
	defer t.mu.Unlock()
	if need > t.capacity-t.held {
		return nil, false
	}
	e := &coldEntry{key: k, enc: chunk.AppendPayload(make([]byte, 0, size), data),
		rawBytes: data.Bytes(), class: cl, benefit: benefit, recycled: recycled}
	if old, exists := t.entries[k]; exists {
		t.dropLocked(old)
	}
	// The unpinned residents alone free enough room, so the walk ends before
	// running off the list.
	for v := t.oldest; t.used+need > t.capacity; {
		next := v.newer
		if v.pins == 0 {
			t.dropLocked(v)
			evicted = append(evicted, v)
		}
		v = next
	}
	t.entries[k] = e
	t.pushNewest(e)
	t.used += need
	t.raw += e.rawBytes
	return evicted, true
}

// peek returns the entry for k without removing it or touching recency. The
// returned entry's payload and attributes are immutable after add, so the
// caller may read them outside the lock.
func (t *coldTier) peek(k Key) (*coldEntry, bool) {
	if t == nil {
		return nil, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[k]
	return e, ok
}

// pin shields k's entry for a plan leaf read in place and moves it to the
// newest end of the LRU. It returns the payload an earlier, still-held pin
// decoded, or nil when this is the only pin: the caller then decodes the
// entry and publishes the payload with setPinned.
func (t *coldTier) pin(k Key) (e *coldEntry, data *chunk.Chunk, ok bool) {
	if t == nil {
		return nil, nil, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok = t.entries[k]; !ok {
		return nil, nil, false
	}
	if e.pins == 0 {
		t.held += e.bytes()
	}
	e.pins++
	t.unlink(e)
	t.pushNewest(e)
	return e, e.pinned, true
}

// setPinned publishes the payload the first pin of e decoded.
func (t *coldTier) setPinned(e *coldEntry, data *chunk.Chunk) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e.pinned = data
}

// unpin releases one pin on k and forgets the decoded payload with the last.
func (t *coldTier) unpin(k Key) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[k]
	if !ok || e.pins == 0 {
		return
	}
	e.pins--
	if e.pins == 0 {
		e.pinned = nil
		t.held -= e.bytes()
	}
}

// lookup returns k's entry and the payload its pins decoded, or a nil
// payload when no pin shields it. An unpinned entry moves to the newest end of
// the LRU: a lookup outside a pin uses the chunk as a pin does.
func (t *coldTier) lookup(k Key) (*coldEntry, *chunk.Chunk, bool) {
	if t == nil {
		return nil, nil, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[k]
	if !ok {
		return nil, nil, false
	}
	if e.pinned == nil {
		t.unlink(e)
		t.pushNewest(e)
	}
	return e, e.pinned, true
}

// dropUnpinned removes e if it is still its key's resident and no pin shields
// it, and reports whether it did.
func (t *coldTier) dropUnpinned(e *coldEntry) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.entries[e.key] != e || e.pins > 0 {
		return false
	}
	t.dropLocked(e)
	return true
}

// contains reports cold residence without touching recency.
func (t *coldTier) contains(k Key) bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	_, ok := t.entries[k]
	return ok
}

// snapshot returns a copy of every resident entry (order unspecified); the
// encoded payloads are shared, not copied — they are immutable once added.
func (t *coldTier) snapshot() []*coldEntry {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*coldEntry, 0, len(t.entries))
	for _, e := range t.entries {
		out = append(out, e)
	}
	return out
}

// occupancy snapshots the tier's capacity and footprint; the traffic
// counters are the owning store's.
func (t *coldTier) occupancy() TierStats {
	if t == nil {
		return TierStats{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return TierStats{
		ColdCapacity: t.capacity,
		ColdUsed:     t.used,
		ColdRawBytes: t.raw,
		ColdChunks:   int64(len(t.entries)),
	}
}

// TierStats is the cold-tier activity and occupancy snapshot of a Sharded
// store: the demote traffic into the cold tier, cold-tier hit/miss counts,
// and the compressed vs raw byte footprint (their ratio is the effective
// compression). The traffic counters are read from the store's tier metrics
// bundle, the occupancy from the cold tier itself. A store without a cold
// tier reports the zero value.
type TierStats struct {
	ColdHits   int64 // pins and lookups a cold resident served (a Get under a cold pin is that pin's hit)
	ColdMisses int64 // lookups that missed both tiers
	// Promotes is always 0: nothing moves a chunk from the cold tier back to
	// the hot tier. The field stays while the end-to-end benchmark still
	// reports cache.promotes_per_query from it.
	Promotes     int64
	Demotes      int64 // hot-tier victims re-admitted compressed
	DemoteDenied int64 // victims the cold tier refused (larger than its unpinned room)
	ColdEvicts   int64 // cold residents dropped for cold-tier space, or because they no longer decode

	ColdCapacity int64 // cold-tier byte bound
	ColdUsed     int64 // compressed bytes charged
	ColdRawBytes int64 // uncompressed footprint of the same residents
	ColdChunks   int64 // cold residents
}

// NewTiered gives hot a compressed cold tier of coldBytes capacity and
// returns it: hot-tier victims are delta/varint-encoded and demoted to the
// cold tier instead of dropped (see Sharded). Call it before the store
// serves traffic. It refuses a non-positive capacity and a store that
// already has a cold tier.
func NewTiered(hot *Sharded, coldBytes int64) (*Sharded, error) {
	if coldBytes <= 0 {
		return nil, fmt.Errorf("cache: cold tier capacity must be positive, got %d", coldBytes)
	}
	if hot.cold != nil {
		return nil, fmt.Errorf("cache: store already has a cold tier")
	}
	hot.cold = newColdTier(coldBytes)
	hot.SetTierMetrics(obs.NewTierMetrics(nil))
	return hot, nil
}

// SetTierMetrics makes the cold tier count into m — a bundle registered with
// obs.NewTierMetrics, so /metrics exports what TierStats reports. Call it
// before serving traffic: counts already taken stay in the old bundle.
func (c *Sharded) SetTierMetrics(m obs.TierMetrics) {
	c.tmet = m
	c.syncTierGauges()
}

// TierStats reports the cold tier's traffic, from the tier metrics bundle,
// and its occupancy; the zero value without a cold tier.
func (c *Sharded) TierStats() TierStats {
	if c.cold == nil {
		return TierStats{}
	}
	ts := c.cold.occupancy()
	ts.ColdHits = c.tmet.ColdHits.Value()
	ts.ColdMisses = c.tmet.ColdMisses.Value()
	ts.Demotes = c.tmet.Demotes.Value()
	ts.DemoteDenied = c.tmet.DemoteDenied.Value()
	ts.ColdEvicts = c.tmet.ColdEvictions.Value()
	return ts
}

// syncTierGauges publishes cold-tier capacity and occupancy.
func (c *Sharded) syncTierGauges() {
	o := c.cold.occupancy()
	c.tmet.ColdCapacityBytes.Set(o.ColdCapacity)
	c.tmet.ColdOccupancyBytes.Set(o.ColdUsed)
	c.tmet.ColdRawBytes.Set(o.ColdRawBytes)
	c.tmet.ColdChunks.Set(o.ColdChunks)
}

// coldGone tells the listener that cold resident e was evicted and has left
// the store.
func (c *Sharded) coldGone(e *coldEntry) {
	if c.listener != nil {
		c.listener.OnEvent(Event{
			Key:    e.key,
			Reason: Evicted,
			Entry:  &Entry{Key: e.key, Class: e.class, Benefit: e.benefit, Recycled: e.recycled},
		})
	}
}

// demote offers policy-evicted hot entry e to the cold tier and reports
// whether it was admitted (the eviction then becomes a Demoted event); the
// caller holds e's stripe lock. Chunks the cold tier displaces in turn are
// gone for good, so their Evicted events fire here (the displaced keys are
// cold-resident and therefore, by the residency invariant, not hot).
func (c *Sharded) demote(e *Entry) bool {
	victims, ok := c.cold.add(e.Key, e.Data, e.Class, e.Benefit, e.Recycled)
	if ok {
		c.tmet.Demotes.Inc()
	} else {
		c.tmet.DemoteDenied.Inc()
	}
	for _, v := range victims {
		c.tmet.ColdEvictions.Inc()
		c.coldGone(v)
	}
	c.syncTierGauges()
	return ok
}

// pinCold pins k's cold copy where it lives, for a Pin of a key that is not
// hot, and reports whether k was cold-resident; the caller holds k's stripe
// lock. The pin reads k in place, so it cannot fail for lack of hot-tier
// room. The first pin decodes the payload the Gets under every overlapping
// pin are served.
func (c *Sharded) pinCold(k Key) bool {
	e, data, ok := c.cold.pin(k)
	if !ok {
		return false
	}
	if data == nil {
		var err error
		if data, err = chunk.DecodePayload(k.GB, k.Num, e.enc); err != nil {
			c.cold.unpin(k)
			c.dropUndecodable(e)
			return false
		}
		c.cold.setPinned(e, data)
	}
	c.tmet.ColdHits.Inc()
	return true
}

// coldGet serves a hot miss of k from the cold tier: under a pin, the
// payload the pin decoded (the Pin counted the cold hit); otherwise the cold
// copy decoded for this lookup alone. A miss in both tiers counts as a cold
// miss.
func (c *Sharded) coldGet(k Key) (*chunk.Chunk, Class, float64, bool) {
	e, data, ok := c.cold.lookup(k)
	if ok && data == nil {
		var err error
		if data, err = chunk.DecodePayload(k.GB, k.Num, e.enc); err != nil {
			c.dropUndecodable(e)
			ok = false
		} else {
			c.tmet.ColdHits.Inc()
		}
	}
	if !ok {
		c.tmet.ColdMisses.Inc()
		return nil, 0, 0, false
	}
	return data, e.class, e.benefit, true
}

// dropUndecodable drops a cold resident whose payload does not decode, unless
// a pin shields it. This cannot happen short of memory corruption — the tier
// only stores its own encodings — but the chunk is then gone, so it counts
// as a cold eviction and its Evicted event fires: otherwise the strategy
// would go on planning through it.
func (c *Sharded) dropUndecodable(e *coldEntry) {
	if !c.cold.dropUnpinned(e) {
		return
	}
	c.tmet.ColdEvictions.Inc()
	c.syncTierGauges()
	c.coldGone(e)
}
