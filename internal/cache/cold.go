package cache

import (
	"sync"

	"aggcache/internal/chunk"
)

// coldEntryOverhead is the fixed footprint charged per cold-tier entry on
// top of its encoded payload: map slot, struct, list links.
const coldEntryOverhead = 64

// coldEntry is one compressed resident of the cold tier. The residency
// attributes (class, benefit, recycled) are preserved verbatim so a later
// promotion restores the chunk's exact pre-demotion standing.
type coldEntry struct {
	key      Key
	enc      []byte // codec-encoded cells (chunk.AppendPayload)
	rawBytes int64  // uncompressed footprint, for the compression-ratio gauge
	class    Class
	benefit  float64
	recycled bool
	// holds counts what shields the entry from cold-pressure eviction: one
	// per pin (a plan leaf read in place) plus one while an insert promotes
	// it (see coldTier.hold). pins counts the holds that are pins, and pinned
	// is the payload the first of them decoded, served by Get until the last
	// Unpin (nil while pins is 0).
	holds, pins int
	pinned      *chunk.Chunk

	newer, older *coldEntry // intrusive LRU list
}

// bytes returns the entry's charged cold-tier footprint.
func (e *coldEntry) bytes() int64 { return int64(len(e.enc)) + coldEntryOverhead }

// coldTier is the compressed in-RAM second tier: a byte-bounded map of
// codec-encoded payloads in LRU order (recency = demotion or pin time).
// It is deliberately not a Store — it holds opaque compressed residents with
// no policy and no listener; the Tiered wrapper owns all event plumbing.
// All methods synchronize on mu; none call out while holding it, so a caller
// may hold a hot-shard lock (the demotion and pin paths do).
type coldTier struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	raw      int64 // sum of rawBytes over residents
	held     int64 // sum of bytes() over held residents
	entries  map[Key]*coldEntry
	newest   *coldEntry
	oldest   *coldEntry
}

func newColdTier(capacity int64) *coldTier {
	return &coldTier{capacity: capacity, entries: make(map[Key]*coldEntry)}
}

// unlink removes e from the LRU list; caller holds mu.
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

// pushNewest links e at the head of the LRU list; caller holds mu.
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

// dropLocked removes e entirely; caller holds mu.
func (t *coldTier) dropLocked(e *coldEntry) {
	t.unlink(e)
	delete(t.entries, e.key)
	t.used -= e.bytes()
	t.raw -= e.rawBytes
	if e.holds > 0 {
		t.held -= e.bytes()
	}
}

// holdLocked and releaseLocked take and drop one hold on e; caller holds mu.
func (t *coldTier) holdLocked(e *coldEntry) {
	if e.holds == 0 {
		t.held += e.bytes()
	}
	e.holds++
}

func (t *coldTier) releaseLocked(e *coldEntry) {
	e.holds--
	if e.holds == 0 {
		t.held -= e.bytes()
	}
}

// add admits a demoted chunk, evicting LRU residents that are not held until
// it fits. It returns the entries evicted to make room and whether the chunk
// was admitted (false when it cannot fit even with every unheld resident
// gone, or the tier is disabled). A key already resident is replaced in
// place.
func (t *coldTier) add(k Key, data *chunk.Chunk, cl Class, benefit float64, recycled bool) (evicted []*coldEntry, ok bool) {
	if t == nil || t.capacity <= 0 {
		return nil, false
	}
	enc := chunk.AppendPayload(make([]byte, 0, chunk.EncodedSize(data)), data)
	e := &coldEntry{key: k, enc: enc, rawBytes: data.Bytes(), class: cl, benefit: benefit, recycled: recycled}
	need := e.bytes()
	t.mu.Lock()
	defer t.mu.Unlock()
	if need > t.capacity-t.held {
		return nil, false
	}
	if old, exists := t.entries[k]; exists {
		t.dropLocked(old)
	}
	// The unheld residents alone free enough room, so the walk ends before
	// running off the list.
	for v := t.oldest; t.used+need > t.capacity; {
		next := v.newer
		if v.holds == 0 {
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
// caller may read them outside the lock; only the Tiered hook (under the hot
// shard lock) removes entries, so a promotion's peek-then-claim is not a
// lost-update hazard.
func (t *coldTier) peek(k Key) (*coldEntry, bool) {
	if t == nil {
		return nil, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[k]
	return e, ok
}

// hold returns k's entry like peek and shields it from cold-pressure
// eviction until release or remove: a promotion holds its key while the hot
// insert makes room, because the victims that insert demotes land here, and
// evicting the promoting key to fit them would report a chunk gone that is
// about to turn hot. A pinned entry is being read in place and stays cold
// until its last Unpin, so hold takes no hold on it and reports pinned.
func (t *coldTier) hold(k Key) (e *coldEntry, ok, pinned bool) {
	if t == nil {
		return nil, false, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok = t.entries[k]; !ok {
		return nil, false, false
	}
	if e.pins > 0 {
		return e, true, true
	}
	t.holdLocked(e)
	return e, true, false
}

// release drops the hold a denied promotion took.
func (t *coldTier) release(k Key) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.entries[k]; ok && e.holds > 0 {
		t.releaseLocked(e)
	}
}

// pin holds k's entry for a plan leaf read in place and moves it to the
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
	t.holdLocked(e)
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
	}
	t.releaseLocked(e)
}

// pinnedPayload returns k's entry and the payload its pins decoded, or a nil
// payload when k holds no cold pin.
func (t *coldTier) pinnedPayload(k Key) (*coldEntry, *chunk.Chunk) {
	if t == nil {
		return nil, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[k]
	if !ok || e.pinned == nil {
		return nil, nil
	}
	return e, e.pinned
}

// dropUnheld removes e if it is still its key's resident and nothing holds
// it, and reports whether it did.
func (t *coldTier) dropUnheld(e *coldEntry) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.entries[e.key] != e || e.holds > 0 {
		return false
	}
	t.dropLocked(e)
	return true
}

// remove drops k without eviction accounting (administrative removal or a
// hot re-insert superseding a stale cold copy).
func (t *coldTier) remove(k Key) (*coldEntry, bool) {
	if t == nil {
		return nil, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[k]
	if !ok {
		return nil, false
	}
	t.dropLocked(e)
	return e, true
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
// counters are Tiered's.
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
