package cache

import (
	"container/heap"
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"aggcache/internal/chunk"
	"aggcache/internal/obs"
)

// coldEntryOverhead is the fixed footprint charged per cold-tier entry on
// top of its encoded payload: the entry's allocation (the struct rounded up
// to its allocator size class; the classes between 32 and 256 bytes are
// multiples of 16), its map slot (key and value, plus a word for the control
// byte and the free slots the table keeps) and its victim-heap slot. Ghost
// keys are not charged.
const coldEntryOverhead = int64((unsafe.Sizeof(coldEntry{})+15)&^15 +
	unsafe.Sizeof(Key{}) + 2*unsafe.Sizeof(uintptr(0)) +
	unsafe.Sizeof(uintptr(0)))

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

	// prio is the entry's GreedyDual-Size priority as of its last touch (add,
	// pin or lookup outside a pin): the tier's inflation then plus value().
	// touch numbers that touch; slot is the entry's index in the victim heap,
	// -1 while a pin holds it off.
	prio  float64
	touch uint64
	slot  int
}

// bytes returns the entry's charged cold-tier footprint.
func (e *coldEntry) bytes() int64 { return int64(len(e.enc)) + coldEntryOverhead }

// value is the entry's benefit per charged byte: what re-obtaining the chunk
// would cost, for each byte of the tier it holds.
func (e *coldEntry) value() float64 { return e.benefit / float64(e.bytes()) }

// coldHeap is the cold tier's victim order, a min-heap of its unpinned
// residents by priority, the older touch first on a tie
// (container/heap.Interface; each entry records its slot).
type coldHeap []*coldEntry

func (h coldHeap) Len() int { return len(h) }

func (h coldHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	return a.prio < b.prio || a.prio == b.prio && a.touch < b.touch
}

func (h coldHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].slot, h[j].slot = i, j
}

func (h *coldHeap) Push(x any) {
	e := x.(*coldEntry)
	e.slot = len(*h)
	*h = append(*h, e)
}

func (h *coldHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	old[len(old)-1] = nil
	e.slot = -1
	*h = old[:len(old)-1]
	return e
}

// coldTier is the compressed in-RAM second tier of a Sharded store: a
// byte-bounded map of codec-encoded payloads that evicts by GreedyDual-Size
// (Cao & Irani, USITS 1997) over the benefit each entry carries. An entry's
// priority is H = L + benefit/bytes(), set when it is added, pinned or looked
// up outside a pin; L, the tier's inflation, is the largest H evicted so far,
// so an entry not touched since ages below the ones that were. Cold pressure
// evicts the unpinned entry with the least H, the older touch first on a tie,
// so entries of equal benefit per byte leave in least recently used order.
// Dividing by bytes is what pays: per byte held, a small chunk that is dear
// to recompute is worth more than a large one that is cheap (EXPERIMENTS.md,
// "Cold tier by value"). It is deliberately not a Store — it keeps
// opaque compressed residents with no policy and no listener; the Sharded
// store that owns it makes every tier decision and fires every event.
// All methods synchronize on mu; none call out while holding it, so a caller
// may hold a stripe lock (the demotion, insert and pin paths do). The
// methods a flat store reaches accept a nil receiver: no cold tier holds
// nothing.
//
// The tier's byte bound is its share of the store's budget, budget less the
// hot share. mu also guards the boundary between the shares (budget.go):
// the hot share is written only under it, so the cold share is stable while
// mu is held, and the ghosts and the fill mean that price a move live here.
type coldTier struct {
	mu      sync.Mutex
	budget  int64         // hot + cold bytes, fixed
	hot     *atomic.Int64 // the owning store's hot share
	hotInit int64         // the configured hot share
	used    int64
	raw     int64 // sum of rawBytes over residents
	held    int64 // sum of bytes() over pinned residents
	entries map[Key]*coldEntry
	victims coldHeap // the unpinned residents; a pinned one rejoins at its last unpin
	// inflation is GreedyDual-Size's L, the largest priority evicted so far;
	// it never decreases. clock numbers touches.
	inflation float64
	clock     uint64

	coldMax   int64   // largest bytes() ever admitted: the cold floor
	fillMean  float64 // running mean benefit of fresh inserts
	owed      int64   // bytes of a move toward hot not yet handed over
	hotGhost  ghost   // recently demoted keys
	coldGhost ghost   // keys dropped under cold pressure
	frozen    bool    // tests only (export_test.go): the boundary never moves
}

func newColdTier(budget int64, hot *atomic.Int64) *coldTier {
	return &coldTier{budget: budget, hot: hot, hotInit: hot.Load(), entries: make(map[Key]*coldEntry)}
}

// shareLocked is the cold tier's byte bound; mu is locked by the caller.
func (t *coldTier) shareLocked() int64 { return t.budget - t.hot.Load() }

// touchLocked refreshes e's priority at the current inflation and makes it
// the newest touch; mu is locked by the caller.
func (t *coldTier) touchLocked(e *coldEntry) {
	t.clock++
	e.prio, e.touch = t.inflation+e.value(), t.clock
	if e.slot >= 0 {
		heap.Fix(&t.victims, e.slot)
	}
}

// dropLocked removes e entirely; mu is locked by the caller.
func (t *coldTier) dropLocked(e *coldEntry) {
	if e.slot >= 0 {
		heap.Remove(&t.victims, e.slot)
	}
	delete(t.entries, e.key)
	t.used -= e.bytes()
	t.raw -= e.rawBytes
	if e.pins > 0 {
		t.held -= e.bytes()
	}
}

// evictLocked drops the least-priority unpinned resident for cold-tier room,
// raises the inflation to its priority, and remembers its key on the cold
// ghost; mu is locked by the caller, and hotResidents is the hot tier's
// resident count. A pinned entry rejoins the heap with the priority of its
// last touch, which may lie below the inflation by then; evicting it leaves
// the inflation where it is.
func (t *coldTier) evictLocked(hotResidents int) *coldEntry {
	e := t.victims[0]
	t.inflation = max(t.inflation, e.prio)
	t.dropLocked(e)
	t.coldGhost.push(e.key, t.ghostBoundLocked(hotResidents))
	return e
}

// ghostBoundLocked is the number of keys each ghost remembers: four times the
// store's residents, so a ghost hit speaks for reuse well past what either
// tier holds. Bounded by their own tier's residents, the ghosts shrank with
// the tier that was losing room and the boundary stopped wherever it
// drifted; at twice the store's residents, paper_mix_open's split took 14 of
// its 20 seconds to leave the configured split (EXPERIMENTS.md, "One
// budget"). mu is locked by the caller.
func (t *coldTier) ghostBoundLocked(hotResidents int) int {
	return 4 * (hotResidents + len(t.entries))
}

// add admits a demoted chunk, evicting the unpinned residents of least
// priority until it fits, and remembers k on the hot ghost; hotResidents is
// the hot tier's resident count. It returns the entries evicted to make room
// and whether the chunk was admitted (false when it cannot fit even with
// every unpinned resident gone, or there is no cold tier). A key already
// resident is replaced in place.
func (t *coldTier) add(k Key, data *chunk.Chunk, cl Class, benefit float64, recycled bool, hotResidents int) (evicted []*coldEntry, ok bool) {
	if t == nil {
		return nil, false
	}
	// Refuse before encoding: a payload that cannot fit is never built.
	size := chunk.EncodedSize(data)
	need := int64(size) + coldEntryOverhead
	t.mu.Lock()
	defer t.mu.Unlock()
	share := t.shareLocked()
	if need > share-t.held {
		return nil, false
	}
	e := &coldEntry{key: k, enc: chunk.AppendPayload(make([]byte, 0, size), data),
		rawBytes: data.Bytes(), class: cl, benefit: benefit, recycled: recycled, slot: -1}
	if old, exists := t.entries[k]; exists {
		t.dropLocked(old)
	}
	// The unpinned residents alone free enough room, so the heap does not
	// run dry first.
	for t.used+need > share {
		evicted = append(evicted, t.evictLocked(hotResidents))
	}
	t.entries[k] = e
	t.touchLocked(e)
	heap.Push(&t.victims, e)
	t.used += need
	t.raw += e.rawBytes
	t.coldMax = max(t.coldMax, need)
	t.hotGhost.push(k, t.ghostBoundLocked(hotResidents))
	return evicted, true
}

// peek returns the entry for k without removing it or touching priority. The
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

// pin shields k's entry for a plan leaf read in place, taking it off the
// victim heap until its last unpin, and refreshes its priority. It returns
// the payload an earlier, still-held pin decoded, or nil when this is the
// only pin: the caller then decodes the entry and publishes the payload with
// setPinned. ghostHit reports that the decode is of a key on the hot ghost
// (which it leaves).
func (t *coldTier) pin(k Key) (e *coldEntry, data *chunk.Chunk, ghostHit, ok bool) {
	if t == nil {
		return nil, nil, false, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok = t.entries[k]; !ok {
		return nil, nil, false, false
	}
	if e.pins == 0 {
		t.held += e.bytes()
		heap.Remove(&t.victims, e.slot)
	}
	e.pins++
	t.touchLocked(e)
	return e, e.pinned, e.pinned == nil && t.hotGhost.take(k), true
}

// setPinned publishes the payload the first pin of e decoded.
func (t *coldTier) setPinned(e *coldEntry, data *chunk.Chunk) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e.pinned = data
}

// unpin releases one pin on k; the last forgets the decoded payload and
// returns the entry to the victim heap.
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
		heap.Push(&t.victims, e)
	}
}

// lookup returns k's entry and the payload its pins decoded, or a nil
// payload when none has been published. Without that payload the lookup
// refreshes the entry's priority: a lookup outside a pin uses the chunk as a
// pin does, and its decode may be a hot ghost hit, as pin's.
func (t *coldTier) lookup(k Key) (e *coldEntry, data *chunk.Chunk, ghostHit, ok bool) {
	if t == nil {
		return nil, nil, false, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok = t.entries[k]; !ok {
		return nil, nil, false, false
	}
	if e.pinned != nil {
		return e, e.pinned, false, true
	}
	t.touchLocked(e)
	return e, nil, t.hotGhost.take(k), true
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

// contains reports cold residence without touching priority.
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
		HotCapacity:  t.hot.Load(),
		ColdCapacity: t.shareLocked(),
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

	ColdCapacity int64 // cold-tier byte bound: the cold share of the budget
	ColdUsed     int64 // compressed bytes charged
	ColdRawBytes int64 // uncompressed footprint of the same residents
	ColdChunks   int64 // cold residents

	// HotCapacity is the hot share of the budget; it and ColdCapacity sum to
	// the store's Capacity. The ghost hits are the events that move the
	// boundary between them (see NewTiered).
	HotCapacity   int64
	HotGhostHits  int64 // cold decodes of recently demoted chunks
	ColdGhostHits int64 // fresh inserts of chunks the cold tier dropped
}

// NewTiered gives hot a compressed cold tier and returns it: hot-tier victims
// are delta/varint-encoded and demoted to the cold tier instead of dropped
// (see Sharded). From then on the store holds one byte budget, its hot
// capacity plus coldBytes, which Capacity reports; coldBytes is only the
// starting split. The boundary between the hot and the cold share moves
// online, priced by ghost hits and hot-tier pressure (budget.go). Call it
// before the store serves traffic. It refuses a non-positive capacity and a
// store that already has a cold tier.
func NewTiered(hot *Sharded, coldBytes int64) (*Sharded, error) {
	if coldBytes <= 0 {
		return nil, fmt.Errorf("cache: cold tier capacity must be positive, got %d", coldBytes)
	}
	if hot.cold != nil {
		return nil, fmt.Errorf("cache: store already has a cold tier")
	}
	hot.capacity += coldBytes
	hot.cold = newColdTier(hot.capacity, &hot.hotCap)
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
	ts.HotGhostHits = c.tmet.HotGhostHits.Value()
	ts.ColdGhostHits = c.tmet.ColdGhostHits.Value()
	return ts
}

// syncTierGauges publishes the split and cold-tier occupancy.
func (c *Sharded) syncTierGauges() {
	o := c.cold.occupancy()
	c.met.CapacityBytes.Set(c.hotCap.Load())
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
	victims, ok := c.cold.add(e.Key, e.Data, e.Class, e.Benefit, e.Recycled, int(c.resident.Load()))
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
	e, data, ghostHit, ok := c.cold.pin(k)
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
	if ghostHit {
		c.hotGhostHit(data)
	}
	return true
}

// coldGet serves a hot miss of k from the cold tier: under a pin, the
// payload the pin decoded (the Pin counted the cold hit); otherwise the cold
// copy decoded for this lookup alone. A miss in both tiers counts as a cold
// miss.
func (c *Sharded) coldGet(k Key) (*chunk.Chunk, Class, float64, bool) {
	e, data, ghostHit, ok := c.cold.lookup(k)
	if ok && data == nil {
		var err error
		if data, err = chunk.DecodePayload(k.GB, k.Num, e.enc); err != nil {
			c.dropUndecodable(e)
			ok = false
		} else {
			c.tmet.ColdHits.Inc()
			if ghostHit {
				c.hotGhostHit(data)
			}
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
