package cache

import (
	"fmt"
	"sync/atomic"

	"aggcache/internal/chunk"
	"aggcache/internal/obs"
)

// TierStats is the cold-tier activity and occupancy snapshot a Tiered store
// reports: the demote traffic into the cold tier, cold-tier hit/miss counts,
// and the compressed vs raw byte footprint (their ratio is the effective
// compression). The traffic counters are read from the store's tier metrics
// bundle, the occupancy from the cold tier itself.
type TierStats struct {
	ColdHits   int64 // pins and lookups a cold resident served (a Get under a cold pin is that pin's hit)
	ColdMisses int64 // lookups that missed both tiers
	// Promotes is always 0: nothing moves a chunk from the cold tier back to
	// the hot tier. The field stays while the end-to-end benchmark still
	// reports cache.promotes_per_query from it.
	Promotes     int64
	Demotes      int64 // hot-tier victims re-admitted compressed
	DemoteDenied int64 // victims the cold tier refused (oversized or disabled)
	ColdEvicts   int64 // cold residents dropped for cold-tier space, or because they no longer decode

	ColdCapacity int64 // cold-tier byte bound
	ColdUsed     int64 // compressed bytes charged
	ColdRawBytes int64 // uncompressed footprint of the same residents
	ColdChunks   int64 // cold residents
}

// TierStatser is implemented by stores that maintain a compressed cold tier;
// the daemons and the engine's stats surface it without knowing the concrete
// store composition.
type TierStatser interface {
	TierStats() TierStats
}

// tierHook is the package-internal seam between the hot store (Sharded) and
// the Tiered wrapper. Every per-key tier decision is made under the lock
// that serializes that key's hot-store mutations (the shard lock), or two
// racing goroutines could leave a chunk resident in both tiers — and a later
// cold eviction would then fire a spurious Evicted while the chunk still
// answers, corrupting strategy counts. Every method is invoked with that
// lock held; implementations may take the cold tier's lock (lock order is
// always hot shard → cold, never the reverse) and must not call back into
// the hot store.
type tierHook interface {
	// coldResident reports whether k is cold-resident. The fresh-insert path
	// refuses such an insert: the cold copy already answers k, and a key is
	// resident in at most one tier.
	coldResident(k Key) bool
	// demote offers a policy-evicted hot entry to the cold tier and reports
	// whether it was admitted (in which case the eviction becomes a
	// Demoted event).
	demote(e *Entry) bool
	// pinCold pins k's cold copy where it lives, for a Pin of a key that is
	// not hot, and reports whether k was cold-resident.
	pinCold(k Key) bool
	// unpinCold releases one cold pin on k, for an Unpin of a key that is
	// not hot.
	unpinCold(k Key)
}

// hookable is implemented by the hot store: it can host a Tiered wrapper.
// Decorators (Peered, Tiered) cannot — NewTiered rejects them as hot.
type hookable interface {
	setTierHook(h tierHook)
}

// Tiered composes a hot Store with a compressed in-RAM cold tier. Hot-tier
// victims are delta/varint-encoded and demoted to the cold tier instead of
// dropped, and a cold resident answers from the cold tier until cold
// pressure evicts it: nothing moves a chunk back to the hot tier. A pin of a
// cold-resident key shields the cold copy against cold pressure and decodes
// it once for the Gets made under it, so a plan leaf never needs hot-tier
// room; a lookup outside a pin decodes the cold copy for that lookup alone.
// An insert of a cold-resident key is refused, because the cold copy
// already answers it. Listeners registered on the Tiered store observe the
// full event taxonomy: Demoted when a victim stays answerable compressed,
// Evicted only when a chunk truly leaves the store, Removed on Evict.
//
// Residency invariant: a key is resident in at most one tier. Demotion and
// the insert refusal are decided under the hot store's per-key lock (see
// tierHook), so the invariant holds under arbitrary concurrency.
type Tiered struct {
	// hot is the wrapped store, embedded so that the Store methods this file
	// does not define are the hot tier's own: Reinforce (only hot residents
	// carry replacement clocks), and Insert, Pin and Unpin, which consult the
	// cold tier through the tierHook under the lock that serializes the
	// key's transitions (an insert of a cold-resident key is Denied).
	hot
	cold *coldTier
	// outer is the listener registered via SetListener, which also receives
	// the hot store's events; cold-pressure evictions are synthesized here.
	// Set before the store serves traffic, read-only afterwards.
	outer Listener
	// lookupColdHits counts the lookups (Get, GetInfo) a cold resident
	// served — each booked as a hot miss on the way through. A cold Pin is
	// a cold hit too (TierStats.ColdHits) but no lookup.
	lookupColdHits atomic.Int64
	// tmet is the cold tier's one set of traffic counters; TierStats reads
	// it, and /metrics exports it once SetTierMetrics attached a registered
	// bundle.
	tmet obs.TierMetrics
}

// hot names Tiered's embedded field.
type hot = Store

// NewTiered wraps hot with a compressed cold tier of coldBytes capacity.
// The hot store must be the *Sharded that New builds — not a Peered or
// another Tiered, which own their composition. Register listeners on the
// returned store, not on hot.
func NewTiered(hot Store, coldBytes int64) (*Tiered, error) {
	if coldBytes <= 0 {
		return nil, fmt.Errorf("cache: cold tier capacity must be positive, got %d", coldBytes)
	}
	h, ok := hot.(hookable)
	if !ok {
		return nil, fmt.Errorf("cache: %T cannot host a cold tier", hot)
	}
	t := &Tiered{hot: hot, cold: newColdTier(coldBytes)}
	t.SetTierMetrics(obs.NewTierMetrics(nil))
	h.setTierHook(t)
	return t, nil
}

// coldGone tells the listener that cold resident e has left the store.
func (t *Tiered) coldGone(e *coldEntry, r EventReason) {
	if t.outer != nil {
		t.outer.OnEvent(Event{
			Key:    e.key,
			Reason: r,
			Entry:  &Entry{Key: e.key, Class: e.class, Benefit: e.benefit, Recycled: e.recycled},
		})
	}
}

// coldResident implements tierHook.
func (t *Tiered) coldResident(k Key) bool { return t.cold.contains(k) }

// demote implements tierHook: encode the victim and admit it to the cold
// tier; chunks the cold tier displaces in turn are gone for good, so their
// Evicted events fire here (the displaced keys are cold-resident and
// therefore — by the residency invariant — not hot-resident).
func (t *Tiered) demote(e *Entry) bool {
	victims, ok := t.cold.add(e.Key, e.Data, e.Class, e.Benefit, e.Recycled)
	if ok {
		t.tmet.Demotes.Inc()
	} else {
		t.tmet.DemoteDenied.Inc()
	}
	for _, v := range victims {
		t.tmet.ColdEvictions.Inc()
		t.coldGone(v, Evicted)
	}
	t.syncTierGauges()
	return ok
}

// pinCold implements tierHook: the pin reads k where it lives, so it cannot
// fail for lack of hot-tier room. The first pin decodes the payload the
// Gets under every overlapping pin are served.
func (t *Tiered) pinCold(k Key) bool {
	e, data, ok := t.cold.pin(k)
	if !ok {
		return false
	}
	if data == nil {
		var err error
		if data, err = chunk.DecodePayload(k.GB, k.Num, e.enc); err != nil {
			t.cold.unpin(k)
			t.dropUndecodable(e)
			return false
		}
		t.cold.setPinned(e, data)
	}
	t.tmet.ColdHits.Inc()
	return true
}

// unpinCold implements tierHook.
func (t *Tiered) unpinCold(k Key) { t.cold.unpin(k) }

// dropUndecodable drops a cold resident whose payload does not decode, unless
// a pin shields it. This cannot happen short of memory corruption — the tier
// only stores its own encodings — but the chunk is then gone, so it counts
// as a cold eviction and its Evicted event fires: otherwise the strategy
// would go on planning through it.
func (t *Tiered) dropUndecodable(e *coldEntry) {
	if !t.cold.dropUnpinned(e) {
		return
	}
	t.tmet.ColdEvictions.Inc()
	t.syncTierGauges()
	t.coldGone(e, Evicted)
}

// syncTierGauges publishes cold-tier occupancy.
func (t *Tiered) syncTierGauges() {
	o := t.cold.occupancy()
	t.tmet.ColdOccupancyBytes.Set(o.ColdUsed)
	t.tmet.ColdRawBytes.Set(o.ColdRawBytes)
	t.tmet.ColdChunks.Set(o.ColdChunks)
}

// Get implements Store: a hot hit is served as usual. On a hot miss, a key
// pinned in the cold tier is served the payload its pin decoded, and any
// other cold-resident key is decoded where it lives, with its preserved
// class and benefit; it stays cold.
func (t *Tiered) Get(k Key) (*chunk.Chunk, bool) {
	data, _, _, ok := t.GetInfo(k)
	return data, ok
}

// GetInfo implements Store; see Get.
func (t *Tiered) GetInfo(k Key) (*chunk.Chunk, Class, float64, bool) {
	if data, cl, benefit, ok := t.hot.GetInfo(k); ok {
		return data, cl, benefit, true
	}
	e, data, ok := t.cold.lookup(k)
	if ok && data == nil {
		// Outside a pin: decode the cold copy for this lookup alone. (Under a
		// pin, data is the pin's payload and the Pin counted the cold hit.)
		var err error
		if data, err = chunk.DecodePayload(k.GB, k.Num, e.enc); err != nil {
			t.dropUndecodable(e)
			ok = false
		} else {
			t.tmet.ColdHits.Inc()
		}
	}
	if !ok {
		t.tmet.ColdMisses.Inc()
		return nil, 0, 0, false
	}
	t.lookupColdHits.Add(1)
	return data, e.class, e.benefit, true
}

// Peek implements Store: hot first, then a cold decode — without touching
// recency or counting hits/misses.
func (t *Tiered) Peek(k Key) (*chunk.Chunk, bool) {
	if data, ok := t.hot.Peek(k); ok {
		return data, true
	}
	ce, ok := t.cold.peek(k)
	if !ok {
		return nil, false
	}
	data, err := chunk.DecodePayload(k.GB, k.Num, ce.enc)
	if err != nil {
		return nil, false
	}
	return data, true
}

// Evict implements Store: an administrative removal drops the key from
// whichever tier holds it. A cold-side removal fires Removed here (the hot
// store cannot — it never saw the key).
func (t *Tiered) Evict(k Key) bool {
	if t.hot.Evict(k) {
		return true
	}
	e, ok := t.cold.remove(k)
	if !ok {
		return false
	}
	t.syncTierGauges()
	t.coldGone(e, Removed)
	return true
}

// Contains implements Store: resident in either tier.
func (t *Tiered) Contains(k Key) bool {
	return t.hot.Contains(k) || t.cold.contains(k)
}

// Range implements Store over both tiers; cold residents are decoded per
// call (Range is a snapshot/diagnostic path, not a hot path). fn runs
// outside the cold tier's lock for cold entries.
func (t *Tiered) Range(fn func(k Key, data *chunk.Chunk, cl Class, benefit float64, recycled bool)) {
	t.hot.Range(fn)
	for _, e := range t.cold.snapshot() {
		data, err := chunk.DecodePayload(e.key.GB, e.key.Num, e.enc)
		if err != nil {
			continue
		}
		fn(e.key, data, e.class, e.benefit, e.recycled)
	}
}

// Stats implements Store: the hot tier's counters with the lookups a cold
// resident served moved from Misses to Hits (each was counted as a hot miss
// on the way through, so Misses cannot go negative and Hits+Misses stays the
// number of lookups). A Get under a cold pin is such a lookup; the Pin
// itself is not a lookup and moves nothing. The cold hits are loaded first:
// each was booked as a hot miss before it was counted, so the Misses read
// after them already hold every one of those misses.
func (t *Tiered) Stats() Stats {
	n := t.lookupColdHits.Load()
	s := t.hot.Stats()
	s.Hits += n
	s.Misses -= n
	return s
}

// TierStats implements TierStatser: traffic from the tier metrics bundle,
// occupancy from the cold tier.
func (t *Tiered) TierStats() TierStats {
	ts := t.cold.occupancy()
	ts.ColdHits = t.tmet.ColdHits.Value()
	ts.ColdMisses = t.tmet.ColdMisses.Value()
	ts.Demotes = t.tmet.Demotes.Value()
	ts.DemoteDenied = t.tmet.DemoteDenied.Value()
	ts.ColdEvicts = t.tmet.ColdEvictions.Value()
	return ts
}

// Capacity implements Store: the combined byte bound of both tiers.
func (t *Tiered) Capacity() int64 { return t.hot.Capacity() + t.cold.capacity }

// Used implements Store: hot bytes plus compressed cold bytes.
func (t *Tiered) Used() int64 { return t.hot.Used() + t.cold.occupancy().ColdUsed }

// Len implements Store: residents across both tiers.
func (t *Tiered) Len() int { return t.hot.Len() + int(t.cold.occupancy().ColdChunks) }

// SetListener implements Store; the listener observes both tiers' events.
func (t *Tiered) SetListener(l Listener) {
	t.outer = l
	t.hot.SetListener(l)
}

// SetTierMetrics makes the cold tier count into m — a bundle registered with
// obs.NewTierMetrics, so /metrics exports what TierStats reports. Call it
// before serving traffic: counts already taken stay in the old bundle.
func (t *Tiered) SetTierMetrics(m obs.TierMetrics) {
	t.tmet = m
	t.tmet.ColdCapacityBytes.Set(t.cold.capacity)
	t.syncTierGauges()
}
