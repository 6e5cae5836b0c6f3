package cache

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"aggcache/internal/chunk"
)

// tieredFixture builds a Tiered store whose hot tier fits exactly one
// 10-cell chunk and whose cold tier holds coldBytes of compressed payloads,
// with a recording listener attached.
func tieredFixture(t *testing.T, coldBytes int64) (*Tiered, *recordingListener) {
	t.Helper()
	hot, err := New(mkChunk(0, 0, 10).Bytes()+8, NewLRU())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	tc, err := NewTiered(hot, coldBytes)
	if err != nil {
		t.Fatalf("NewTiered: %v", err)
	}
	lis := &recordingListener{}
	tc.SetListener(lis)
	return tc, lis
}

// reasons projects the recorded events to "Reason key" strings for compact
// order assertions.
func reasons(events []Event) []string {
	out := make([]string, len(events))
	for i, ev := range events {
		out[i] = fmt.Sprintf("%s %d", ev.Reason, ev.Key.Num)
	}
	return out
}

// TestTieredEventOrdering walks a chunk through the full taxonomy — demote on
// hot-tier eviction, promote on cold hit (demoting the displaced resident),
// evict under cold pressure, remove administratively — and pins the exact
// listener event sequence.
func TestTieredEventOrdering(t *testing.T) {
	// Cold tier sized for two encoded 10-cell chunks (~156 charged bytes
	// each): a third demotion forces a cold eviction.
	tc, lis := tieredFixture(t, 2*160)

	tc.Insert(key(1), mkChunk(0, 1, 10), AsBackend(1))
	tc.Insert(key(2), mkChunk(0, 2, 10), AsBackend(2)) // hot evicts 1 -> demote
	if _, ok := tc.Get(key(1)); !ok {                  // cold hit -> promote 1, demote 2
		t.Fatalf("cold-resident key 1 not served")
	}
	tc.Insert(key(3), mkChunk(0, 3, 10), AsBackend(3)) // demote 1; cold {2,1} full
	tc.Insert(key(4), mkChunk(0, 4, 10), AsBackend(4)) // demote 3; cold evicts LRU 2
	if !tc.Evict(key(1)) {                             // administrative removal from cold
		t.Fatalf("Evict(1) found nothing")
	}

	want := []string{
		"demoted 1",
		"demoted 2", "promoted 1",
		"demoted 1",
		"evicted 2", "demoted 3",
		"removed 1",
	}
	got := reasons(lis.events)
	if len(got) != len(want) {
		t.Fatalf("events %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event[%d] = %q, want %q (all: %v)", i, got[i], want[i], got)
		}
	}
	// Demoted and Promoted keep the chunk answerable; the listener's
	// unanswerable-eviction view must contain exactly the cold eviction and
	// nothing else (Removed is administrative, also not an eviction signal
	// for strategies — but recordingListener folds any !Answerable there).
	if len(lis.evicted) != 2 || lis.evicted[0] != key(2) || lis.evicted[1] != key(1) {
		t.Fatalf("unanswerable events = %v, want [2 1]", lis.evicted)
	}
}

// TestTieredPromotionHoldsItsColdCopy: with room in the cold tier for one
// chunk, promoting key 1 demotes key 2, which cannot fit next to 1's cold
// copy. That copy must not be evicted to make room — the listener would see
// key 1 leave while it turns hot — so the demotion is denied and key 2 is
// the one that leaves.
func TestTieredPromotionHoldsItsColdCopy(t *testing.T) {
	tc, lis := tieredFixture(t, 160)

	tc.Insert(key(1), mkChunk(0, 1, 10), AsBackend(1))
	tc.Insert(key(2), mkChunk(0, 2, 10), AsBackend(2)) // demotes 1
	if _, ok := tc.Get(key(1)); !ok {                  // promotes 1
		t.Fatalf("cold-resident key 1 not served")
	}

	want := []string{"demoted 1", "evicted 2", "promoted 1"}
	if got := reasons(lis.events); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("events %v, want %v", got, want)
	}
	if !tc.hot.Contains(key(1)) || tc.Contains(key(2)) || tc.Len() != 1 {
		t.Fatalf("after promotion: hot has 1 = %v, store has 2 = %v, Len %d; want only key 1, hot",
			tc.hot.Contains(key(1)), tc.Contains(key(2)), tc.Len())
	}
	if ts := tc.TierStats(); ts.ColdUsed != 0 || ts.ColdChunks != 0 {
		t.Fatalf("cold tier still charges %d bytes for %d chunks", ts.ColdUsed, ts.ColdChunks)
	}
	// The released hold leaves the tier fully usable.
	tc.Insert(key(3), mkChunk(0, 3, 10), AsBackend(3)) // demotes 1
	if got := tc.TierStats().ColdChunks; got != 1 || !tc.Contains(key(1)) {
		t.Fatalf("cold tier holds %d chunks after demoting 1, want key 1 alone", got)
	}
}

// TestTieredPromotePreservesAttributes checks that demotion and promotion
// carry class, benefit and the recycled bit through the cold tier verbatim.
func TestTieredPromotePreservesAttributes(t *testing.T) {
	tc, _ := tieredFixture(t, 4096)

	tc.Insert(key(1), mkChunk(0, 1, 10), AsRecycled(42.5))
	tc.Insert(key(2), mkChunk(0, 2, 10), AsBackend(0)) // demotes 1
	if tc.hot.Contains(key(1)) {
		t.Fatalf("key 1 still hot after demotion")
	}
	if _, ok := tc.Get(key(1)); !ok { // promotes 1
		t.Fatalf("cold-resident key 1 not served")
	}
	found := false
	tc.hot.Range(func(k Key, data *chunk.Chunk, cl Class, benefit float64, recycled bool) {
		if k != key(1) {
			return
		}
		found = true
		if cl != ClassComputed || benefit != 42.5 || !recycled {
			t.Fatalf("promoted attrs = (%v, %v, %v), want (computed, 42.5, true)", cl, benefit, recycled)
		}
	})
	if !found {
		t.Fatalf("key 1 not hot after promotion")
	}
}

// TestTieredReinforceAfterPromoteNoDoubleCharge pins the byte-accounting fix:
// a promoted chunk's bytes are charged once, by the promotion insert, and
// Reinforce on it must not change Used on either tier.
func TestTieredReinforceAfterPromoteNoDoubleCharge(t *testing.T) {
	tc, _ := tieredFixture(t, 4096)
	data := mkChunk(0, 1, 10)

	tc.Insert(key(1), data, AsComputed(5))
	tc.Insert(key(2), mkChunk(0, 2, 10), AsBackend(0)) // demotes 1
	if _, ok := tc.Get(key(1)); !ok {                  // promotes 1, demotes 2
		t.Fatalf("cold-resident key 1 not served")
	}
	if got := tc.hot.Used(); got != data.Bytes() {
		t.Fatalf("hot used %d after promote, want one chunk = %d", got, data.Bytes())
	}
	before := tc.Used()
	tc.Reinforce([]Key{key(1)}, 9)
	tc.Reinforce([]Key{key(1)}, 9)
	if got := tc.Used(); got != before {
		t.Fatalf("Reinforce changed Used: %d -> %d", before, got)
	}
	if got := tc.hot.Used(); got != data.Bytes() {
		t.Fatalf("hot used %d after Reinforce, want %d", got, data.Bytes())
	}
}

// TestTieredGetServesAndCounts covers the Stats fold: a cold hit was counted
// as a hot miss on the way through, so the combined view reports it as a hit.
func TestTieredGetServesAndCounts(t *testing.T) {
	tc, _ := tieredFixture(t, 4096)
	orig := mkChunk(0, 1, 10)
	tc.Insert(key(1), orig, AsBackend(0))
	tc.Insert(key(2), mkChunk(0, 2, 10), AsBackend(0)) // demotes 1

	got, ok := tc.Get(key(1))
	if !ok {
		t.Fatalf("cold-resident key 1 not served")
	}
	if len(got.Keys) != len(orig.Keys) {
		t.Fatalf("promoted chunk has %d cells, want %d", len(got.Keys), len(orig.Keys))
	}
	for i := range orig.Keys {
		if got.Keys[i] != orig.Keys[i] || got.Vals[i] != orig.Vals[i] {
			t.Fatalf("cell %d corrupted through demote/promote", i)
		}
	}
	st := tc.Stats()
	if st.Misses != 0 {
		t.Fatalf("cold hit counted as miss: %+v", st)
	}
	ts := tc.TierStats()
	if ts.ColdHits != 1 || ts.Promotes != 1 || ts.Demotes != 2 {
		t.Fatalf("tier stats = %+v, want 1 cold hit, 1 promote, 2 demotes", ts)
	}
	if _, ok := tc.Get(key(9)); ok {
		t.Fatalf("absent key served")
	}
	if tc.TierStats().ColdMisses != 1 {
		t.Fatalf("double miss not counted")
	}
}

// TestTieredStatsPinThenGet is the engine's access pattern on a
// cold-resident plan leaf: Pin reads it where it lives — a cold hit, not a
// promotion — and the Get made under that pin is served the decoded payload
// and counts as a hit. Hits+Misses stays the number of lookups.
func TestTieredStatsPinThenGet(t *testing.T) {
	tc, _ := tieredFixture(t, 4096)
	orig := mkChunk(0, 1, 10)
	tc.Insert(key(1), orig, AsBackend(0))
	tc.Insert(key(2), mkChunk(0, 2, 10), AsBackend(0)) // demotes 1

	lookups := int64(0)
	for round := 0; round < 3; round++ {
		for _, k := range []Key{key(1), key(2)} { // 1 stays cold, 2 stays hot
			if !tc.Pin(k) {
				t.Fatalf("round %d: Pin(%v) failed", round, k)
			}
			got, ok := tc.Get(k)
			if !ok {
				t.Fatalf("round %d: Get(%v) under a pin missed", round, k)
			}
			if k == key(1) && (len(got.Keys) != len(orig.Keys) || got.Keys[9] != orig.Keys[9]) {
				t.Fatalf("round %d: pinned cold payload differs from the demoted one", round)
			}
			tc.Unpin(k)
			lookups++
		}
		if tc.hot.Contains(key(1)) {
			t.Fatalf("round %d: pinning cold key 1 promoted it", round)
		}
	}
	if tc.cold.held != 0 {
		t.Fatalf("cold tier still holds %d bytes after every Unpin", tc.cold.held)
	}
	if _, ok := tc.Get(key(9)); ok { // one true miss
		t.Fatalf("absent key served")
	}
	lookups++
	if _, ok := tc.Get(key(1)); !ok { // a lookup outside a pin promotes
		t.Fatalf("cold-resident key 1 not served")
	}
	lookups++

	st := tc.Stats()
	if st.Misses < 0 || st.Hits+st.Misses != lookups {
		t.Fatalf("Stats = %d hits + %d misses, want %d lookups and no negative count", st.Hits, st.Misses, lookups)
	}
	if st.Misses != 1 {
		t.Fatalf("Misses = %d, want the 1 absent-key lookup", st.Misses)
	}
	if ts := tc.TierStats(); ts.ColdHits != 4 || ts.Promotes != 1 {
		t.Fatalf("ColdHits = %d, Promotes = %d; want 4 (3 cold pins + 1 lookup) and 1 (the lookup)", ts.ColdHits, ts.Promotes)
	}
}

// TestTieredColdPinNeedsNoHotRoom: the hot tier's one resident is pinned, so
// it cannot admit a promotion. A pin of the cold key must still succeed — it
// reads the chunk where it lives — and an insert of that key while it is
// pinned must leave it cold.
func TestTieredColdPinNeedsNoHotRoom(t *testing.T) {
	tc, lis := tieredFixture(t, 4096)
	tc.Insert(key(1), mkChunk(0, 1, 10), AsBackend(0))
	tc.Insert(key(2), mkChunk(0, 2, 10), AsBackend(0)) // demotes 1
	if !tc.Pin(key(2)) {
		t.Fatalf("Pin(2) on the hot resident failed")
	}
	if !tc.Pin(key(1)) {
		t.Fatalf("Pin(1) on a cold resident failed for lack of hot-tier room")
	}
	if tc.Insert(key(1), mkChunk(0, 1, 10), AsBackend(0)) {
		t.Fatalf("insert of a cold-pinned key was admitted")
	}
	if tc.hot.Contains(key(1)) || !tc.cold.contains(key(1)) {
		t.Fatalf("cold-pinned key 1 changed tiers")
	}
	tc.Unpin(key(1))
	tc.Unpin(key(2))
	if got := reasons(lis.events); fmt.Sprint(got) != "[demoted 1]" {
		t.Fatalf("events %v, want [demoted 1]", got)
	}
}

// TestTieredColdPinHoldRefcount overlaps pins of one key from several
// goroutines while another promotes it through lookups and churns both tiers
// with inserts. A pinned key keeps answering from exactly one tier until its
// pin is released, is never evicted while pinned, and the cold tier's held
// bytes return to zero once the last holder has left. Run under -race.
func TestTieredColdPinHoldRefcount(t *testing.T) {
	hot, err := New(2*mkChunk(0, 0, 10).Bytes(), NewLRU())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	tc, err := NewTiered(hot, 3*160)
	if err != nil {
		t.Fatalf("NewTiered: %v", err)
	}
	target := key(1)
	var pinned atomic.Int64 // goroutines between a successful Pin and its Unpin
	var evictedWhilePinned atomic.Int64
	tc.SetListener(evictWatch{key: target, pinned: &pinned, bad: &evictedWhilePinned})
	tc.Insert(target, mkChunk(0, 1, 10), AsBackend(0))

	const pinners, rounds = 4, 2_000
	var wg sync.WaitGroup
	for w := 0; w < pinners; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if !tc.Pin(target) {
					// Cold pressure evicted it while nobody held it.
					tc.Insert(target, mkChunk(0, 1, 10), AsBackend(0))
					continue
				}
				pinned.Add(1)
				if _, ok := tc.Get(target); !ok {
					t.Errorf("Get under a pin missed")
				}
				if tc.hot.Contains(target) == tc.cold.contains(target) {
					t.Errorf("pinned key resident in %s tiers", map[bool]string{true: "both", false: "neither"}[tc.hot.Contains(target)])
				}
				pinned.Add(-1)
				tc.Unpin(target)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			tc.Get(target) // promotes whenever target is cold and unpinned
			k := key(2 + i%6)
			tc.Insert(k, mkChunk(0, int(k.Num), 10), AsBackend(0))
		}
	}()
	wg.Wait()

	if n := evictedWhilePinned.Load(); n != 0 {
		t.Fatalf("target left the store %d times while pinned", n)
	}
	if tc.cold.held != 0 {
		t.Fatalf("cold tier holds %d bytes after the last Unpin", tc.cold.held)
	}
	seen := map[Key]bool{}
	for _, k := range keysOf(tc) {
		if seen[k] {
			t.Fatalf("key %v resident in both tiers", k)
		}
		seen[k] = true
	}
}

// evictWatch counts departures of key while pinned reports a holder.
type evictWatch struct {
	key         Key
	pinned, bad *atomic.Int64
}

func (evictWatch) OnInsert(*Entry) {}

func (w evictWatch) OnEvent(ev Event) {
	if ev.Key == w.key && !ev.Answerable() && w.pinned.Load() > 0 {
		w.bad.Add(1)
	}
}

// TestTieredStatsConcurrentColdHits: a hot tier of one chunk and two keys
// that evict each other, so every Get is a cold hit, while another goroutine
// polls Stats. A cold hit is booked as a hot miss first, so however a poll
// interleaves with the lookups, Misses must never read below zero.
func TestTieredStatsConcurrentColdHits(t *testing.T) {
	tc, _ := tieredFixture(t, 4096)
	tc.Insert(key(1), mkChunk(0, 1, 10), AsBackend(0))
	tc.Insert(key(2), mkChunk(0, 2, 10), AsBackend(0)) // demotes 1

	var stop atomic.Bool
	var minMisses atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if m := tc.Stats().Misses; m < minMisses.Load() {
				minMisses.Store(m)
			}
		}
	}()
	const lookups = 20_000
	for i := 0; i < lookups; i++ {
		if _, ok := tc.Get(key(1 + i%2)); !ok { // the cold key, promoted
			stop.Store(true)
			wg.Wait()
			t.Fatalf("lookup %d missed", i)
		}
	}
	stop.Store(true)
	wg.Wait()
	if m := minMisses.Load(); m < 0 {
		t.Fatalf("Stats read Misses = %d under concurrent cold hits", m)
	}
	if st, ts := tc.Stats(), tc.TierStats(); st.Hits != lookups || st.Misses != 0 || ts.ColdHits != lookups {
		t.Fatalf("after %d cold hits: Stats %+v, ColdHits %d", lookups, st, ts.ColdHits)
	}
}

// TestTieredResidencyInvariant checks a key is never resident in both tiers:
// Keys over both tiers has no duplicates at every step of a random walk.
func TestTieredResidencyInvariant(t *testing.T) {
	tc, _ := tieredFixture(t, 3*160)
	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 500; step++ {
		k := key(rng.Intn(8))
		switch rng.Intn(4) {
		case 0, 1:
			tc.Insert(k, mkChunk(0, int(k.Num), 10), AsBackend(float64(rng.Intn(5))))
		case 2:
			tc.Get(k)
		case 3:
			tc.Evict(k)
		}
		seen := map[Key]bool{}
		for _, rk := range keysOf(tc) {
			if seen[rk] {
				t.Fatalf("step %d: key %v resident in both tiers", step, rk)
			}
			seen[rk] = true
		}
		if got := tc.Len(); got != len(seen) {
			t.Fatalf("step %d: Len %d != %d unique keys", step, got, len(seen))
		}
	}
}

// TestTieredConcurrentSoak hammers a sharded hot tier plus cold tier from
// many goroutines (run under -race in CI) and then verifies the shard
// invariants: byte accounting matches a recount, occupancy respects both
// capacities, and no key is dual-resident.
func TestTieredConcurrentSoak(t *testing.T) {
	hotCap := int64(16) * mkChunk(0, 0, 10).Bytes()
	hot, err := New(hotCap, NewTwoLevelPromote(), WithShards(4))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	tc, err := NewTiered(hot, 4*160)
	if err != nil {
		t.Fatalf("NewTiered: %v", err)
	}

	const workers, steps, keys = 8, 2_000, 64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < steps; i++ {
				k := key(rng.Intn(keys))
				switch rng.Intn(8) {
				case 0, 1, 2:
					opt := AsBackend(float64(rng.Intn(9)))
					if rng.Intn(2) == 1 {
						opt = AsComputed(float64(rng.Intn(9)))
					}
					tc.Insert(k, mkChunk(0, int(k.Num), 1+rng.Intn(12)), opt)
				case 3, 4, 5:
					tc.Get(k)
				case 6:
					tc.Reinforce([]Key{k}, float64(rng.Intn(9)))
				case 7:
					tc.Evict(k)
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()

	seen := map[Key]bool{}
	for _, k := range keysOf(tc) {
		if seen[k] {
			t.Fatalf("key %v resident in both tiers after soak", k)
		}
		seen[k] = true
	}
	var recount int64
	tc.hot.Range(func(_ Key, data *chunk.Chunk, _ Class, _ float64, _ bool) {
		recount += data.Bytes()
	})
	if got := tc.hot.Used(); got != recount {
		t.Fatalf("hot Used %d != recounted %d", got, recount)
	}
	if got := tc.hot.Used(); got > hotCap {
		t.Fatalf("hot tier over capacity: %d > %d", got, hotCap)
	}
	ts := tc.TierStats()
	if ts.ColdUsed > ts.ColdCapacity {
		t.Fatalf("cold tier over capacity: %d > %d", ts.ColdUsed, ts.ColdCapacity)
	}
	if ts.ColdUsed < 0 || ts.ColdRawBytes < 0 || ts.ColdChunks < 0 {
		t.Fatalf("negative cold occupancy: %+v", ts)
	}
}

// TestTieredRejectsBadComposition pins the constructor contract.
func TestTieredRejectsBadComposition(t *testing.T) {
	hot, err := New(1024, NewLRU())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := NewTiered(hot, 0); err == nil {
		t.Fatalf("zero cold capacity accepted")
	}
	tc, err := NewTiered(hot, 1024)
	if err != nil {
		t.Fatalf("NewTiered: %v", err)
	}
	if _, err := NewTiered(tc, 1024); err == nil {
		t.Fatalf("tiered-over-tiered accepted")
	}
}

// TestTieredOversizedDemotionDenied: a victim whose encoding exceeds the
// whole cold tier truly evicts (Evicted, not Demoted).
func TestTieredOversizedDemotionDenied(t *testing.T) {
	hot, err := New(mkChunk(0, 0, 10).Bytes()+8, NewLRU())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	tc, err := NewTiered(hot, 70) // below the per-entry overhead + payload
	if err != nil {
		t.Fatalf("NewTiered: %v", err)
	}
	lis := &recordingListener{}
	tc.SetListener(lis)
	tc.Insert(key(1), mkChunk(0, 1, 10), AsBackend(0))
	tc.Insert(key(2), mkChunk(0, 2, 10), AsBackend(0))
	if got := reasons(lis.events); len(got) != 1 || got[0] != "evicted 1" {
		t.Fatalf("events = %v, want [evicted 1]", got)
	}
	if tc.TierStats().DemoteDenied != 1 {
		t.Fatalf("DemoteDenied = %d, want 1", tc.TierStats().DemoteDenied)
	}
}
