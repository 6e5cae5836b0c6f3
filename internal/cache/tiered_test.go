package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"aggcache/internal/chunk"
)

// tieredFixture builds a store whose hot tier fits exactly one
// 10-cell chunk and whose cold tier holds coldBytes of compressed payloads,
// with a recording listener attached.
func tieredFixture(t *testing.T, coldBytes int64) (*Sharded, *recordingListener) {
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

// TestTieredEventOrdering walks chunks through the full taxonomy — demote on
// hot-tier eviction, cold hits served in place (no event, but fresh cold
// recency), evict under cold pressure — and pins the exact listener event
// sequence.
func TestTieredEventOrdering(t *testing.T) {
	// Cold tier sized for two encoded 10-cell chunks (~156 charged bytes
	// each): a third demotion forces a cold eviction.
	tc, lis := tieredFixture(t, 2*160)

	tc.Insert(key(1), mkChunk(0, 1, 10), AsBackend(1))
	tc.Insert(key(2), mkChunk(0, 2, 10), AsBackend(2)) // hot evicts 1 -> demote
	tc.Insert(key(3), mkChunk(0, 3, 10), AsBackend(3)) // demote 2; cold {1,2} full
	if _, ok := tc.Get(key(1)); !ok {                  // cold hit: 1 becomes the newest cold resident
		t.Fatalf("cold-resident key 1 not served")
	}
	tc.Insert(key(4), mkChunk(0, 4, 10), AsBackend(4)) // demote 3; cold evicts LRU 2
	tc.Insert(key(5), mkChunk(0, 5, 10), AsBackend(5)) // demote 4; cold evicts LRU 1

	want := []string{
		"demoted 1",
		"demoted 2",
		"evicted 2", "demoted 3",
		"evicted 1", "demoted 4",
	}
	if got := reasons(lis.events); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("events %v, want %v", got, want)
	}
	// Demoted keeps the chunk answerable; the listener's unanswerable view
	// holds exactly the two cold evictions, in recency order.
	if len(lis.evicted) != 2 || lis.evicted[0] != key(2) || lis.evicted[1] != key(1) {
		t.Fatalf("unanswerable events = %v, want [2 1]", lis.evicted)
	}
}

// TestTieredColdLookupServesInPlace: a lookup outside a pin serves a cold
// resident where it lives, with the class, benefit and recycled mark it was
// demoted with. The hot tier is untouched, no event fires, and the lookup
// counts as a use: the touched key outlives an older cold key under the
// next cold eviction.
func TestTieredColdLookupServesInPlace(t *testing.T) {
	tc, lis := tieredFixture(t, 2*160)

	tc.Insert(key(1), mkChunk(0, 1, 10), AsRecycled(42.5))
	tc.Insert(key(2), mkChunk(0, 2, 10), AsBackend(1)) // demotes 1
	tc.Insert(key(3), mkChunk(0, 3, 10), AsBackend(2)) // demotes 2; cold {1,2} full
	hotUsed, hotLen, events := tc.hotUsed(), tc.hotLen(), len(lis.events)

	data, cl, benefit, ok := tc.GetInfo(key(1))
	if !ok || data.Cells() != 10 {
		t.Fatalf("cold-resident key 1 not served")
	}
	if cl != ClassComputed || benefit != 42.5 {
		t.Fatalf("cold lookup attrs = (%v, %v), want (computed, 42.5)", cl, benefit)
	}
	if tc.hotUsed() != hotUsed || tc.hotLen() != hotLen || tc.hotContains(key(1)) {
		t.Fatalf("cold lookup touched the hot tier: used %d -> %d, len %d -> %d",
			hotUsed, tc.hotUsed(), hotLen, tc.hotLen())
	}
	if len(lis.events) != events {
		t.Fatalf("cold lookup fired events %v", reasons(lis.events[events:]))
	}
	if ts := tc.TierStats(); ts.ColdHits != 1 || ts.ColdChunks != 2 {
		t.Fatalf("tier stats %+v: want 1 cold hit, both keys still cold", ts)
	}

	tc.Insert(key(4), mkChunk(0, 4, 10), AsBackend(3)) // demotes 3; cold evicts its LRU
	if !tc.cold.contains(key(1)) || IsResident(tc, key(2)) {
		t.Fatalf("cold eviction took the looked-up key: 1 cold %v, 2 resident %v",
			tc.cold.contains(key(1)), IsResident(tc, key(2)))
	}
	recycled := false
	tc.Range(func(k Key, _ *chunk.Chunk, _ Class, _ float64, r bool) {
		if k == key(1) {
			recycled = r
		}
	})
	if !recycled {
		t.Fatalf("cold copy of key 1 lost its recycled mark")
	}
}

// TestTieredInsertOfColdKeyDenied: the cold copy already answers a
// cold-resident key, so an insert of it is refused and counted as Denied,
// fires no event, and leaves the key answering from the cold tier.
func TestTieredInsertOfColdKeyDenied(t *testing.T) {
	tc, lis := tieredFixture(t, 4096)
	tc.Insert(key(1), mkChunk(0, 1, 10), AsBackend(0))
	tc.Insert(key(2), mkChunk(0, 2, 10), AsBackend(0)) // demotes 1
	denied, events := tc.Stats().Denied, len(lis.events)

	if tc.Insert(key(1), mkChunk(0, 1, 10), AsComputed(7)) {
		t.Fatalf("insert of a cold-resident key was admitted")
	}
	if got := tc.Stats().Denied; got != denied+1 {
		t.Fatalf("Denied = %d, want %d", got, denied+1)
	}
	if len(lis.events) != events || len(lis.inserted) != 2 {
		t.Fatalf("refused insert fired events %v, inserts %v", reasons(lis.events[events:]), lis.inserted)
	}
	if !tc.hotContains(key(2)) || tc.hotContains(key(1)) || !tc.cold.contains(key(1)) {
		t.Fatalf("refused insert moved a key between tiers")
	}
	if _, cl, _, ok := tc.GetInfo(key(1)); !ok || cl != ClassBackend {
		t.Fatalf("cold key 1 no longer answers as demoted: ok %v, class %v", ok, cl)
	}
}

// TestTieredReinforceColdKeyNoCharge: a cold resident carries no replacement
// clock, so Reinforce on it — after a lookup served it — must change neither
// tier's byte charge, and the key stays cold.
func TestTieredReinforceColdKeyNoCharge(t *testing.T) {
	tc, _ := tieredFixture(t, 4096)
	data := mkChunk(0, 1, 10)

	tc.Insert(key(1), data, AsComputed(5))
	tc.Insert(key(2), mkChunk(0, 2, 10), AsBackend(0)) // demotes 1
	if _, ok := tc.Get(key(1)); !ok {
		t.Fatalf("cold-resident key 1 not served")
	}
	hotUsed, used := tc.hotUsed(), tc.Used()
	tc.Reinforce([]Key{key(1)}, 9)
	tc.Reinforce([]Key{key(1)}, 9)
	if got := tc.Used(); got != used {
		t.Fatalf("Reinforce changed Used: %d -> %d", used, got)
	}
	if got := tc.hotUsed(); got != hotUsed || got != data.Bytes() {
		t.Fatalf("hot used %d after Reinforce, want %d (key 2 alone)", got, hotUsed)
	}
	if tc.hotContains(key(1)) {
		t.Fatalf("Reinforce moved cold key 1 into the hot tier")
	}
}

// TestTieredGetServesAndCounts: a lookup the cold tier serves returns the
// demoted cells and counts as one hit, never as a miss.
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
		t.Fatalf("cold chunk has %d cells, want %d", len(got.Keys), len(orig.Keys))
	}
	for i := range orig.Keys {
		if got.Keys[i] != orig.Keys[i] || got.Vals[i] != orig.Vals[i] {
			t.Fatalf("cell %d corrupted through the cold tier", i)
		}
	}
	st := tc.Stats()
	if st.Misses != 0 || st.Hits != 1 {
		t.Fatalf("cold hit not counted as a hit: %+v", st)
	}
	ts := tc.TierStats()
	if ts.ColdHits != 1 || ts.Demotes != 1 {
		t.Fatalf("tier stats = %+v, want 1 cold hit, 1 demote", ts)
	}
	if _, ok := tc.Get(key(9)); ok {
		t.Fatalf("absent key served")
	}
	if tc.TierStats().ColdMisses != 1 {
		t.Fatalf("double miss not counted")
	}
}

// TestTieredStatsPinThenGet is the engine's access pattern on a
// cold-resident plan leaf: Pin reads it where it lives — a cold hit — and
// the Get made under that pin is served the decoded payload and counts as a
// hit. Hits+Misses stays the number of lookups.
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
		if tc.hotContains(key(1)) {
			t.Fatalf("round %d: pinning cold key 1 promoted it", round)
		}
	}
	if tc.cold.held != 0 {
		t.Fatalf("cold tier still counts %d pinned bytes after every Unpin", tc.cold.held)
	}
	if _, ok := tc.Get(key(9)); ok { // one true miss
		t.Fatalf("absent key served")
	}
	lookups++
	if _, ok := tc.Get(key(1)); !ok { // a lookup outside a pin, served cold
		t.Fatalf("cold-resident key 1 not served")
	}
	lookups++
	if tc.hotContains(key(1)) {
		t.Fatalf("a lookup outside a pin moved cold key 1 into the hot tier")
	}

	st := tc.Stats()
	if st.Misses < 0 || st.Hits+st.Misses != lookups {
		t.Fatalf("Stats = %d hits + %d misses, want %d lookups and no negative count", st.Hits, st.Misses, lookups)
	}
	if st.Misses != 1 {
		t.Fatalf("Misses = %d, want the 1 absent-key lookup", st.Misses)
	}
	if ts := tc.TierStats(); ts.ColdHits != 4 {
		t.Fatalf("ColdHits = %d, want 4 (3 cold pins + 1 lookup)", ts.ColdHits)
	}
}

// TestTieredColdPinNeedsNoHotRoom: the hot tier's one resident is pinned, so
// it has no room to give. A pin of the cold key must still succeed — it
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
	if tc.hotContains(key(1)) || !tc.cold.contains(key(1)) {
		t.Fatalf("cold-pinned key 1 changed tiers")
	}
	tc.Unpin(key(1))
	tc.Unpin(key(2))
	if got := reasons(lis.events); fmt.Sprint(got) != "[demoted 1]" {
		t.Fatalf("events %v, want [demoted 1]", got)
	}
}

// TestTieredColdPinHoldRefcount overlaps pins of one key from several
// goroutines while another looks it up outside a pin, inserts it, and churns
// both tiers with inserts of other keys. A pinned key keeps answering from
// exactly one tier until its pin is released, is never evicted while pinned,
// and the cold tier's pinned bytes return to zero once the last pin has been
// released. Run under -race.
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
				if tc.hotContains(target) == tc.cold.contains(target) {
					t.Errorf("pinned key resident in %s tiers", map[bool]string{true: "both", false: "neither"}[tc.hotContains(target)])
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
			tc.Get(target)                                     // served from whichever tier holds it
			tc.Insert(target, mkChunk(0, 1, 10), AsBackend(0)) // refused while target is cold
			k := key(2 + i%6)
			tc.Insert(k, mkChunk(0, int(k.Num), 10), AsBackend(0))
		}
	}()
	wg.Wait()

	if n := evictedWhilePinned.Load(); n != 0 {
		t.Fatalf("target left the store %d times while pinned", n)
	}
	if tc.cold.held != 0 {
		t.Fatalf("cold tier counts %d pinned bytes after the last Unpin", tc.cold.held)
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

// TestTieredStatsConcurrentColdHits: every Get targets the cold key, so each
// is a cold hit, while another goroutine polls Stats. Each lookup counts
// once, as a hit, so however a poll interleaves with the lookups, Misses
// must never read other than zero.
func TestTieredStatsConcurrentColdHits(t *testing.T) {
	tc, _ := tieredFixture(t, 4096)
	tc.Insert(key(1), mkChunk(0, 1, 10), AsBackend(0))
	tc.Insert(key(2), mkChunk(0, 2, 10), AsBackend(0)) // demotes 1

	var stop atomic.Bool
	var badMisses atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if m := tc.Stats().Misses; m != 0 {
				badMisses.Store(m)
			}
		}
	}()
	const lookups = 20_000
	for i := 0; i < lookups; i++ {
		if _, ok := tc.Get(key(1)); !ok { // the cold key, served in place
			stop.Store(true)
			wg.Wait()
			t.Fatalf("lookup %d missed", i)
		}
	}
	stop.Store(true)
	wg.Wait()
	if m := badMisses.Load(); m != 0 {
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
		if rng.Intn(2) == 0 {
			tc.Insert(k, mkChunk(0, int(k.Num), 10), AsBackend(float64(rng.Intn(5))))
		} else {
			tc.Get(k)
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
				switch rng.Intn(7) {
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
	// Range visits both tiers and reports cold residents at their raw size.
	var recount int64
	tc.Range(func(_ Key, data *chunk.Chunk, _ Class, _ float64, _ bool) {
		recount += data.Bytes()
	})
	ts := tc.TierStats()
	if got, want := tc.hotUsed(), recount-ts.ColdRawBytes; got != want {
		t.Fatalf("hot Used %d != recounted %d", got, want)
	}
	if got := tc.hotUsed(); got > hotCap {
		t.Fatalf("hot tier over capacity: %d > %d", got, hotCap)
	}
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
	if tc != hot {
		t.Fatalf("NewTiered returned another store")
	}
	if _, err := NewTiered(tc, 1024); err == nil {
		t.Fatalf("a second cold tier accepted")
	}
	if got := tc.TierStats().ColdCapacity; got != 1024 {
		t.Fatalf("cold capacity %d after a refused NewTiered, want 1024", got)
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

// tieredTranscript writes every listener callback, with the residency
// attributes it carries, into the transcript.
type tieredTranscript struct{ w io.Writer }

func (l tieredTranscript) OnInsert(e *Entry) {
	fmt.Fprintf(l.w, "ins %v %v %v %v %d\n", e.Key, e.Class, e.Benefit, e.Recycled, e.Bytes())
}

func (l tieredTranscript) OnEvent(ev Event) {
	fmt.Fprintf(l.w, "ev %v %v %v %v %v\n", ev.Key, ev.Reason, ev.Entry.Class, ev.Entry.Benefit, ev.Entry.Recycled)
}

// TestTieredMatchesRecordedReference replays a seeded, single-goroutine
// 5,000-op stream against a store with a cold tier, over one stripe and over
// four, and hashes the full transcript: every verdict, every listener
// callback in order, and Stats plus TierStats after every op. The stream
// mixes inserts of all three classes (with same-key growth), lookups, peeks
// (by value and by presence), pins and unpins of hot and cold keys,
// reinforcement and ranges, and the stores are small enough to demote and
// cold-evict constantly. The stream was first pinned to the decorator that
// composed a cold tier over a hot Sharded store (commit fb5f992); when
// administrative removal was deleted, its removal ops were dropped, the
// presence probes became Peeks and the hashes were re-recorded at commit
// 92e69ab, whose merged store still matched that reference.
func TestTieredMatchesRecordedReference(t *testing.T) {
	for _, tc := range []struct {
		shards int
		want   string
	}{
		{1, "01641f21c99797c557695b823dada6f04ba656accf5666f095c24061bfdfb18e"},
		{4, "2b091b633de0d13c9ff9a885fbe557a52e16c1084aa313810ccfdd819ee59c0e"},
	} {
		hot, err := New(2_000, NewTwoLevel(), WithShards(tc.shards))
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		s, err := NewTiered(hot, 1_500)
		if err != nil {
			t.Fatalf("NewTiered: %v", err)
		}
		h := sha256.New()
		s.SetListener(tieredTranscript{h})
		rng := rand.New(rand.NewSource(35))
		var pinned []Key
		cells := func(d *chunk.Chunk, ok bool) int {
			if !ok {
				return -1
			}
			return d.Cells()
		}
		for op := 0; op < 5000; op++ {
			k := key(rng.Intn(40))
			switch rng.Intn(15) {
			case 0, 1, 2, 3, 4:
				opt := []func(float64) InsertOption{AsBackend, AsComputed, AsRecycled}[rng.Intn(3)]
				ok := s.Insert(k, mkChunk(0, int(k.Num), 1+rng.Intn(20)), opt(float64(rng.Intn(1000))))
				fmt.Fprintf(h, "insert %v %v\n", k, ok)
			case 5, 6:
				d, ok := s.Get(k)
				fmt.Fprintf(h, "get %v %v %d\n", k, ok, cells(d, ok))
			case 7:
				d, cl, benefit, ok := s.GetInfo(k)
				fmt.Fprintf(h, "getinfo %v %v %d %v %v\n", k, ok, cells(d, ok), cl, benefit)
			case 8:
				d, ok := s.Peek(k)
				fmt.Fprintf(h, "peek %v %v %d\n", k, ok, cells(d, ok))
			case 9:
				_, ok := s.Peek(k)
				fmt.Fprintf(h, "contains %v %v\n", k, ok)
			case 10:
				ok := s.Pin(k)
				if ok {
					pinned = append(pinned, k)
				}
				fmt.Fprintf(h, "pin %v %v\n", k, ok)
			case 11:
				if n := len(pinned); n > 0 {
					i := rng.Intn(n)
					s.Unpin(pinned[i])
					fmt.Fprintf(h, "unpin %v\n", pinned[i])
					pinned[i] = pinned[n-1]
					pinned = pinned[:n-1]
				}
			case 12:
				s.Reinforce([]Key{k, key(rng.Intn(40))}, float64(rng.Intn(100)))
			case 13:
				var rows []string
				s.Range(func(k Key, d *chunk.Chunk, cl Class, benefit float64, recycled bool) {
					rows = append(rows, fmt.Sprintf("%v %d %v %v %v", k, d.Cells(), cl, benefit, recycled))
				})
				sort.Strings(rows)
				fmt.Fprintf(h, "range %q\n", rows)
			case 14:
				fmt.Fprintf(h, "size %d %d %d\n", s.Used(), s.Len(), s.Capacity())
			}
			fmt.Fprintf(h, "%s %+v\n", statsLine(s.Stats()), s.TierStats())
		}
		for _, k := range pinned {
			s.Unpin(k)
		}
		st, ts := s.Stats(), s.TierStats()
		if ts.Demotes < 500 || ts.ColdEvicts < 100 || ts.ColdHits < 100 || st.Denied == 0 {
			t.Fatalf("shards=%d: stream does not stress both tiers: %+v %+v", tc.shards, st, ts)
		}
		fmt.Fprintf(h, "%s %+v %d %d\n", statsLine(st), ts, s.Used(), s.Len())
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("shards=%d: transcript hash %s, want %s (stats %+v, tier %+v)", tc.shards, got, tc.want, st, ts)
		}
	}
}

// TestTieredColdBufferIsCharged: every cold resident's buffer is exactly the
// payload bytes the tier charges for it, so the tier holds no more memory than
// it reports.
func TestTieredColdBufferIsCharged(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	chunks := make([]*chunk.Chunk, 12)
	var largest int64
	for i := range chunks {
		c := &chunk.Chunk{Num: int32(i)}
		k := uint64(0)
		for j := 5 + rng.Intn(60); j > 0; j-- {
			k += 1 + uint64(rng.Intn(1000))
			c.Keys = append(c.Keys, k)
			c.Vals = append(c.Vals, rng.Float64())
			if i%2 == 0 {
				c.Counts = append(c.Counts, int64(rng.Intn(500)))
			}
		}
		chunks[i] = c
		largest = max(largest, c.Bytes())
	}
	hot, err := New(largest+8, NewLRU())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	tc, err := NewTiered(hot, 1<<20)
	if err != nil {
		t.Fatalf("NewTiered: %v", err)
	}
	for i, c := range chunks {
		tc.Insert(key(i), c, AsBackend(0))
	}
	ts := tc.TierStats()
	if ts.ColdChunks == 0 || ts.Demotes != ts.ColdChunks {
		t.Fatalf("tier stats %+v: want every demoted chunk cold-resident", ts)
	}
	var held int64
	for _, e := range tc.cold.snapshot() {
		held += int64(cap(e.enc))
	}
	if charged := ts.ColdUsed - ts.ColdChunks*coldEntryOverhead; held != charged {
		t.Fatalf("cold buffers hold %d bytes, the tier charges %d", held, charged)
	}
}

// TestTieredRefusedDemotionAllocatesNothing: the cold tier refuses a victim
// it has no room for before encoding it — when the victim is larger than the
// whole tier, and when pins hold the room it would need.
func TestTieredRefusedDemotionAllocatesNothing(t *testing.T) {
	tiny, _ := tieredFixture(t, 1)
	held, _ := tieredFixture(t, 200) // one 10-cell resident fits, two do not
	held.Insert(key(1), mkChunk(0, 1, 10), AsBackend(0))
	held.Insert(key(2), mkChunk(0, 2, 10), AsBackend(0)) // demotes 1
	if !held.Pin(key(1)) {
		t.Fatalf("cold key 1 not pinned")
	}
	defer held.Unpin(key(1))

	victim := &Entry{Key: key(9), Data: mkChunk(0, 9, 10), Class: ClassBackend}
	for name, s := range map[string]*Sharded{"oversized": tiny, "pinned room": held} {
		denied := s.TierStats().DemoteDenied
		admitted := false
		allocs := testing.AllocsPerRun(100, func() { admitted = admitted || s.demote(victim) })
		if admitted {
			t.Fatalf("%s: the cold tier admitted the victim", name)
		}
		if allocs != 0 {
			t.Errorf("%s: a refused demotion allocates %.1f times", name, allocs)
		}
		if got := s.TierStats().DemoteDenied - denied; got != 101 {
			t.Errorf("%s: DemoteDenied rose by %d, want 101", name, got)
		}
	}
}
