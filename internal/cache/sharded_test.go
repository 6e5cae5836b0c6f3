package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"

	"aggcache/internal/apb"
	"aggcache/internal/chunk"
	"aggcache/internal/lattice"
	"aggcache/internal/obs"
)

// stubPolicy is a minimal Policy that never offers a victim.
type stubPolicy struct{}

func (stubPolicy) Name() string               { return "stub" }
func (stubPolicy) Added(*Entry)               {}
func (stubPolicy) Removed(*Entry)             {}
func (stubPolicy) Accessed(*Entry)            {}
func (stubPolicy) Reinforced(*Entry, float64) {}
func (stubPolicy) NextVictim(cl Class) *Entry { return nil }
func (stubPolicy) Fork() Policy               { return stubPolicy{} }

func newSharded4(t *testing.T, capacity int64) *Sharded {
	t.Helper()
	s, err := New(capacity, NewTwoLevel(), WithShards(4))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// shardKey returns the i-th key num (starting the probe at from) that hashes
// onto the given shard, so tests can aim inserts at one stripe.
func shardKey(c *Sharded, want uint64, from int) Key {
	for num := from; ; num++ {
		if k := key(num); c.shardIndex(k) == want {
			return k
		}
	}
}

func TestNewShardSelection(t *testing.T) {
	// Default and n=1 build one stripe.
	for _, opts := range [][]Option{nil, {WithShards(1)}} {
		s, err := New(1000, stubPolicy{}, opts...)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if n := s.Shards(); n != 1 {
			t.Fatalf("default store has %d stripes, want 1", n)
		}
	}
	// Requested counts round up to a power of two and cap at MaxShards.
	for _, tc := range []struct{ ask, want int }{{2, 2}, {3, 4}, {16, 16}, {33, 64}, {1000, MaxShards}} {
		s, err := New(1_000_000, newLRU(), WithShards(tc.ask))
		if err != nil {
			t.Fatalf("WithShards(%d): %v", tc.ask, err)
		}
		if s.Shards() != tc.want {
			t.Fatalf("WithShards(%d) = %d shards, want %d", tc.ask, s.Shards(), tc.want)
		}
	}
	// Auto (n = 0) must build a valid store whatever GOMAXPROCS is.
	s, err := New(1000, newLRU(), WithShards(0))
	if err != nil {
		t.Fatalf("WithShards(0): %v", err)
	}
	if n := s.Shards(); n < 1 {
		t.Fatalf("auto store has %d stripes", n)
	}
	// Invalid direct constructions are rejected.
	if _, err := newSharded(1000, 3, newLRU(), obs.CacheMetrics{}); err == nil {
		t.Fatalf("newSharded accepted a non-power-of-two count")
	}
}

// TestShardDistributionUniformity hashes every (group-by, chunk) key an APB-1
// grid can produce and checks the spread over 16 shards: no stripe may be
// pathologically hot or cold, or the striped lock would degrade back to a
// global one.
func TestShardDistributionUniformity(t *testing.T) {
	for _, scale := range []apb.Scale{apb.ScaleTiny, apb.ScaleSmall} {
		cfg := apb.New(scale)
		g, err := chunk.NewGrid(cfg.Schema, cfg.ChunkCounts)
		if err != nil {
			t.Fatalf("NewGrid: %v", err)
		}
		c, err := New(1<<30, NewTwoLevel(), WithShards(16))
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		counts := make([]int, c.Shards())
		total := 0
		lat := g.Lattice()
		for gb := 0; gb < lat.NumNodes(); gb++ {
			for num := 0; num < g.NumChunks(lattice.ID(gb)); num++ {
				counts[c.shardIndex(Key{GB: lattice.ID(gb), Num: int32(num)})]++
				total++
			}
		}
		mean := float64(total) / float64(len(counts))
		for i, n := range counts {
			if float64(n) > 2*mean || float64(n) < mean/4 {
				t.Errorf("%v: shard %d has %d of %d keys (mean %.1f)", scale, i, n, total, mean)
			}
		}
	}
}

// TestShardedBasics mirrors TestCacheBasics on a 4-stripe store: the Store
// surface must behave identically whatever the stripe count.
func TestShardedBasics(t *testing.T) {
	c := newSharded4(t, 100_000)
	for num := 0; num < 8; num++ {
		if !c.Insert(key(num), mkChunk(0, num, 10), AsBackend(100)) {
			t.Fatalf("insert %d denied", num)
		}
	}
	if c.Len() != 8 {
		t.Fatalf("Len = %d", c.Len())
	}
	if want := 8 * mkChunk(0, 0, 10).Bytes(); c.Used() != want {
		t.Fatalf("Used = %d, want %d", c.Used(), want)
	}
	if d, ok := c.Get(key(3)); !ok || d.Cells() != 10 {
		t.Fatalf("Get(3) = %v,%v", d, ok)
	}
	if _, ok := c.Get(key(99)); ok {
		t.Fatalf("Get(99) should miss")
	}
	if d, ok := c.Peek(key(5)); !ok || d.Cells() != 10 {
		t.Fatalf("Peek(5) = %v,%v", d, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Inserts != 8 {
		t.Fatalf("stats = %+v", st)
	}
	if ks := keysOf(c); len(ks) != 8 {
		t.Fatalf("resident keys = %v", ks)
	}
	var sum int64
	c.Range(func(_ Key, data *chunk.Chunk, _ Class, _ float64, _ bool) { sum += data.Bytes() })
	if sum != c.Used() {
		t.Fatalf("Range bytes %d != Used %d", sum, c.Used())
	}
}

// TestShardedPinInterleavings exercises pin/evict/insert orderings on a
// 2-shard store, aiming keys at specific stripes.
func TestShardedPinInterleavings(t *testing.T) {
	// Capacity for 4 chunks of 304 bytes; per-shard limit is 912 (3 chunks).
	c, err := New(4*304, newBenefitClock(), WithShards(2))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	a1 := shardKey(c, 0, 0)
	a2 := shardKey(c, 0, int(a1.Num)+1)
	a3 := shardKey(c, 0, int(a2.Num)+1)
	a4 := shardKey(c, 0, int(a3.Num)+1)
	b1 := shardKey(c, 1, 0)

	mk := func(k Key) *chunk.Chunk { return mkChunk(int(k.GB), int(k.Num), 10) }
	c.Insert(a1, mk(a1), AsBackend(1))
	c.Insert(a2, mk(a2), AsBackend(1))
	c.Insert(a3, mk(a3), AsBackend(1))
	c.Insert(b1, mk(b1), AsBackend(1))
	if !c.Pin(a1) || !c.Pin(a2) || !c.Pin(a3) {
		t.Fatalf("Pin failed")
	}
	// Shard 0 is at its limit with every entry pinned: the insert must be
	// denied rather than evict a pinned chunk or touch shard 1.
	if c.Insert(a4, mk(a4), AsBackend(1)) {
		t.Fatalf("insert admitted with the whole shard pinned")
	}
	if !IsResident(c, b1) {
		t.Fatalf("other shard's chunk was evicted")
	}
	c.Unpin(a2)
	if !c.Insert(a4, mk(a4), AsBackend(1)) {
		t.Fatalf("insert denied after unpin")
	}
	if IsResident(c, a2) {
		t.Fatalf("unpinned chunk should have been the victim")
	}
	if !IsResident(c, a1) || !IsResident(c, a3) {
		t.Fatalf("pinned chunk evicted")
	}
	// Pinning a missing key fails; unpinning one is a no-op.
	if c.Pin(a2) {
		t.Fatalf("pinned a missing key")
	}
	c.Unpin(a2)
	c.Unpin(a1)
	c.Unpin(a3)
	if c.Used() > c.Capacity() {
		t.Fatalf("Used %d > Capacity %d", c.Used(), c.Capacity())
	}
}

// TestShardedCapacityBorrowing checks the borrow margin: one hot shard may
// charge up to 1.5× its even share, the global bound is still respected, and
// when it binds the inserting shard evicts locally.
func TestShardedCapacityBorrowing(t *testing.T) {
	const chunkBytes = 304 // 10 cells
	c, err := New(4*chunkBytes, newBenefitClock(), WithShards(2))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Even share is 2 chunks; the margin lets a hot shard hold 3.
	hot := make([]Key, 4)
	hot[0] = shardKey(c, 0, 0)
	for i := 1; i < 4; i++ {
		hot[i] = shardKey(c, 0, int(hot[i-1].Num)+1)
	}
	for i := 0; i < 3; i++ {
		if !c.Insert(hot[i], mkChunk(0, int(hot[i].Num), 10), AsBackend(1)) {
			t.Fatalf("borrowing insert %d denied", i)
		}
	}
	if c.Len() != 3 {
		t.Fatalf("hot shard could not borrow: Len = %d", c.Len())
	}
	if c.Used() <= c.Capacity()/2 {
		t.Fatalf("borrowing did not exceed the even share: Used = %d", c.Used())
	}
	// A fourth chunk exceeds the shard limit: evict locally, stay at 3.
	if !c.Insert(hot[3], mkChunk(0, int(hot[3].Num), 10), AsBackend(1)) {
		t.Fatalf("insert at the shard limit denied")
	}
	if c.Len() != 3 || !IsResident(c, hot[3]) {
		t.Fatalf("local eviction failed: Len = %d", c.Len())
	}

	// Now make the global bound bind: the cold shard takes one chunk fine,
	// but a second forces it to evict locally (3 + 2 chunks > capacity 4).
	cold1 := shardKey(c, 1, 0)
	cold2 := shardKey(c, 1, int(cold1.Num)+1)
	if !c.Insert(cold1, mkChunk(0, int(cold1.Num), 10), AsBackend(1)) {
		t.Fatalf("cold insert denied")
	}
	if c.Used() != c.Capacity() {
		t.Fatalf("Used = %d, want full capacity %d", c.Used(), c.Capacity())
	}
	if !c.Insert(cold2, mkChunk(0, int(cold2.Num), 10), AsBackend(1)) {
		t.Fatalf("insert under a binding global bound denied")
	}
	if !IsResident(c, cold2) || IsResident(c, cold1) {
		t.Fatalf("global-bound eviction chose a remote victim")
	}
	if c.Used() > c.Capacity() {
		t.Fatalf("Used %d > Capacity %d", c.Used(), c.Capacity())
	}

	// Edge: the stripe limit shares capacity, it does not bound admission. A
	// chunk above it takes its stripe alone — evicting the stripe's unpinned
	// residents — as long as the global pool has room.
	c2, _ := New(1000, newBenefitClock(), WithShards(2))
	small := shardKey(c2, 0, 0)
	bigKey := shardKey(c2, 0, int(small.Num)+1)
	other := shardKey(c2, 1, 0)
	c2.Insert(small, mkChunk(0, int(small.Num), 2), AsBackend(1)) // 112 bytes
	c2.Insert(other, mkChunk(0, int(other.Num), 2), AsBackend(1))
	big := mkChunk(0, int(bigKey.Num), 30) // 784 bytes > 750 stripe limit
	if !c2.Insert(bigKey, big, AsBackend(1)) {
		t.Fatalf("chunk above the stripe limit denied with room in the store")
	}
	if IsResident(c2, small) || !IsResident(c2, other) {
		t.Fatalf("oversized chunk must evict its own stripe only: small=%v other=%v", IsResident(c2, small), IsResident(c2, other))
	}
	// A same-key replacement growing past the limit follows the same rule.
	if !c2.Insert(bigKey, mkChunk(0, int(bigKey.Num), 32), AsBackend(1)) {
		t.Fatalf("growing replacement above the stripe limit denied")
	}
	if c2.Used() != 832+112 || c2.Used() > c2.Capacity() {
		t.Fatalf("Used = %d after oversized inserts", c2.Used())
	}
	// With its stripe empty, only the global pool can refuse it: the other
	// stripe's bytes are not this stripe's to evict.
	c2, _ = New(1000, newBenefitClock(), WithShards(2))
	c2.Insert(other, mkChunk(0, int(other.Num), 10), AsBackend(1)) // 304 bytes
	if c2.Insert(bigKey, big, AsBackend(1)) {
		t.Fatalf("784 bytes admitted beside 304 in a 1000-byte store")
	}
	if st := c2.Stats(); st.Denied != 1 || !IsResident(c2, other) {
		t.Fatalf("global-pool denial: %+v, other resident %v", st, IsResident(c2, other))
	}

	// Regression, the measured case: churn_miss's 0.10× store at medium scale
	// on a 64-proc box has an 8,910-byte stripe limit, while the scale's
	// largest chunk is 47,872 bytes and its p99 30,280 — 18.8 % of all chunks
	// were refused on every request, even by an empty store.
	c64, _ := New(380_160, NewTwoLevelPromote(), WithShards(64))
	if c64.stripeLimit(c64.capacity) != 8_910 {
		t.Fatalf("64-stripe limit = %d, want 8910", c64.stripeLimit(c64.capacity))
	}
	for num, cells := range []int{1992, 1259} {
		if !c64.Insert(key(num), mkChunk(0, num, cells), AsBackend(1)) {
			t.Fatalf("%d-byte chunk denied by an %d-byte stripe limit", mkChunk(0, num, cells).Bytes(), c64.stripeLimit(c64.capacity))
		}
	}
	if c64.Used() != 47_872+30_280 || c64.Stats().Denied != 0 {
		t.Fatalf("Used = %d, stats %+v", c64.Used(), c64.Stats())
	}

	// Degenerate: capacity below the shard count would give a zero per-shard
	// limit; the store falls back to the global bound only.
	c3, _ := New(50, newBenefitClock(), WithShards(64))
	if c3.stripeLimit(c3.capacity) != c3.capacity {
		t.Fatalf("degenerate limit = %d, want the full capacity %d", c3.stripeLimit(c3.capacity), c3.capacity)
	}
}

// TestShardedReinforceKeepsGroup is TestTwoLevelReinforceKeepsGroup aimed at
// one stripe of a sharded store: Reinforce's shard grouping must reach the
// policy instance that owns the keys, and missing keys are ignored.
func TestShardedReinforceKeepsGroup(t *testing.T) {
	c, err := New(4*304, NewTwoLevel(), WithShards(2))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	k1 := shardKey(c, 0, 0)
	k2 := shardKey(c, 0, int(k1.Num)+1)
	k3 := shardKey(c, 0, int(k2.Num)+1)
	other := shardKey(c, 1, 0)
	c.Insert(k1, mkChunk(0, int(k1.Num), 10), AsComputed(1))
	c.Insert(k2, mkChunk(0, int(k2.Num), 10), AsComputed(1))
	c.Insert(k3, mkChunk(0, int(k3.Num), 10), AsComputed(1)) // shard full
	c.Reinforce([]Key{k1, k3, other, {GB: 9, Num: 9}}, 1e9)
	if !c.Insert(shardKey(c, 0, int(k3.Num)+1), mkChunk(0, 99, 10), AsComputed(1)) {
		t.Fatalf("insert denied")
	}
	if !IsResident(c, k1) || !IsResident(c, k3) {
		t.Fatalf("reinforced chunks were evicted")
	}
	if IsResident(c, k2) {
		t.Fatalf("non-reinforced chunk should have been the victim")
	}
}

// TestShardedEquivalence runs one deterministic operation sequence against a
// one-stripe and a 4-stripe store with headroom (no evictions) and requires
// identical observable state: stripe counts may only diverge in victim
// choice, never in residence semantics.
func TestShardedEquivalence(t *testing.T) {
	single, err := New(1<<20, NewTwoLevel())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	sharded, err := New(1<<20, NewTwoLevel(), WithShards(4))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rng := rand.New(rand.NewSource(42))
	for op := 0; op < 2000; op++ {
		num := rng.Intn(200)
		switch rng.Intn(5) {
		case 0, 1, 2:
			n := 1 + rng.Intn(20)
			opt := AsBackend
			if rng.Intn(2) == 1 {
				opt = AsComputed
			}
			b := float64(rng.Intn(1000))
			if single.Insert(key(num), mkChunk(0, num, n), opt(b)) != sharded.Insert(key(num), mkChunk(0, num, n), opt(b)) {
				t.Fatalf("op %d: Insert verdicts differ", op)
			}
		case 3:
			d1, ok1 := single.Get(key(num))
			d2, ok2 := sharded.Get(key(num))
			if ok1 != ok2 || (ok1 && d1.Cells() != d2.Cells()) {
				t.Fatalf("op %d: Get(%d) differs", op, num)
			}
		case 4:
			ks := []Key{key(num), key(rng.Intn(200))}
			single.Reinforce(ks, float64(rng.Intn(100)))
			sharded.Reinforce(ks, float64(rng.Intn(100)))
		}
	}
	if single.Len() != sharded.Len() || single.Used() != sharded.Used() {
		t.Fatalf("state diverged: len %d/%d used %d/%d",
			single.Len(), sharded.Len(), single.Used(), sharded.Used())
	}
	st1, st2 := single.Stats(), sharded.Stats()
	if st1 != st2 {
		t.Fatalf("stats diverged: %+v vs %+v", st1, st2)
	}
	for _, k := range keysOf(single) {
		if !IsResident(sharded, k) {
			t.Fatalf("key %v resident in single but not sharded", k)
		}
	}
}

// TestShardedConcurrentSoak hammers a small sharded store from 8 goroutines
// with every Store operation and checks the byte-accounting invariants at the
// end. Run under -race this is the tentpole's core validation.
func TestShardedConcurrentSoak(t *testing.T) {
	for _, shards := range []int{2, 8} {
		s, err := New(8_000, NewTwoLevel(), WithShards(shards))
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w)))
				var pinned []Key
				for op := 0; op < 400; op++ {
					num := rng.Intn(40)
					switch rng.Intn(8) {
					case 0, 1, 2:
						opt := AsBackend
						if rng.Intn(2) == 1 {
							opt = AsComputed
						}
						s.Insert(key(num), mkChunk(0, num, 1+rng.Intn(12)), opt(float64(rng.Intn(1000))))
					case 3:
						s.Get(key(num))
					case 4:
						if s.Pin(key(num)) {
							pinned = append(pinned, key(num))
						}
					case 5:
						if len(pinned) > 0 {
							s.Unpin(pinned[len(pinned)-1])
							pinned = pinned[:len(pinned)-1]
						}
					case 6:
						s.Reinforce([]Key{key(num), key(rng.Intn(40))}, float64(rng.Intn(100)))
					case 7:
						s.Stats()
						s.Len()
						s.Used()
					}
					if u := s.Used(); u > s.Capacity() {
						t.Errorf("Used %d > Capacity %d", u, s.Capacity())
						return
					}
				}
				for _, k := range pinned {
					s.Unpin(k)
				}
			}(w)
		}
		wg.Wait()
		var sum int64
		n := 0
		s.Range(func(_ Key, data *chunk.Chunk, _ Class, _ float64, _ bool) {
			sum += data.Bytes()
			n++
		})
		if sum != s.Used() {
			t.Fatalf("shards=%d: Range bytes %d != Used %d", shards, sum, s.Used())
		}
		if n != s.Len() {
			t.Fatalf("shards=%d: Range count %d != Len %d", shards, n, s.Len())
		}
	}
}

// TestStoreStatsConcurrent reads Stats/Len while writers mutate the store, at
// one stripe and at four.
func TestStoreStatsConcurrent(t *testing.T) {
	stores := map[string]Store{}
	s1, _ := New(8_000, NewTwoLevel())
	s2, _ := New(8_000, NewTwoLevel(), WithShards(4))
	stores["single"], stores["sharded"] = s1, s2
	for name, s := range stores {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					for i := 0; i < 500; i++ {
						num := rng.Intn(30)
						s.Insert(key(num), mkChunk(0, num, 1+rng.Intn(10)), AsBackend(1))
						s.Get(key(rng.Intn(30)))
					}
				}(w)
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			// Read the counters from this goroutine while the writers run.
			for alive := true; alive; {
				select {
				case <-done:
					alive = false
				default:
				}
				st := s.Stats()
				if st.Hits < 0 || st.Inserts < 0 || s.Len() < 0 {
					t.Fatalf("impossible counters: %+v", st)
				}
			}
			if st := s.Stats(); st.Inserts == 0 {
				t.Fatalf("no inserts recorded: %+v", st)
			}
		})
	}
}

// transcriptListener writes every listener callback into the transcript.
type transcriptListener struct{ w io.Writer }

func (l transcriptListener) OnInsert(e *Entry) {
	fmt.Fprintf(l.w, "ins %v %v %v %v\n", e.Key, e.Class, e.Recycled, e.Bytes())
}

func (l transcriptListener) OnEvent(ev Event) { fmt.Fprintf(l.w, "ev %v %v\n", ev.Key, ev.Reason) }

// statsLine renders the counters a transcript hashes, field by field, so a
// recorded hash does not depend on the Stats struct's layout.
func statsLine(st Stats) string {
	return fmt.Sprintf("{Hits:%d Misses:%d Inserts:%d Evictions:%d Denied:%d}", st.Hits, st.Misses, st.Inserts, st.Evictions, st.Denied)
}

// TestOneStripeMatchesRecordedReference replays a seeded 5,000-op stream
// against a default (one-stripe) store small enough to evict constantly and
// hashes the full transcript: every verdict, every listener callback in
// order, and the final counters. The stream was first pinned to the
// single-lock store (the Cache struct) this one replaced; when
// administrative removal was deleted, its removal ops were dropped and the
// hashes re-recorded at commit 92e69ab, whose one-stripe store still matched
// that reference, so a one-stripe store's replacement decisions stay pinned
// event-for-event under every policy.
func TestOneStripeMatchesRecordedReference(t *testing.T) {
	for _, tc := range []struct {
		policy Policy
		want   string
	}{
		{newLRU(), "02460f8d82fd4ed68e0d569404ac859a709cbebaf0d4b4c1dbbf0bf7fe3ca332"},
		{newBenefitClock(), "0553a3eefe8a93c5db5121bb2e6dcd5873fd952e8c3da515aebea2eda345cfb9"},
		{NewTwoLevel(), "a95cc9f0145be55a9606aa2e7246a62b3cb312f7c82f95b362099dbb216c9a0b"},
		{NewTwoLevelPromote(), "3381758fb9ceb9433c3a73850ac94add667f52541cfab01a10987d8967a89040"},
	} {
		s, err := New(4_000, tc.policy)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		h := sha256.New()
		s.SetListener(transcriptListener{h})
		rng := rand.New(rand.NewSource(17))
		var pinned []Key
		for op := 0; op < 5000; op++ {
			k := key(rng.Intn(40))
			switch rng.Intn(9) {
			case 0, 1, 2, 3:
				// Re-inserting a resident key with a different cell count is
				// the same-key replacement path, growth included.
				opt := []func(float64) InsertOption{AsBackend, AsComputed, AsRecycled}[rng.Intn(3)]
				ok := s.Insert(k, mkChunk(0, int(k.Num), 1+rng.Intn(20)), opt(float64(rng.Intn(1000))))
				fmt.Fprintf(h, "insert %v %v\n", k, ok)
			case 4, 5:
				cells := -1
				d, ok := s.Get(k)
				if ok {
					cells = d.Cells()
				}
				fmt.Fprintf(h, "get %v %v %d\n", k, ok, cells)
			case 6:
				ok := s.Pin(k)
				if ok {
					pinned = append(pinned, k)
				}
				fmt.Fprintf(h, "pin %v %v\n", k, ok)
			case 7:
				if n := len(pinned); n > 0 {
					i := rng.Intn(n)
					s.Unpin(pinned[i])
					pinned[i] = pinned[n-1]
					pinned = pinned[:n-1]
				}
			case 8:
				s.Reinforce([]Key{k, key(rng.Intn(40))}, float64(rng.Intn(100)))
			}
		}
		st := s.Stats()
		if st.Evictions < 500 {
			t.Fatalf("%s: stream does not stress replacement: %+v", tc.policy.Name(), st)
		}
		fmt.Fprintf(h, "%s %d %d\n", statsLine(st), s.Used(), s.Len())
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("%s: transcript hash %s, want %s (stats %+v)", tc.policy.Name(), got, tc.want, st)
		}
	}
}
