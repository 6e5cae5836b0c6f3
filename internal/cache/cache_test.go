package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"aggcache/internal/chunk"
)

// mkChunk builds a payload with n cells for key identity (gb, num).
func mkChunk(gb, num, n int) *chunk.Chunk {
	c := &chunk.Chunk{GB: 0, Num: int32(num)}
	for i := 0; i < n; i++ {
		c.Keys = append(c.Keys, uint64(i))
		c.Vals = append(c.Vals, 1)
	}
	return c
}

func key(num int) Key { return Key{GB: 0, Num: int32(num)} }

// keysOf lists the resident keys of s, one per Range visit.
func keysOf(s Store) []Key {
	var ks []Key
	s.Range(func(k Key, _ *chunk.Chunk, _ Class, _ float64, _ bool) { ks = append(ks, k) })
	return ks
}

type recordingListener struct {
	inserted, evicted []Key
	events            []Event
}

func (r *recordingListener) OnInsert(e *Entry) { r.inserted = append(r.inserted, e.Key) }

func (r *recordingListener) OnEvent(ev Event) {
	r.events = append(r.events, ev)
	if !ev.Answerable() {
		r.evicted = append(r.evicted, ev.Key)
	}
}

func TestCacheBasics(t *testing.T) {
	c, err := New(10_000, NewBenefitClock())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if !c.Insert(key(1), mkChunk(0, 1, 10), AsBackend(100)) {
		t.Fatalf("insert denied")
	}
	if !IsResident(c, key(1)) {
		t.Fatalf("Contains(1) = false")
	}
	if d, ok := c.Get(key(1)); !ok || d.Cells() != 10 {
		t.Fatalf("Get(1) = %v,%v", d, ok)
	}
	if _, ok := c.Get(key(2)); ok {
		t.Fatalf("Get(2) should miss")
	}
	if d, ok := c.Peek(key(1)); !ok || d.Cells() != 10 {
		t.Fatalf("Peek(1) = %v,%v", d, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Inserts != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
	wantUsed := mkChunk(0, 1, 10).Bytes()
	if c.Used() != wantUsed {
		t.Fatalf("Used = %d, want %d", c.Used(), wantUsed)
	}
}

func TestCacheErrors(t *testing.T) {
	if _, err := New(0, NewBenefitClock()); err == nil {
		t.Errorf("capacity 0: expected error")
	}
	if _, err := New(100, nil); err == nil {
		t.Errorf("nil policy: expected error")
	}
}

func TestCacheEvictsWhenFull(t *testing.T) {
	// Each 10-cell chunk is 10*24+64 = 304 bytes; room for 2.
	c, _ := New(700, NewBenefitClock())
	l := &recordingListener{}
	c.SetListener(l)
	c.Insert(key(1), mkChunk(0, 1, 10), AsBackend(1))
	c.Insert(key(2), mkChunk(0, 2, 10), AsBackend(1))
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if !c.Insert(key(3), mkChunk(0, 3, 10), AsBackend(1)) {
		t.Fatalf("third insert denied")
	}
	if c.Len() != 2 {
		t.Fatalf("after eviction Len = %d, want 2", c.Len())
	}
	if len(l.inserted) != 3 || len(l.evicted) != 1 {
		t.Fatalf("listener saw %d inserts, %d evicts", len(l.inserted), len(l.evicted))
	}
	if c.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d", c.Stats().Evictions)
	}
}

func TestCacheOversizedChunkDenied(t *testing.T) {
	c, _ := New(100, NewBenefitClock())
	if c.Insert(key(1), mkChunk(0, 1, 100), AsBackend(1)) {
		t.Fatalf("oversized chunk admitted")
	}
	if c.Stats().Denied != 1 {
		t.Fatalf("Denied = %d", c.Stats().Denied)
	}
}

func TestCacheReinsertRefreshes(t *testing.T) {
	c, _ := New(10_000, NewBenefitClock())
	c.Insert(key(1), mkChunk(0, 1, 10), AsComputed(1))
	if !c.Insert(key(1), mkChunk(0, 1, 10), AsBackend(50)) {
		t.Fatalf("reinsert denied")
	}
	if c.Len() != 1 || c.Stats().Inserts != 1 {
		t.Fatalf("reinsert duplicated entry: len=%d inserts=%d", c.Len(), c.Stats().Inserts)
	}
}

func TestCachePinPreventsEviction(t *testing.T) {
	c, _ := New(700, NewBenefitClock())
	c.Insert(key(1), mkChunk(0, 1, 10), AsBackend(1))
	c.Insert(key(2), mkChunk(0, 2, 10), AsBackend(1))
	if !c.Pin(key(1)) || !c.Pin(key(2)) {
		t.Fatalf("Pin failed")
	}
	if c.Insert(key(3), mkChunk(0, 3, 10), AsBackend(1)) {
		t.Fatalf("insert admitted with everything pinned")
	}
	c.Unpin(key(1))
	if !c.Insert(key(3), mkChunk(0, 3, 10), AsBackend(1)) {
		t.Fatalf("insert denied after unpin")
	}
	if !IsResident(c, key(2)) {
		t.Fatalf("pinned chunk was evicted")
	}
	if IsResident(c, key(1)) {
		t.Fatalf("unpinned chunk should have been the victim")
	}
	if c.Pin(key(99)) {
		t.Fatalf("pinning a missing key should fail")
	}
	c.Unpin(key(99)) // no-op, must not panic
}

func TestBenefitClockPrefersLowBenefit(t *testing.T) {
	c, _ := New(700, NewBenefitClock())
	c.Insert(key(1), mkChunk(0, 1, 10), AsBackend(1e6)) // expensive
	c.Insert(key(2), mkChunk(0, 2, 10), AsBackend(1))   // cheap
	c.Insert(key(3), mkChunk(0, 3, 10), AsBackend(1e6))
	if !IsResident(c, key(1)) || !IsResident(c, key(3)) {
		t.Fatalf("high-benefit chunks evicted before low-benefit one")
	}
	if IsResident(c, key(2)) {
		t.Fatalf("low-benefit chunk survived over high-benefit ones")
	}
}

func TestTwoLevelAdmission(t *testing.T) {
	// Room for 2 chunks.
	c, _ := New(700, NewTwoLevel())
	c.Insert(key(1), mkChunk(0, 1, 10), AsBackend(10))
	c.Insert(key(2), mkChunk(0, 2, 10), AsBackend(10))
	// A computed chunk may not displace backend chunks.
	if c.Insert(key(3), mkChunk(0, 3, 10), AsComputed(1e9)) {
		t.Fatalf("computed chunk displaced backend chunks")
	}
	if c.Stats().Denied != 1 {
		t.Fatalf("Denied = %d", c.Stats().Denied)
	}
	// A backend chunk can displace a computed chunk.
	c2, _ := New(700, NewTwoLevel())
	c2.Insert(key(1), mkChunk(0, 1, 10), AsComputed(1e9))
	c2.Insert(key(2), mkChunk(0, 2, 10), AsBackend(1))
	if !c2.Insert(key(3), mkChunk(0, 3, 10), AsBackend(1)) {
		t.Fatalf("backend insert denied")
	}
	if IsResident(c2, key(1)) {
		t.Fatalf("computed chunk should be displaced before backend chunks")
	}
	if !IsResident(c2, key(2)) {
		t.Fatalf("backend chunk was displaced while a computed chunk existed")
	}
}

func TestTwoLevelBackendEvictsBackendWhenNoComputed(t *testing.T) {
	c, _ := New(700, NewTwoLevel())
	c.Insert(key(1), mkChunk(0, 1, 10), AsBackend(1))
	c.Insert(key(2), mkChunk(0, 2, 10), AsBackend(1))
	if !c.Insert(key(3), mkChunk(0, 3, 10), AsBackend(1)) {
		t.Fatalf("backend insert denied with only backend chunks resident")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestTwoLevelReinforceKeepsGroup(t *testing.T) {
	c, _ := New(700, NewTwoLevel())
	c.Insert(key(1), mkChunk(0, 1, 10), AsComputed(1))
	c.Insert(key(2), mkChunk(0, 2, 10), AsComputed(1))
	// Reinforce chunk 1 heavily: it was used to compute an aggregate.
	c.Reinforce([]Key{key(1), key(99)}, 1e9) // missing keys are ignored
	if !c.Insert(key(3), mkChunk(0, 3, 10), AsComputed(1)) {
		t.Fatalf("insert denied")
	}
	if !IsResident(c, key(1)) {
		t.Fatalf("reinforced chunk was evicted")
	}
	if IsResident(c, key(2)) {
		t.Fatalf("non-reinforced chunk should have been the victim")
	}
}

// TestTwoLevelPromoteOnReuse: under the promote variant, a computed-class
// entry that gets reinforced (it served as an aggregation input) moves to
// the protected ring — computed-class pressure can no longer displace it —
// while its Class keeps reporting computed provenance.
func TestTwoLevelPromoteOnReuse(t *testing.T) {
	c, _ := New(700, NewTwoLevelPromote())
	c.Insert(key(1), mkChunk(0, 1, 10), AsComputed(1))
	c.Insert(key(2), mkChunk(0, 2, 10), AsComputed(1))
	c.Reinforce([]Key{key(1)}, 1) // first reuse: promoted

	// Sustained computed-class pressure. Without promotion key 1's clock is
	// capped at maxClock, so this many evicting inserts would sweep it out;
	// promoted, it is invisible to computed-class victim scans.
	for i := 0; i < 3*maxClock; i++ {
		c.Insert(key(10+i), mkChunk(0, 10+i, 10), AsComputed(1e9))
	}
	if !IsResident(c, key(1)) {
		t.Fatalf("promoted entry displaced by computed-class pressure")
	}

	// Provenance survives the ring change: the entry still reports
	// ClassComputed (so a Peered store would still never replicate it).
	cl := ClassBackend
	c.Range(func(k Key, _ *chunk.Chunk, class Class, _ float64, _ bool) {
		if k == key(1) {
			cl = class
		}
	})
	if cl != ClassComputed {
		t.Fatalf("promoted entry class = %v, want ClassComputed", cl)
	}

	// The plain policy must sweep key 1 under the same pressure — promotion
	// is what protected it above.
	p, _ := New(700, NewTwoLevel())
	p.Insert(key(1), mkChunk(0, 1, 10), AsComputed(1))
	p.Insert(key(2), mkChunk(0, 2, 10), AsComputed(1))
	p.Reinforce([]Key{key(1)}, 1)
	for i := 0; i < 3*maxClock; i++ {
		p.Insert(key(10+i), mkChunk(0, 10+i, 10), AsComputed(1e9))
	}
	if IsResident(p, key(1)) {
		t.Fatalf("plain two-level kept the entry; promote test proves nothing")
	}

	// Fork preserves the variant.
	if NewTwoLevelPromote().Fork().Name() != "two-level-promote" {
		t.Fatalf("Fork dropped the promote setting")
	}
	if NewTwoLevel().Fork().Name() != "two-level" {
		t.Fatalf("plain Fork gained the promote setting")
	}
}

func TestClockWeight(t *testing.T) {
	if w := clockWeight(-5); w != 1 {
		t.Fatalf("clockWeight(-5) = %v", w)
	}
	if w := clockWeight(0); w != 1 {
		t.Fatalf("clockWeight(0) = %v", w)
	}
	if w := clockWeight(1e30); w != maxClock {
		t.Fatalf("clockWeight(1e30) = %v", w)
	}
	if clockWeight(100) <= clockWeight(10) {
		t.Fatalf("clockWeight not monotone")
	}
}

// TestCacheInvariantsProperty runs random operation sequences and checks the
// byte accounting and capacity invariants throughout.
func TestCacheInvariantsProperty(t *testing.T) {
	f := func(seed int64, twoLevel bool) bool {
		rng := rand.New(rand.NewSource(seed))
		var p Policy
		if twoLevel {
			p = NewTwoLevel()
		} else {
			p = NewBenefitClock()
		}
		c, _ := New(2_000, p)
		resident := make(map[Key]int64)
		l := &trackListener{resident: resident}
		c.SetListener(l)
		pinned := []Key{}
		for op := 0; op < 300; op++ {
			switch rng.Intn(5) {
			case 0, 1, 2:
				num := rng.Intn(30)
				n := 1 + rng.Intn(20)
				opt := AsBackend
				if rng.Intn(2) == 1 {
					opt = AsComputed
				}
				c.Insert(key(num), mkChunk(0, num, n), opt(float64(rng.Intn(1000))))
			case 3:
				num := rng.Intn(30)
				if c.Pin(key(num)) {
					pinned = append(pinned, key(num))
				}
			case 4:
				if len(pinned) > 0 {
					k := pinned[len(pinned)-1]
					pinned = pinned[:len(pinned)-1]
					c.Unpin(k)
				}
			}
			// Invariants. Byte accounting is checked against the live
			// entries (payload replacement changes bytes without a
			// listener event); the listener map checks insert/evict
			// key-set symmetry.
			if c.Used() > c.Capacity() {
				return false
			}
			var sum int64
			c.Range(func(_ Key, data *chunk.Chunk, _ Class, _ float64, _ bool) {
				sum += data.Bytes()
			})
			if sum != c.Used() || len(resident) != c.Len() {
				return false
			}
			for k := range resident {
				if !IsResident(c, k) {
					return false
				}
			}
		}
		// Pinned entries must all still be resident.
		for _, k := range pinned {
			if !IsResident(c, k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

type trackListener struct{ resident map[Key]int64 }

func (l *trackListener) OnInsert(e *Entry) { l.resident[e.Key] = e.Bytes() }

func (l *trackListener) OnEvent(ev Event) {
	if !ev.Answerable() {
		delete(l.resident, ev.Key)
	}
}

// Regression: re-inserting a resident key must replace the stale payload and
// re-charge the byte accounting for the delta.
func TestCacheReplacePayload(t *testing.T) {
	c, _ := New(10_000, NewBenefitClock())
	c.Insert(key(1), mkChunk(0, 1, 10), AsBackend(1))
	if !c.Insert(key(1), mkChunk(0, 1, 20), AsBackend(2)) {
		t.Fatalf("replacement insert denied")
	}
	if d, ok := c.Peek(key(1)); !ok || d.Cells() != 20 {
		t.Fatalf("stale payload survived reinsert: %v", d)
	}
	if want := mkChunk(0, 1, 20).Bytes(); c.Used() != want {
		t.Fatalf("Used = %d after growth, want %d", c.Used(), want)
	}
	// Shrinking releases bytes.
	if !c.Insert(key(1), mkChunk(0, 1, 5), AsBackend(2)) {
		t.Fatalf("shrinking insert denied")
	}
	if want := mkChunk(0, 1, 5).Bytes(); c.Used() != want {
		t.Fatalf("Used = %d after shrink, want %d", c.Used(), want)
	}
	if st := c.Stats(); st.Inserts != 1 {
		t.Fatalf("Inserts = %d, want 1 (replacement is not a new insert)", st.Inserts)
	}
}

// Regression: a growing replacement that overflows the cache evicts victims,
// never the entry being replaced.
func TestCacheReplaceEvictsOnGrowth(t *testing.T) {
	c, _ := New(700, NewBenefitClock())
	c.Insert(key(1), mkChunk(0, 1, 10), AsBackend(1))
	c.Insert(key(2), mkChunk(0, 2, 10), AsBackend(1))
	if !c.Insert(key(1), mkChunk(0, 1, 20), AsBackend(1)) {
		t.Fatalf("growing replacement denied")
	}
	if !IsResident(c, key(1)) || IsResident(c, key(2)) {
		t.Fatalf("wrong victim: has1=%v has2=%v", IsResident(c, key(1)), IsResident(c, key(2)))
	}
	if d, _ := c.Peek(key(1)); d.Cells() != 20 {
		t.Fatalf("payload not replaced")
	}
	if want := mkChunk(0, 1, 20).Bytes(); c.Used() != want {
		t.Fatalf("Used = %d, want %d", c.Used(), want)
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", st.Evictions)
	}
}

// Regression: an oversized replacement is denied and the old entry survives.
func TestCacheReplaceOversizedKeepsOld(t *testing.T) {
	c, _ := New(700, NewBenefitClock())
	c.Insert(key(1), mkChunk(0, 1, 10), AsBackend(1))
	if c.Insert(key(1), mkChunk(0, 1, 30), AsBackend(1)) {
		t.Fatalf("oversized replacement admitted")
	}
	if d, ok := c.Peek(key(1)); !ok || d.Cells() != 10 {
		t.Fatalf("old entry lost on denied replacement: %v ok=%v", d, ok)
	}
	if want := mkChunk(0, 1, 10).Bytes(); c.Used() != want {
		t.Fatalf("Used = %d, want %d", c.Used(), want)
	}
	if c.Stats().Denied != 1 {
		t.Fatalf("Denied = %d", c.Stats().Denied)
	}
}

// Regression: a reinsert that changes the class must migrate the entry to the
// matching two-level ring; a stale ring assignment lets a computed insert
// displace what is now a backend chunk.
func TestCacheReplaceClassMigratesRing(t *testing.T) {
	c, _ := New(700, NewTwoLevel())
	c.Insert(key(1), mkChunk(0, 1, 10), AsComputed(1))
	c.Insert(key(2), mkChunk(0, 2, 10), AsBackend(1))
	// Promote key(1) to backend class via reinsert.
	if !c.Insert(key(1), mkChunk(0, 1, 10), AsBackend(1)) {
		t.Fatalf("promoting reinsert denied")
	}
	// Both residents are now backend chunks, so a computed insert that needs
	// a victim must be denied outright.
	if c.Insert(key(3), mkChunk(0, 3, 10), AsComputed(1e9)) {
		t.Fatalf("computed chunk displaced a promoted backend chunk")
	}
	if !IsResident(c, key(1)) || !IsResident(c, key(2)) {
		t.Fatalf("backend chunk lost: has1=%v has2=%v", IsResident(c, key(1)), IsResident(c, key(2)))
	}
}

func TestKeysAndClassString(t *testing.T) {
	c, _ := New(10_000, NewBenefitClock())
	c.Insert(key(1), mkChunk(0, 1, 1), AsBackend(1))
	c.Insert(key(2), mkChunk(0, 2, 1), AsComputed(1))
	if ks := keysOf(c); len(ks) != 2 {
		t.Fatalf("resident keys = %v", ks)
	}
	if ClassBackend.String() != "backend" || ClassComputed.String() != "computed" {
		t.Fatalf("Class.String broken")
	}
	if key(1).String() != "0/1" {
		t.Fatalf("Key.String = %q", key(1).String())
	}
}
