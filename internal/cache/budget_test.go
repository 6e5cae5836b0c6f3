package cache

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"aggcache/internal/obs"
)

// budgetStore builds a store with a cold tier over the given stripes whose
// hot and cold shares start at hotBytes and coldBytes.
func budgetStore(t *testing.T, hotBytes, coldBytes int64, shards int) *Sharded {
	t.Helper()
	hot, err := New(hotBytes, newLRU(), WithShards(shards))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s, err := NewTiered(hot, coldBytes)
	if err != nil {
		t.Fatalf("NewTiered: %v", err)
	}
	return s
}

// eventCounts tallies listener callbacks per key, safe for concurrent use.
type eventCounts struct {
	mu                         sync.Mutex
	inserted, demoted, evicted map[Key]int
}

func newEventCounts() *eventCounts {
	return &eventCounts{inserted: map[Key]int{}, demoted: map[Key]int{}, evicted: map[Key]int{}}
}

func (l *eventCounts) OnInsert(e *Entry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.inserted[e.Key]++
}

func (l *eventCounts) OnEvent(ev Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if ev.Answerable() {
		l.demoted[ev.Key]++
	} else {
		l.evicted[ev.Key]++
	}
}

func sumCounts(m map[Key]int) (n int64) {
	for _, v := range m {
		n += int64(v)
	}
	return n
}

// checkSplit checks the byte bound of both tiers and the budget identity.
func checkSplit(c *Sharded) error {
	hotShare, hotUsed, coldShare, coldUsed, _ := c.split()
	switch {
	case hotUsed > hotShare:
		return fmt.Errorf("hot tier charges %d over its share %d", hotUsed, hotShare)
	case coldUsed > coldShare:
		return fmt.Errorf("cold tier charges %d over its share %d", coldUsed, coldShare)
	case hotShare+coldShare != c.Capacity():
		return fmt.Errorf("shares %d + %d != budget %d", hotShare, coldShare, c.Capacity())
	case c.Used() > c.Capacity():
		return fmt.Errorf("Used %d > Capacity %d", c.Used(), c.Capacity())
	}
	return nil
}

// TestBudgetInvariant runs a seeded stream of inserts, lookups, pins, unpins
// and reinforcements from concurrent goroutines (run under -race by `make
// soak-store`), over one stripe and four, while the stream alternately
// drives the boundary toward cold (expensive re-fills of dropped keys) and
// toward hot (cheap fills whose demoted copies are read back). After every
// op the byte bounds and the budget identity hold, the op's key is resident
// in at most one tier, and the cold tier's books balance (checkCold: heap and
// pins partition its residents, its byte counters match a recount, its
// inflation never falls); after the goroutines join, every key that
// left the store fired one Evicted per residency, every hot victim (a
// boundary shrink's included) fired one Demoted or Evicted, and with every
// pin released the cold tier holds nothing pinned.
func TestBudgetInvariant(t *testing.T) {
	unit := mkChunk(0, 0, 10).Bytes()
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			hot, err := New(12*unit, NewTwoLevelPromote(), WithShards(shards))
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			s, err := NewTiered(hot, 12*coldSlot)
			if err != nil {
				t.Fatalf("NewTiered: %v", err)
			}
			lis := newEventCounts()
			s.SetListener(lis)
			const workers, steps, keys, phase = 4, 5_000, 48, 250
			var wg sync.WaitGroup
			var failed atomic.Bool
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					var pinned []Key
					var inflation float64
					for i := 0; i < steps && !failed.Load(); i++ {
						towardCold := (i/phase)%2 == 0
						k := key(rng.Intn(keys))
						switch op := rng.Intn(10); {
						case op < 4:
							benefit := float64(1 + rng.Intn(4))
							if towardCold {
								benefit = float64(500 + rng.Intn(500))
							}
							opt := AsBackend(benefit)
							if rng.Intn(3) == 0 {
								opt = AsComputed(benefit)
							}
							s.Insert(k, mkChunk(0, int(k.Num), 1+rng.Intn(16)), opt)
						case op < 7:
							s.Get(k)
						case op < 8:
							if s.Pin(k) {
								pinned = append(pinned, k)
							}
						case op < 9:
							if n := len(pinned); n > 0 {
								j := rng.Intn(n)
								s.Unpin(pinned[j])
								pinned[j] = pinned[n-1]
								pinned = pinned[:n-1]
							}
						default:
							s.Reinforce([]Key{k, key(rng.Intn(keys))}, float64(rng.Intn(50)))
						}
						if err := checkSplit(s); err != nil {
							failed.Store(true)
							t.Errorf("op %d: %v", i, err)
						}
						if s.dualResident(k) {
							failed.Store(true)
							t.Errorf("op %d: %v resident in both tiers", i, k)
						}
						if err := checkCold(s, &inflation); err != nil {
							failed.Store(true)
							t.Errorf("op %d: %v", i, err)
						}
					}
					for _, k := range pinned {
						s.Unpin(k)
					}
				}(int64(shards*100 + w))
			}
			wg.Wait()
			if err := checkSplit(s); err != nil {
				t.Fatal(err)
			}
			if _, _, _, _, held := s.split(); held != 0 {
				t.Fatalf("cold tier holds %d pinned bytes with every pin released", held)
			}
			st, ts := s.Stats(), s.TierStats()
			if ts.HotGhostHits == 0 || ts.ColdGhostHits == 0 ||
				s.tmet.MovesTowardHot.Value() == 0 || s.tmet.MovesTowardCold.Value() == 0 {
				t.Fatalf("the stream did not move the boundary both ways: %+v, moves hot %d cold %d",
					ts, s.tmet.MovesTowardHot.Value(), s.tmet.MovesTowardCold.Value())
			}
			for k := 0; k < keys; k++ {
				kk := key(k)
				resident := 0
				if IsResident(s, kk) {
					resident = 1
				}
				if got := lis.inserted[kk] - lis.evicted[kk]; got != resident {
					t.Errorf("key %v: %d inserts, %d evictions, resident %d", kk, lis.inserted[kk], lis.evicted[kk], resident)
				}
			}
			if d := sumCounts(lis.demoted); d != ts.Demotes {
				t.Errorf("%d Demoted events, %d demotes", d, ts.Demotes)
			}
			if e := sumCounts(lis.evicted); e != ts.DemoteDenied+ts.ColdEvicts {
				t.Errorf("%d Evicted events, %d refused demotions + %d cold evictions", e, ts.DemoteDenied, ts.ColdEvicts)
			}
			if st.Evictions != ts.Demotes+ts.DemoteDenied {
				t.Errorf("%d hot victims, %d demoted + %d refused", st.Evictions, ts.Demotes, ts.DemoteDenied)
			}
		})
	}
}

// cyclicHits replays a cyclic scan over keys 24-chunk keys for the given
// number of rounds, filling every miss at benefit 1000, and returns the hits.
func cyclicHits(s *Sharded, rounds int) int {
	hits := 0
	for r := 0; r < rounds; r++ {
		for k := 0; k < 24; k++ {
			if _, ok := s.Get(key(k)); ok {
				hits++
				continue
			}
			s.Insert(key(k), mkChunk(0, k, 10), AsBackend(1000))
		}
	}
	return hits
}

// TestBudgetConvergesTowardCold: a cyclic stream whose working set fits the
// budget only when mostly compressed (24 chunks, in their 24 cold charges
// plus one decoded chunk: at most four of them fit decoded) thrashes a store
// frozen at a mostly-hot split, while the moving boundary shifts the budget
// to the cold tier and serves the cycle.
func TestBudgetConvergesTowardCold(t *testing.T) {
	budget := 24*(coldSlot-4) + mkChunk(0, 0, 10).Bytes()
	hotBytes, coldBytes := budget*4/5, budget/5
	fixed := budgetStore(t, hotBytes, coldBytes, 1)
	freezeBoundary(fixed)
	adaptive := budgetStore(t, hotBytes, coldBytes, 1)
	fixedHits, adaptiveHits := cyclicHits(fixed, 40), cyclicHits(adaptive, 40)
	ts := adaptive.TierStats()
	t.Logf("hits: fixed split %d, moving boundary %d; final split %d + %d", fixedHits, adaptiveHits, ts.HotCapacity, ts.ColdCapacity)
	if ts.HotCapacity >= hotBytes/2 || ts.ColdGhostHits == 0 {
		t.Fatalf("the boundary did not move toward cold: %+v", ts)
	}
	if adaptiveHits < 2*fixedHits || adaptiveHits < 24*20 {
		t.Fatalf("adaptive store hit %d times, fixed split %d (of %d lookups)", adaptiveHits, fixedHits, 24*40)
	}
	if err := checkSplit(adaptive); err != nil {
		t.Fatal(err)
	}
}

// TestBudgetConvergesTowardHot: cheap fills whose demoted copies are read
// back right after their demotion make every cold read a hot ghost hit, and
// the hot share grows.
func TestBudgetConvergesTowardHot(t *testing.T) {
	hotBytes := int64(1_000)
	s := budgetStore(t, hotBytes, 3_000, 1)
	lis := &recordingListener{}
	s.SetListener(lis)
	for k := 0; k < 200; k++ {
		seen := len(lis.events)
		s.Insert(key(k), mkChunk(0, k, 10), AsBackend(1))
		for _, ev := range lis.events[seen:] {
			if ev.Reason == Demoted {
				s.Get(ev.Key)
			}
		}
	}
	ts := s.TierStats()
	t.Logf("split %d + %d after %d hot ghost hits", ts.HotCapacity, ts.ColdCapacity, ts.HotGhostHits)
	if ts.HotCapacity < 3*hotBytes || ts.HotGhostHits < 3 || ts.ColdGhostHits != 0 {
		t.Fatalf("the boundary did not move toward hot: %+v", ts)
	}
	if err := checkSplit(s); err != nil {
		t.Fatal(err)
	}
}

// TestBudgetNoColdNeverMoves: a one-byte cold tier admits nothing, so no key
// ever reaches a ghost and the tier keeps its configured share: over 10,000
// ops of every kind the boundary never moves. This is the composition of the
// end-to-end benchmark's rollup_hit and point_hit workloads.
func TestBudgetNoColdNeverMoves(t *testing.T) {
	unit := mkChunk(0, 0, 10).Bytes()
	s := budgetStore(t, 8*unit, 1, 4)
	rng := rand.New(rand.NewSource(11))
	var pinned []Key
	for i := 0; i < 10_000; i++ {
		k := key(rng.Intn(64))
		switch rng.Intn(6) {
		case 0, 1:
			opt := AsBackend(float64(rng.Intn(1000)))
			if rng.Intn(2) == 0 {
				opt = AsComputed(float64(rng.Intn(1000)))
			}
			s.Insert(k, mkChunk(0, int(k.Num), 1+rng.Intn(20)), opt)
		case 2, 3:
			s.Get(k)
		case 4:
			if s.Pin(k) {
				pinned = append(pinned, k)
			}
		case 5:
			if n := len(pinned); n > 0 {
				s.Unpin(pinned[n-1])
				pinned = pinned[:n-1]
			}
		}
	}
	ts := s.TierStats()
	moves := s.tmet.MovesTowardHot.Value() + s.tmet.MovesTowardCold.Value()
	if moves != 0 || ts.HotGhostHits != 0 || ts.ColdGhostHits != 0 || ts.HotCapacity != 8*unit || ts.ColdCapacity != 1 {
		t.Fatalf("%d boundary moves: %+v", moves, ts)
	}
	if st := s.Stats(); st.Evictions == 0 || st.Denied == 0 || ts.DemoteDenied == 0 {
		t.Fatalf("stream too quiet: %+v %+v", st, ts)
	}
}

// TestBudgetMoveIsObservable moves the boundary once, by one hot ghost hit,
// and reads the move in TierStats and in the registered series.
func TestBudgetMoveIsObservable(t *testing.T) {
	reg := obs.NewRegistry()
	hot, err := New(1_000, newLRU(), WithMetrics(obs.NewCacheMetrics(reg)))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s, err := NewTiered(hot, 3_000)
	if err != nil {
		t.Fatalf("NewTiered: %v", err)
	}
	s.SetTierMetrics(obs.NewTierMetrics(reg))
	for k := 0; k < 4; k++ { // the fourth insert demotes key 0
		s.Insert(key(k), mkChunk(0, k, 10), AsBackend(1))
	}
	if ts := s.TierStats(); ts.Demotes != 1 || ts.HotCapacity != 1_000 || ts.ColdCapacity != 3_000 {
		t.Fatalf("before the move: %+v", ts)
	}
	if _, ok := s.Get(key(0)); !ok {
		t.Fatalf("demoted key 0 not served")
	}
	ts := s.TierStats()
	if ts.HotGhostHits != 1 || ts.ColdGhostHits != 0 || ts.HotCapacity <= 1_000 || ts.HotCapacity+ts.ColdCapacity != 4_000 {
		t.Fatalf("after one hot ghost hit: %+v", ts)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	for series, want := range map[string]int64{
		"aggcache_cache_capacity_bytes":                     ts.HotCapacity,
		"aggcache_cold_capacity_bytes":                      ts.ColdCapacity,
		`aggcache_tier_ghost_hits_total{tier="hot"}`:        1,
		`aggcache_tier_ghost_hits_total{tier="cold"}`:       0,
		`aggcache_tier_boundary_moves_total{toward="hot"}`:  1,
		`aggcache_tier_boundary_moves_total{toward="cold"}`: 0,
	} {
		if line := fmt.Sprintf("%s %d\n", series, want); !strings.Contains(b.String(), line) {
			t.Errorf("registry lacks %q:\n%s", strings.TrimSpace(line), b.String())
		}
	}
}
