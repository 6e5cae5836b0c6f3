package core

import (
	"context"
	"testing"

	"aggcache/internal/cache"
	"aggcache/internal/chunk"
	"aggcache/internal/lattice"
	"aggcache/internal/sizer"
	"aggcache/internal/strategy"
)

// chunkQuery is the one-chunk query for chunk num of gb.
func chunkQuery(g *chunk.Grid, gb lattice.ID, num int) Query {
	lo := g.Coords(gb, num, nil)
	hi := make([]int32, len(lo))
	for d := range lo {
		hi[d] = lo[d] + 1
	}
	return Query{GB: gb, Lo: lo, Hi: hi}
}

// TestTieredColdLeafPinnedInPlace is the benchmark's Finding 1 at the engine:
// the plan leaf is cold and the hot tier has no room for it, because its one
// resident is pinned by a plan still being read (pinned here by hand,
// standing for a concurrent query). The pin must read the leaf where it
// lives: a complete hit with no backend request, and the leaf stays cold.
func TestTieredColdLeafPinnedInPlace(t *testing.T) {
	f := build(t, "VCMC", cache.NewTwoLevel(), 1<<20)
	base := f.grid.Lattice().Base()
	cs, _, err := f.oracle.ComputeChunks(context.Background(), base, []int{0, 1})
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	hot, err := cache.New(max(cs[0].Bytes(), cs[1].Bytes()), policyNamed(t, "lru"))
	if err != nil {
		t.Fatalf("cache.New: %v", err)
	}
	tc, err := cache.NewTiered(hot, 1<<20)
	if err != nil {
		t.Fatalf("NewTiered: %v", err)
	}
	sz := sizer.NewEstimate(f.grid, 1000)
	eng, err := New(f.grid, tc, strategy.NewVCMC(f.grid, sz), f.oracle, sz)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, num := range []int{0, 1} { // 1 displaces 0 into the cold tier
		if _, err := eng.Execute(context.Background(), chunkQuery(f.grid, base, num)); err != nil {
			t.Fatalf("warm chunk %d: %v", num, err)
		}
	}
	held := cache.Key{GB: base, Num: 1}
	if !tc.Pin(held) {
		t.Fatalf("chunk 1 is not hot")
	}
	defer tc.Unpin(held)

	before := eng.Stats().BackendQueries
	q := chunkQuery(f.grid, base, 0)
	res, err := eng.Execute(context.Background(), q)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if !res.CompleteHit || eng.Stats().BackendQueries != before {
		t.Fatalf("cold plan leaf not answered in place: complete hit %v, %d backend requests",
			res.CompleteHit, eng.Stats().BackendQueries-before)
	}
	// The hot tier fits one chunk: the leaf still cold means one cold
	// resident after the one demote that put it there.
	_, resident := tc.Peek(cache.Key{GB: base, Num: 0})
	if ts := tc.TierStats(); ts.ColdHits == 0 || ts.ColdChunks != 1 || ts.Demotes != 1 || !resident {
		t.Fatalf("tier stats %+v: want the leaf read as a cold hit, where it lives", ts)
	}
	assertMatchesOracle(t, f, q, res)
}

// evictBeforePin is an LRU store whose first armed Pin has the policy evict
// victim just before the pin reaches the store, the way a concurrent query's
// insert lands between a lookup and its pin: with keep pinned, it inserts
// fillers (real chunks, so any plan through them is still right) until
// victim is the LRU victim that makes room.
type evictBeforePin struct {
	*cache.Sharded
	victim  cache.Key
	keep    []cache.Key
	fillers []*chunk.Chunk
	fillGB  lattice.ID
	armed   bool
}

func (s *evictBeforePin) Pin(k cache.Key) bool {
	if s.armed {
		s.armed = false
		for _, p := range s.keep {
			s.Sharded.Pin(p)
		}
		for _, c := range s.fillers {
			if _, resident := s.Peek(s.victim); !resident {
				break
			}
			s.Insert(cache.Key{GB: s.fillGB, Num: c.Num}, c)
		}
		for _, p := range s.keep {
			s.Sharded.Unpin(p)
		}
	}
	return s.Sharded.Pin(k)
}

// TestReplanAfterPinRace: the cached top chunk is evicted between Find and
// Pin while it stays computable from the resident base group-by. The engine
// must plan once more and aggregate from base — a complete hit with no
// backend request — instead of fetching the chunk.
func TestReplanAfterPinRace(t *testing.T) {
	f := build(t, "VCMC", cache.NewTwoLevel(), 1<<20)
	lat := f.grid.Lattice()
	base := lat.Base()
	st := &evictBeforePin{victim: cache.Key{GB: lat.Top(), Num: 0}}
	nums := make([]int, f.grid.NumChunks(base))
	for i := range nums {
		nums[i] = i
		st.keep = append(st.keep, cache.Key{GB: base, Num: int32(i)})
	}
	// Room for the base group-by and two top chunks: a filler fits beside
	// the warm top chunk, and the next one must evict it.
	cs, _, err := f.oracle.ComputeChunks(context.Background(), base, nums)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	tops, _, err := f.oracle.ComputeChunks(context.Background(), lat.Top(), []int{0})
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	capacity := 2 * tops[0].Bytes()
	for _, c := range cs {
		capacity += c.Bytes()
	}
	st.fillGB = lat.Children(base)[0]
	fill := make([]int, f.grid.NumChunks(st.fillGB))
	for i := range fill {
		fill[i] = i
	}
	if st.fillers, _, err = f.oracle.ComputeChunks(context.Background(), st.fillGB, fill); err != nil {
		t.Fatalf("oracle: %v", err)
	}
	if st.Sharded, err = cache.New(capacity, policyNamed(t, "lru")); err != nil {
		t.Fatalf("cache.New: %v", err)
	}
	sz := sizer.NewEstimate(f.grid, 1000)
	eng, err := New(f.grid, st, strategy.NewVCMC(f.grid, sz), f.oracle, sz)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, q := range []Query{WholeGroupBy(lat.Base()), WholeGroupBy(lat.Top())} {
		if _, err := eng.Execute(context.Background(), q); err != nil {
			t.Fatalf("warm: %v", err)
		}
	}

	st.armed = true
	before := eng.Stats().BackendQueries
	q := WholeGroupBy(lat.Top())
	res, err := eng.Execute(context.Background(), q)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if st.armed {
		t.Fatalf("the query pinned nothing")
	}
	if !res.CompleteHit || res.AggregatedTuples == 0 || eng.Stats().BackendQueries != before {
		t.Fatalf("pin race not re-planned: complete hit %v, %d tuples aggregated, %d backend requests",
			res.CompleteHit, res.AggregatedTuples, eng.Stats().BackendQueries-before)
	}
	assertMatchesOracle(t, f, q, res)
}
