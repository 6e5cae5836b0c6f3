package core

import (
	"context"
	"math/rand"
	"testing"

	"aggcache/internal/apb"
	"aggcache/internal/backend"
	"aggcache/internal/cache"
	"aggcache/internal/chunk"
	"aggcache/internal/lattice"
	"aggcache/internal/sizer"
	"aggcache/internal/strategy"
)

type fixture struct {
	grid   *chunk.Grid
	engine *Engine
	oracle *backend.Engine
}

// build wires an engine over the tiny APB preset.
func build(t testing.TB, stratName string, policy cache.Policy, capacity int64, opts ...Option) *fixture {
	t.Helper()
	cfg := apb.New(apb.ScaleTiny)
	g, tab, err := cfg.Build(21)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	be, err := backend.NewEngine(g, tab, backend.LatencyModel{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	sz := sizer.NewEstimate(g, int64(tab.Len()))
	var s strategy.Strategy
	switch stratName {
	case "ESM":
		s = strategy.NewESM(g, 0)
	case "ESM-tiny-budget":
		s = strategy.NewESM(g, 1)
	case "ESMC":
		s = strategy.NewESMC(g, sz, 0)
	case "VCM":
		s = strategy.NewVCM(g)
	case "VCMC":
		s = strategy.NewVCMC(g, sz)
	case "NoAgg":
		s = strategy.NewNoAgg(g)
	default:
		t.Fatalf("unknown strategy %q", stratName)
	}
	c, err := cache.New(capacity, policy)
	if err != nil {
		t.Fatalf("cache.New: %v", err)
	}
	e, err := New(g, c, s, be, sz, opts...)
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	return &fixture{grid: g, engine: e, oracle: be}
}

// randomQuery picks a random group-by and chunk rectangle.
func randomQuery(rng *rand.Rand, g *chunk.Grid) Query {
	lat := g.Lattice()
	gb := lattice.ID(rng.Intn(lat.NumNodes()))
	lv := lat.Level(gb)
	nd := g.Schema().NumDims()
	lo := make([]int32, nd)
	hi := make([]int32, nd)
	for d := 0; d < nd; d++ {
		n := g.ChunkCount(d, lv[d])
		a := rng.Intn(n)
		b := a + 1 + rng.Intn(n-a)
		lo[d], hi[d] = int32(a), int32(b)
	}
	return Query{GB: gb, Lo: lo, Hi: hi}
}

// assertMatchesOracle compares a result against direct backend computation,
// trimmed to the query's member ranges.
func assertMatchesOracle(t *testing.T, f *fixture, q Query, res *Result) {
	t.Helper()
	nq, err := q.normalize(f.grid)
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}
	nums := nq.chunkNumbers(f.grid)
	want, _, err := f.oracle.ComputeChunks(context.Background(), nq.GB, nums)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	if len(res.Chunks) != len(want) {
		t.Fatalf("result has %d chunks, want %d", len(res.Chunks), len(want))
	}
	for i, wc := range want {
		if nq.MemberRanges != nil {
			wc = f.grid.Slice(wc, nq.MemberRanges)
		}
		gc := res.Chunks[i]
		if gc == nil {
			t.Fatalf("nil chunk %d", i)
		}
		if gc.Cells() != wc.Cells() {
			t.Fatalf("chunk %d: %d cells, want %d", i, gc.Cells(), wc.Cells())
		}
		for j, key := range wc.Keys {
			v, ok := gc.Value(key)
			if !ok {
				t.Fatalf("chunk %d missing cell %d", i, key)
			}
			if diff := v - wc.Vals[j]; diff > 1e-6 || diff < -1e-6 {
				t.Fatalf("chunk %d cell %d: %v, want %v", i, key, v, wc.Vals[j])
			}
		}
	}
}

// TestEngineMatchesOracleAllStrategies is the engine's main correctness
// property: whatever the strategy, policy or cache size, every answer equals
// direct backend computation.
func TestEngineMatchesOracleAllStrategies(t *testing.T) {
	for _, name := range []string{"ESM", "ESMC", "VCM", "VCMC", "NoAgg"} {
		for _, cap := range []int64{2_000, 20_000, 1 << 20} {
			t.Run(name, func(t *testing.T) {
				var p cache.Policy
				if name == "NoAgg" {
					p = cache.NewBenefitClock()
				} else {
					p = cache.NewTwoLevel()
				}
				f := build(t, name, p, cap)
				rng := rand.New(rand.NewSource(99))
				for i := 0; i < 40; i++ {
					q := randomQuery(rng, f.grid)
					res, err := f.engine.Execute(context.Background(), q)
					if err != nil {
						t.Fatalf("Execute: %v", err)
					}
					assertMatchesOracle(t, f, q, res)
				}
			})
		}
	}
}

func TestRepeatQueryIsCompleteHit(t *testing.T) {
	f := build(t, "VCMC", cache.NewTwoLevel(), 1<<20)
	q := WholeGroupBy(f.grid.Lattice().MustID(1, 1, 0))
	res1, err := f.engine.Execute(context.Background(), q)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if res1.CompleteHit {
		t.Fatalf("first query should miss (cold cache)")
	}
	res2, err := f.engine.Execute(context.Background(), q)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if !res2.CompleteHit || res2.MissChunks != 0 {
		t.Fatalf("repeat query not a complete hit: %+v", res2)
	}
	if res2.Breakdown.Backend != 0 {
		t.Fatalf("repeat query touched the backend")
	}
	st := f.engine.Stats()
	if st.Queries != 2 || st.CompleteHits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestRollUpIsCompleteHit is the paper's headline behaviour: after the base
// data is cached, an aggregated query is answered by aggregating the cache
// with no backend access.
func TestRollUpIsCompleteHit(t *testing.T) {
	f := build(t, "VCMC", cache.NewTwoLevel(), 1<<20)
	lat := f.grid.Lattice()
	if _, err := f.engine.Execute(context.Background(), WholeGroupBy(lat.Base())); err != nil {
		t.Fatalf("warm base: %v", err)
	}
	res, err := f.engine.Execute(context.Background(), WholeGroupBy(lat.Top()))
	if err != nil {
		t.Fatalf("Execute(top): %v", err)
	}
	if !res.CompleteHit {
		t.Fatalf("aggregate query should be a complete hit")
	}
	if res.AggregatedTuples == 0 {
		t.Fatalf("no aggregation happened")
	}
	assertMatchesOracle(t, f, WholeGroupBy(lat.Top()), res)
	// NoAgg in the same situation must go to the backend.
	f2 := build(t, "NoAgg", cache.NewBenefitClock(), 1<<20)
	if _, err := f2.engine.Execute(context.Background(), WholeGroupBy(f2.grid.Lattice().Base())); err != nil {
		t.Fatalf("warm base: %v", err)
	}
	res2, err := f2.engine.Execute(context.Background(), WholeGroupBy(f2.grid.Lattice().Top()))
	if err != nil {
		t.Fatalf("Execute(top): %v", err)
	}
	if res2.CompleteHit {
		t.Fatalf("NoAgg must miss on aggregate queries")
	}
}

func TestComputedChunkGetsCached(t *testing.T) {
	f := build(t, "VCMC", cache.NewTwoLevel(), 1<<20)
	lat := f.grid.Lattice()
	if _, err := f.engine.Execute(context.Background(), WholeGroupBy(lat.Base())); err != nil {
		t.Fatalf("warm: %v", err)
	}
	if _, err := f.engine.Execute(context.Background(), WholeGroupBy(lat.Top())); err != nil {
		t.Fatalf("aggregate: %v", err)
	}
	// The aggregated chunk must now be resident: a third query answers it
	// without aggregation work.
	res, err := f.engine.Execute(context.Background(), WholeGroupBy(lat.Top()))
	if err != nil {
		t.Fatalf("repeat: %v", err)
	}
	if !res.CompleteHit || res.AggregatedTuples != 0 {
		t.Fatalf("computed chunk was not cached: %+v", res)
	}
}

// TestRepeatedAndContainedQueriesArePointHits: a roll-up answer stays
// resident as chunks, so repeating the query, and asking for a contained
// sub-rectangle trimmed by member ranges, are both answered from those chunks
// alone — no aggregation, no backend request, exactly the trimmed cells. On a
// store with a cold tier the answer chunks are first demoted, and are then
// read where they live.
func TestRepeatedAndContainedQueriesArePointHits(t *testing.T) {
	f := build(t, "VCMC", cache.NewTwoLevel(), 1<<20)
	lat := f.grid.Lattice()
	base := lat.Base()
	// The roll-up is the non-base group-by with the most chunks; the filler
	// is the one with the most chunks among those it cannot answer.
	var gb, filler lattice.ID
	for id := lattice.ID(0); int(id) < lat.NumNodes(); id++ {
		if id != base && f.grid.NumChunks(id) > f.grid.NumChunks(gb) {
			gb = id
		}
	}
	for id := lattice.ID(0); int(id) < lat.NumNodes(); id++ {
		finer := false
		for d, l := range lat.Level(id) {
			finer = finer || l > lat.Level(gb)[d]
		}
		if finer && id != base && f.grid.NumChunks(id) > f.grid.NumChunks(filler) {
			filler = id
		}
	}
	rollup := WholeGroupBy(gb)
	nq, err := rollup.normalize(f.grid)
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}
	// The contained query keeps the upper half of the first dimension with
	// more than one chunk, and trims one member off each end of every
	// dimension wide enough to keep some.
	sub := Query{GB: gb, Lo: append([]int32(nil), nq.Lo...), Hi: nq.Hi, MemberRanges: make([]chunk.Range, len(nq.Lo))}
	halved := false
	for d := range sub.Lo {
		if !halved && nq.Hi[d] > 1 {
			sub.Lo[d], halved = nq.Hi[d]/2, true
		}
		card := int32(f.grid.Schema().Dim(d).Card(lat.Level(gb)[d]))
		sub.MemberRanges[d] = chunk.Range{Lo: 0, Hi: card}
		if card > 2 {
			sub.MemberRanges[d] = chunk.Range{Lo: 1, Hi: card - 1}
		}
	}

	// pointHit runs q and checks it is answered from resident chunks alone.
	pointHit := func(t *testing.T, eng *Engine, q Query) *Result {
		t.Helper()
		before := eng.Stats().BackendQueries
		res, err := eng.Execute(context.Background(), q)
		if err != nil {
			t.Fatalf("Execute: %v", err)
		}
		if !res.CompleteHit || res.AggregatedTuples != 0 || eng.Stats().BackendQueries != before {
			t.Fatalf("not a point hit: complete %v, %d tuples aggregated, %d backend requests",
				res.CompleteHit, res.AggregatedTuples, eng.Stats().BackendQueries-before)
		}
		assertMatchesOracle(t, f, q, res)
		return res
	}
	// run executes each query in turn.
	run := func(t *testing.T, eng *Engine, qs ...Query) {
		t.Helper()
		for _, q := range qs {
			if _, err := eng.Execute(context.Background(), q); err != nil {
				t.Fatalf("Execute: %v", err)
			}
		}
	}

	t.Run("flat", func(t *testing.T) {
		run(t, f.engine, WholeGroupBy(base), rollup)
		if f.engine.Stats().AggTuples == 0 {
			t.Fatalf("the roll-up did not aggregate")
		}
		full := pointHit(t, f.engine, rollup)
		trimmed := pointHit(t, f.engine, sub)
		if trimmed.Cells() == 0 || trimmed.Cells() >= full.Cells() {
			t.Fatalf("contained query has %d cells, the roll-up %d", trimmed.Cells(), full.Cells())
		}
	})

	t.Run("cold", func(t *testing.T) {
		// The hot tier fits the base plus one more chunk: the roll-up's
		// pinned leaves stay hot, and every chunk inserted after them
		// demotes the least recently used one that is not a leaf.
		var baseBytes, largest int64
		for _, id := range []lattice.ID{base, gb, filler} {
			nums := make([]int, f.grid.NumChunks(id))
			for i := range nums {
				nums[i] = i
			}
			cs, _, err := f.oracle.ComputeChunks(context.Background(), id, nums)
			if err != nil {
				t.Fatalf("oracle: %v", err)
			}
			for _, c := range cs {
				largest = max(largest, c.Bytes())
				if id == base {
					baseBytes += c.Bytes()
				}
			}
		}
		hot, err := cache.New(baseBytes+largest, cache.NewLRU())
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
		// The filler rolls up from the base alone, and its chunks demote
		// the roll-up chunks still hot.
		run(t, eng, WholeGroupBy(base), rollup, WholeGroupBy(filler))
		if eng.Stats().AggTuples == 0 {
			t.Fatalf("the roll-up did not aggregate")
		}
		for _, q := range []Query{rollup, sub} {
			before := tc.TierStats()
			res := pointHit(t, eng, q)
			ts := tc.TierStats()
			if got := ts.ColdHits - before.ColdHits; got != int64(len(res.Chunks)) {
				t.Fatalf("%d of %d answer chunks read from the cold tier", got, len(res.Chunks))
			}
			if ts.ColdChunks != before.ColdChunks || ts.Demotes != before.Demotes {
				t.Fatalf("a point hit moved chunks between tiers: %+v -> %+v", before, ts)
			}
		}
	})
}

func TestBudgetExceededFallsBackToBackend(t *testing.T) {
	f := build(t, "ESM-tiny-budget", cache.NewTwoLevel(), 1<<20)
	lat := f.grid.Lattice()
	if _, err := f.engine.Execute(context.Background(), WholeGroupBy(lat.Base())); err != nil {
		t.Fatalf("warm: %v", err)
	}
	// With budget 1, an aggregate lookup trips the budget and the chunk is
	// fetched from the backend instead.
	res, err := f.engine.Execute(context.Background(), WholeGroupBy(lat.Top()))
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if !res.BudgetExceeded {
		t.Fatalf("expected BudgetExceeded")
	}
	if res.CompleteHit {
		t.Fatalf("budget miss should not be a complete hit")
	}
	assertMatchesOracle(t, f, WholeGroupBy(lat.Top()), res)
	if f.engine.Stats().BudgetMisses == 0 {
		t.Fatalf("BudgetMisses not counted")
	}
}

func TestQueryValidation(t *testing.T) {
	f := build(t, "VCM", cache.NewTwoLevel(), 1<<20)
	cases := []Query{
		{GB: 9999},
		{GB: 0, Lo: []int32{0}, Hi: []int32{1}}, // wrong arity
		{GB: 0, Lo: []int32{0, 0, 0}, Hi: []int32{2, 1, 1}},                                              // out of range
		{GB: 0, Lo: []int32{0, 0, 0}, Hi: []int32{0, 1, 1}},                                              // empty
		{GB: 0, MemberRanges: []chunk.Range{{Lo: 0, Hi: 1}}, Lo: []int32{0, 0, 0}, Hi: []int32{1, 1, 1}}, // ranges arity
	}
	for i, q := range cases {
		if _, err := f.engine.Execute(context.Background(), q); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	if _, err := New(nil, nil, nil, nil, nil); err == nil {
		t.Errorf("New with nils: expected error")
	}
}

func TestMemberRangeTrim(t *testing.T) {
	f := build(t, "VCMC", cache.NewTwoLevel(), 1<<20)
	lat := f.grid.Lattice()
	base := lat.Base()
	full, err := f.engine.Execute(context.Background(), WholeGroupBy(base))
	if err != nil {
		t.Fatalf("full: %v", err)
	}
	// Trim to the first product member only.
	sch := f.grid.Schema()
	ranges := make([]chunk.Range, sch.NumDims())
	lv := lat.Level(base)
	for d := range ranges {
		ranges[d] = chunk.Range{Lo: 0, Hi: int32(sch.Dim(d).Card(lv[d]))}
	}
	ranges[0] = chunk.Range{Lo: 0, Hi: 1}
	q := WholeGroupBy(base)
	q.MemberRanges = ranges
	trimmed, err := f.engine.Execute(context.Background(), q)
	if err != nil {
		t.Fatalf("trimmed: %v", err)
	}
	if trimmed.Cells() >= full.Cells() {
		t.Fatalf("trim did not reduce cells: %d vs %d", trimmed.Cells(), full.Cells())
	}
	if trimmed.Total() >= full.Total() {
		t.Fatalf("trim did not reduce total")
	}
}

func TestPreload(t *testing.T) {
	f := build(t, "VCMC", cache.NewTwoLevel(), 1<<20)
	gb, ok, err := f.engine.Preload(context.Background())
	if err != nil || !ok {
		t.Fatalf("Preload: %v %v", ok, err)
	}
	lat := f.grid.Lattice()
	// A huge cache fits the base table, which has the maximal descendant
	// count.
	if gb != lat.Base() {
		t.Fatalf("preloaded %s, want base", lat.LevelTupleString(gb))
	}
	// Everything is now a complete hit.
	res, err := f.engine.Execute(context.Background(), WholeGroupBy(lat.Top()))
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if !res.CompleteHit {
		t.Fatalf("query after full preload missed")
	}
}

func TestPreloadSmallCachePicksAggregate(t *testing.T) {
	f := build(t, "VCMC", cache.NewTwoLevel(), 3_000)
	gb, ok, err := f.engine.Preload(context.Background())
	if err != nil {
		t.Fatalf("Preload: %v", err)
	}
	if !ok {
		t.Skipf("nothing fits in 3000 bytes for this dataset")
	}
	lat := f.grid.Lattice()
	if gb == lat.Base() {
		t.Fatalf("base table cannot fit a 3000-byte cache")
	}
	if f.engine.Cache().Used() > f.engine.Cache().Capacity() {
		t.Fatalf("preload overfilled the cache")
	}
}

func TestChoosePreloadNothingFits(t *testing.T) {
	f := build(t, "VCM", cache.NewTwoLevel(), 1<<20)
	if _, ok := ChoosePreloadGroupBy(f.grid, sizer.NewEstimate(f.grid, 1_000_000_000), 10); ok {
		t.Fatalf("nothing should fit in 10 bytes")
	}
}

func TestWholeGroupByNumChunks(t *testing.T) {
	f := build(t, "VCM", cache.NewTwoLevel(), 1<<20)
	lat := f.grid.Lattice()
	n, err := WholeGroupBy(lat.Base()).NumChunks(f.grid)
	if err != nil {
		t.Fatalf("NumChunks: %v", err)
	}
	if n != f.grid.NumChunks(lat.Base()) {
		t.Fatalf("NumChunks = %d, want %d", n, f.grid.NumChunks(lat.Base()))
	}
	if _, err := (Query{GB: 9999}).NumChunks(f.grid); err == nil {
		t.Fatalf("expected error")
	}
}

// TestSmallCacheThrashingStillCorrect stresses pinning/eviction interplay: a
// cache that can hold almost nothing must still answer correctly.
func TestSmallCacheThrashingStillCorrect(t *testing.T) {
	f := build(t, "VCMC", cache.NewTwoLevel(), 1_500)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 60; i++ {
		q := randomQuery(rng, f.grid)
		res, err := f.engine.Execute(context.Background(), q)
		if err != nil {
			t.Fatalf("Execute: %v", err)
		}
		assertMatchesOracle(t, f, q, res)
	}
}
