package strategy

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"aggcache/internal/apb"
	"aggcache/internal/cache"
	"aggcache/internal/chunk"
	"aggcache/internal/chunk/chunktest"
	"aggcache/internal/lattice"
	"aggcache/internal/obs"
	"aggcache/internal/sizer"
)

func apbGrid(scale apb.Scale) (*chunk.Grid, int64) {
	cfg := apb.New(scale)
	return chunk.MustNewGrid(cfg.Schema, cfg.ChunkCounts), int64(cfg.Rows)
}

// TestPropertyOneSilentAndTierMoves extends TestPropertyOneAndCosts to the
// ragged star grid and the APB small grid, under an event stream that
// interleaves counted inserts, recycled (silent) inserts, true departures
// and tier moves (Demoted). After every event it checks VCM and
// VCMC against the from-scratch oracle:
//   - counts equal the Definition 1 count over the counted residents;
//   - VCMC's cost equals the oracle's least cost over the counted residents;
//   - Find answers exactly the resident chunks (silent ones included) and the
//     chunks computable from the counted residents, with a valid plan;
//   - a VCMC plan costs what the stored cost says, or less once silent
//     residents open a cheaper path, and never less than the least cost over
//     every resident.
//
// The stream opens by forcing VCMC's worklist-mark wraparound: the first
// propagation (inserting base chunk 0) marks the chunk's children with epoch
// 1, and evicting it after the wrap runs at epoch 1 again, so stale marks
// would hide those children from it.
func TestPropertyOneSilentAndTierMoves(t *testing.T) {
	small, rows := apbGrid(apb.ScaleSmall)
	for _, tc := range []struct {
		name string
		grid *chunk.Grid
		rows int64
		ops  int
	}{
		{"star", chunktest.StarGrid(), 2000, 300},
		{"apb-small", small, rows, 200},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkSilentStream(t, tc.grid, sizer.NewEstimate(tc.grid, tc.rows), tc.ops)
		})
	}
}

func checkSilentStream(t *testing.T, g *chunk.Grid, sizes sizer.Sizer, ops int) {
	lat := g.Lattice()
	vcm, vcmc := NewVCM(g), NewVCMC(g, sizes)
	strategies := []Strategy{vcm, vcmc}
	o := newOracle(g, sizes)
	rng := rand.New(rand.NewSource(23))
	resident := map[cache.Key]*cache.Entry{}
	var keys []cache.Key // resident keys, for uniform picks

	insert := func(gb lattice.ID, num int, recycled bool) {
		k := cache.Key{GB: gb, Num: int32(num)}
		if resident[k] != nil {
			return
		}
		e := &cache.Entry{Key: k, Recycled: recycled}
		resident[k] = e
		keys = append(keys, k)
		if recycled {
			o.insertSilent(gb, num)
		} else {
			o.insert(gb, num)
		}
		for _, s := range strategies {
			s.OnInsert(e)
		}
	}
	send := func(i int, reason cache.EventReason) {
		k := keys[i]
		ev := cache.Event{Key: k, Reason: reason, Entry: resident[k]}
		if !ev.Answerable() {
			delete(resident, k)
			keys[i] = keys[len(keys)-1]
			keys = keys[:len(keys)-1]
			o.evict(k.GB, int(k.Num))
		}
		for _, s := range strategies {
			s.OnEvent(ev)
		}
	}

	checkAll := func(op int, full bool) {
		for id := lattice.ID(0); int(id) < lat.NumNodes(); id++ {
			for n := 0; n < g.NumChunks(id); n++ {
				if full || rng.Intn(16) == 0 {
					checkSilentChunk(t, op, g, o, vcm, vcmc, id, n)
				}
			}
		}
	}

	insert(lat.Base(), 0, false)
	vcmc.SetEpoch(math.MaxUint32)
	send(0, cache.Evicted)
	if e := vcmc.Epoch(); e != 1 {
		t.Fatalf("epoch %d after the forced wraparound, want 1", e)
	}
	checkAll(-1, true)

	for op := 0; op < ops; op++ {
		gb := lattice.ID(rng.Intn(lat.NumNodes()))
		num := rng.Intn(g.NumChunks(gb))
		switch r := rng.Intn(10); {
		case r < 3 && len(lat.Parents(gb)) > 0:
			// Fill one whole parent run, so aggregates become computable.
			pi := rng.Intn(len(lat.Parents(gb)))
			run := g.ParentRun(gb, num, int(lat.ParentDims(gb)[pi]))
			for i := 0; i < run.N; i++ {
				insert(lat.Parents(gb)[pi], run.At(i), false)
			}
		case r < 5:
			insert(gb, num, false)
		case r < 7:
			insert(gb, num, true)
		case len(keys) == 0:
		case r < 9:
			send(rng.Intn(len(keys)), cache.Evicted)
		default:
			send(rng.Intn(len(keys)), cache.Demoted)
		}
		checkAll(op, op%25 == 24)
	}
}

func checkSilentChunk(t *testing.T, op int, g *chunk.Grid, o *oracle, vcm *VCM, vcmc *VCMC, id lattice.ID, n int) {
	t.Helper()
	lat := g.Lattice()
	at := func() string { return lat.LevelTupleString(id) }
	wantCount := o.count(id, n)
	if got := vcm.Count(id, n); got != wantCount {
		t.Fatalf("op %d: VCM count %d for (%s,%d), Definition-1 count %d", op, got, at(), n, wantCount)
	}
	if got := vcmc.Count(id, n); got != wantCount {
		t.Fatalf("op %d: VCMC count %d for (%s,%d), Definition-1 count %d", op, got, at(), n, wantCount)
	}
	wantCost := o.cost(id, n)
	if got, ok := vcmc.CostEstimate(id, n); ok != (wantCost != infCost) || ok && got != wantCost {
		t.Fatalf("op %d: VCMC cost (%d,%v) for (%s,%d), oracle %d", op, got, ok, at(), n, wantCost)
	}
	resident := o.resident(id, n)
	wantFound := resident || wantCost != infCost
	for _, s := range []Strategy{vcm, vcmc} {
		plan, found, err := s.Find(id, n)
		if err != nil || found != wantFound {
			t.Fatalf("op %d: %s.Find(%s,%d) = %v, %v; want %v", op, s.Name(), at(), n, found, err, wantFound)
		}
		if !found {
			continue
		}
		checkPlan(t, g, o, plan)
		if resident != plan.Present {
			t.Fatalf("op %d: %s.Find(%s,%d): Present=%v for a chunk resident=%v", op, s.Name(), at(), n, plan.Present, resident)
		}
		if s != Strategy(vcmc) || resident {
			continue
		}
		if low := o.costOver(id, n, true); plan.Cost < low || plan.Cost > wantCost {
			t.Fatalf("op %d: VCMC plan cost %d for (%s,%d) outside [%d, %d]", op, plan.Cost, at(), n, low, wantCost)
		}
	}
}

// TestWarmMaintenanceAllocatesNothing: once VCMC's worklists have grown, an
// insert/evict cycle allocates nothing, for VCM and VCMC alike.
func TestWarmMaintenanceAllocatesNothing(t *testing.T) {
	g := apb3Grid(t)
	lat := g.Lattice()
	base := lat.Base()
	for _, s := range []Strategy{NewVCM(g), NewVCMC(g, sizer.NewEstimate(g, 500))} {
		// Half the base resident, so the cycled chunks complete and break
		// parent runs and both propagate.
		for n := 0; n < g.NumChunks(base); n += 2 {
			s.OnInsert(entry(base, n))
		}
		var entries []*cache.Entry
		for n := 1; n < g.NumChunks(base); n += 2 {
			entries = append(entries, entry(base, n))
		}
		entries = append(entries, entry(lat.MustID(1, 1, 1), 0), entry(lat.Top(), 0))
		cycle := func() {
			for _, e := range entries {
				s.OnInsert(e)
			}
			for _, e := range entries {
				s.OnEvent(cache.Event{Key: e.Key, Reason: cache.Evicted, Entry: e})
			}
		}
		before := s.Maintenance().Updates
		cycle()
		if s.Maintenance().Updates-before <= int64(2*len(entries)) {
			t.Fatalf("%s: the cycle did not propagate", s.Name())
		}
		if n := testing.AllocsPerRun(20, cycle); n != 0 {
			t.Fatalf("%s: warm insert/evict cycle allocates %v times, want 0", s.Name(), n)
		}
	}
}

// TestInstrumentNodesVisitedConcurrent: two goroutines share one
// instrumented VCMC, one finding a k-node plan and one a miss; the visited
// counter is charged exactly k per hit and 1 per miss.
func TestInstrumentNodesVisitedConcurrent(t *testing.T) {
	g := fig4Grid(t)
	lat := g.Lattice()
	s := NewVCMC(g, sizer.NewEstimate(g, 100))
	// Example 4: (1,0)#0 is computable from (1,1)#{0,1}; (0,0)#0 is not.
	s.OnInsert(entry(lat.Base(), 0))
	s.OnInsert(entry(lat.Base(), 1))
	hit, miss := lat.MustID(1, 0), lat.Top()
	plan, ok, _ := s.Find(hit, 0)
	if !ok {
		t.Fatal("(1,0)#0 not computable")
	}
	k := int64(plan.Nodes())
	met := obs.NewStrategyMetrics(obs.NewRegistry(), s.Name())
	in := Instrument(s, met)
	const n = 2000
	var wg sync.WaitGroup
	for _, gb := range []lattice.ID{hit, miss} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				in.Find(gb, 0)
			}
		}()
	}
	wg.Wait()
	if got, want := met.NodesVisited.Value(), n*(k+1); got != want {
		t.Fatalf("NodesVisited = %d, want %d (%d × (%d-node plan + 1-node miss))", got, want, n, k)
	}
}

// BenchmarkVCMCMaintenance cycles insert/evict over the medium APB grid with
// half the base resident: each iteration inserts one chunk from a fixed
// seeded pool (any group-by) and evicts it again. It reports the cost per
// count/cost update (Maintenance().Updates, the Table 2 quantity).
func BenchmarkVCMCMaintenance(b *testing.B) {
	g, rows := apbGrid(apb.ScaleMedium)
	lat := g.Lattice()
	s := NewVCMC(g, sizer.NewEstimate(g, rows))
	base := lat.Base()
	for n := 0; n < g.NumChunks(base); n += 2 {
		s.OnInsert(entry(base, n))
	}
	rng := rand.New(rand.NewSource(1))
	seen := map[cache.Key]bool{}
	var pool []*cache.Entry
	for len(pool) < 1024 {
		gb := lattice.ID(rng.Intn(lat.NumNodes()))
		e := entry(gb, rng.Intn(g.NumChunks(gb)))
		if seen[e.Key] || gb == base && e.Key.Num%2 == 0 {
			continue
		}
		seen[e.Key] = true
		pool = append(pool, e)
	}
	b.ReportAllocs()
	before := s.Maintenance().Updates
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := pool[i%len(pool)]
		s.OnInsert(e)
		s.OnEvent(cache.Event{Key: e.Key, Reason: cache.Evicted, Entry: e})
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(s.Maintenance().Updates-before), "ns/update")
}
