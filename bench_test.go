// Package aggcache_test holds the repository-level benchmarks: one
// testing.B benchmark per table and figure of the paper (see DESIGN.md §5
// for the experiment index), plus micro-benchmarks of the hot paths.
// cmd/aggbench prints the full tables; these benchmarks make the same
// measurements available to `go test -bench`.
package aggcache_test

import (
	"context"
	"testing"

	"aggcache/internal/apb"
	"aggcache/internal/backend"
	"aggcache/internal/bench"
	"aggcache/internal/cache"
	"aggcache/internal/chunk"
	"aggcache/internal/core"
	"aggcache/internal/lattice"
	"aggcache/internal/strategy"
	"aggcache/internal/workload"
)

// benchEnv builds the shared tiny-scale environment (fast enough for -bench
// runs; cmd/aggbench covers the larger scales).
func benchEnv(b *testing.B) *bench.Env {
	b.Helper()
	cfg := bench.DefaultConfig(apb.ScaleTiny)
	cfg.Queries = 60
	cfg.LookupBudget = 1_000_000
	cfg.Latency = backend.LatencyModel{Connect: 100_000, PerTuple: 100}
	e, err := bench.NewEnv(cfg)
	if err != nil {
		b.Fatalf("NewEnv: %v", err)
	}
	return e
}

// lookupBench measures Table 1's unit of work: one Find per group-by.
func lookupBench(b *testing.B, name string, preloaded bool) {
	e := benchEnv(b)
	lat := e.Grid.Lattice()
	s, err := e.NewStrategy(name, 1_000_000)
	if err != nil {
		b.Fatalf("NewStrategy: %v", err)
	}
	if preloaded {
		base := lat.Base()
		for num := 0; num < e.Grid.NumChunks(base); num++ {
			s.OnInsert(&cache.Entry{Key: cache.Key{GB: base, Num: int32(num)}})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for id := lattice.ID(0); int(id) < lat.NumNodes(); id++ {
			_, _, _ = s.Find(id, 0)
		}
	}
}

func BenchmarkTable1LookupESMEmpty(b *testing.B)      { lookupBench(b, "ESM", false) }
func BenchmarkTable1LookupESMPreloaded(b *testing.B)  { lookupBench(b, "ESM", true) }
func BenchmarkTable1LookupESMCEmpty(b *testing.B)     { lookupBench(b, "ESMC", false) }
func BenchmarkTable1LookupESMCPreloaded(b *testing.B) { lookupBench(b, "ESMC", true) }
func BenchmarkTable1LookupVCMEmpty(b *testing.B)      { lookupBench(b, "VCM", false) }
func BenchmarkTable1LookupVCMPreloaded(b *testing.B)  { lookupBench(b, "VCM", true) }
func BenchmarkTable1LookupVCMCEmpty(b *testing.B)     { lookupBench(b, "VCMC", false) }
func BenchmarkTable1LookupVCMCPreloaded(b *testing.B) { lookupBench(b, "VCMC", true) }

// updateBench measures Table 2's unit of work: bulk-loading two adjacent
// levels through the strategy's maintenance path.
func updateBench(b *testing.B, name string) {
	e := benchEnv(b)
	lat := e.Grid.Lattice()
	lvA := append([]int(nil), e.Grid.Schema().BaseLevel()...)
	lvA[len(lvA)-1] = 0
	lvB := append([]int(nil), lvA...)
	lvB[len(lvB)-2] = 0
	gbA := lat.MustID(lvA...)
	gbB := lat.MustID(lvB...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := e.NewStrategy(name, 0)
		if err != nil {
			b.Fatalf("NewStrategy: %v", err)
		}
		b.StartTimer()
		for _, gb := range []lattice.ID{gbA, gbB} {
			for num := 0; num < e.Grid.NumChunks(gb); num++ {
				s.OnInsert(&cache.Entry{Key: cache.Key{GB: gb, Num: int32(num)}})
			}
		}
	}
}

func BenchmarkTable2UpdateVCM(b *testing.B)  { updateBench(b, "VCM") }
func BenchmarkTable2UpdateVCMC(b *testing.B) { updateBench(b, "VCMC") }

// BenchmarkTable3SpaceOverhead reports the strategies' summary-state bytes
// as benchmark metrics (Table 3 is a space, not time, artifact).
func BenchmarkTable3SpaceOverhead(b *testing.B) {
	e := benchEnv(b)
	var vcm, vcmc int64
	for i := 0; i < b.N; i++ {
		s1, _ := e.NewStrategy("VCM", 0)
		s2, _ := e.NewStrategy("VCMC", 0)
		vcm, vcmc = s1.Overhead(), s2.Overhead()
	}
	b.ReportMetric(float64(vcm), "vcm-bytes")
	b.ReportMetric(float64(vcmc), "vcmc-bytes")
}

// streamBench measures one full query stream against a system; the unit of
// Figures 7–9.
func streamBench(b *testing.B, spec func(e *bench.Env) (core.Config, bool)) {
	runBench(b, func(e *bench.Env) (*bench.StreamResult, error) { return e.RunStream(spec(e)) })
}

// runBench measures one full query stream run by run.
func runBench(b *testing.B, run func(e *bench.Env) (*bench.StreamResult, error)) {
	e := benchEnv(b)
	var hits float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := run(e)
		if err != nil {
			b.Fatalf("RunStream: %v", err)
		}
		hits = res.HitRatio()
	}
	b.ReportMetric(hits, "hit-%")
}

func midCache(e *bench.Env) int64 { s := e.CacheSizes(); return s[len(s)/2] }

func BenchmarkFig7StreamTwoLevel(b *testing.B) {
	streamBench(b, func(e *bench.Env) (core.Config, bool) {
		return core.Config{Strategy: "VCMC", Policy: "two-level", HotBytes: midCache(e)}, true
	})
}

func BenchmarkFig8StreamBenefit(b *testing.B) {
	streamBench(b, func(e *bench.Env) (core.Config, bool) {
		return core.Config{Strategy: "VCMC", Policy: "benefit", HotBytes: midCache(e)}, false
	})
}

func BenchmarkFig9StreamNoAgg(b *testing.B) {
	streamBench(b, func(e *bench.Env) (core.Config, bool) {
		return core.Config{Strategy: "NoAgg", Policy: "benefit", HotBytes: midCache(e)}, false
	})
}

func BenchmarkFig9StreamESM(b *testing.B) {
	runBench(b, func(e *bench.Env) (*bench.StreamResult, error) { return e.RunESM(midCache(e)) })
}

func BenchmarkFig9StreamVCMC(b *testing.B) {
	streamBench(b, func(e *bench.Env) (core.Config, bool) {
		return core.Config{Strategy: "VCMC", Policy: "two-level", HotBytes: midCache(e)}, true
	})
}

// BenchmarkFig10Table4CompleteHits reports Figure 10/Table 4's quantity: the
// ESM-over-VCMC total time ratio on complete-hit queries.
func BenchmarkFig10Table4CompleteHits(b *testing.B) {
	e := benchEnv(b)
	var speedup float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		esm, err := e.RunESM(midCache(e))
		if err != nil {
			b.Fatalf("esm: %v", err)
		}
		vcmc, err := e.RunStream(core.Config{Strategy: "VCMC", Policy: "two-level", HotBytes: midCache(e)}, true)
		if err != nil {
			b.Fatalf("vcmc: %v", err)
		}
		if vt := vcmc.AvgHits().Total(); vt > 0 {
			speedup = float64(esm.AvgHits().Total()) / float64(vt)
		}
	}
	b.ReportMetric(speedup, "speedup")
}

// BenchmarkUnitAggBenefit measures §7.1's comparison directly: one
// aggregated chunk from cache vs from the backend.
func BenchmarkUnitAggBenefit(b *testing.B) {
	e := benchEnv(b)
	q := core.Query{GB: e.Grid.Lattice().Top()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh preloaded stack per iteration, so each one aggregates the
		// top chunk anew from the base group-by.
		b.StopTimer()
		sys, err := e.NewSystem(core.Config{
			Strategy: "VCMC", Policy: "two-level",
			HotBytes: e.BaseBytes() * 4,
		}, true)
		if err != nil {
			b.Fatalf("NewSystem: %v", err)
		}
		b.StartTimer()
		if _, err := sys.Engine.Execute(context.Background(), q); err != nil {
			b.Fatalf("Execute: %v", err)
		}
	}
}

// BenchmarkUnitBackendCompute is the backend side of §7.1's comparison.
func BenchmarkUnitBackendCompute(b *testing.B) {
	e := benchEnv(b)
	lat := e.Grid.Lattice()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.Backend.ComputeChunks(context.Background(), lat.Top(), []int{0}); err != nil {
			b.Fatalf("ComputeChunks: %v", err)
		}
	}
}

// BenchmarkUnitCostVar runs the §7.1 path-spread analysis.
func BenchmarkUnitCostVar(b *testing.B) {
	e := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.UnitCostVar(e); err != nil {
			b.Fatalf("UnitCostVar: %v", err)
		}
	}
}

// --- micro-benchmarks of the hot paths ---

// BenchmarkRollUpKernel measures the aggregation kernel: all base chunks
// into the top chunk.
func BenchmarkRollUpKernel(b *testing.B) {
	e := benchEnv(b)
	lat := e.Grid.Lattice()
	base := lat.Base()
	chunks, _, err := e.Backend.ComputeGroupBy(base)
	if err != nil {
		b.Fatalf("ComputeGroupBy: %v", err)
	}
	var cells int64
	for _, c := range chunks {
		cells += int64(c.Cells())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cm := chunk.NewCellMap()
		for _, c := range chunks {
			if _, err := e.Grid.RollUpInto(cm, lat.Top(), 0, c); err != nil {
				b.Fatalf("RollUpInto: %v", err)
			}
		}
	}
	b.SetBytes(cells * 16)
}

// BenchmarkBackendScan measures the clustered-index scan path.
func BenchmarkBackendScan(b *testing.B) {
	e := benchEnv(b)
	lat := e.Grid.Lattice()
	nums := make([]int, e.Grid.NumChunks(lat.Base()))
	for i := range nums {
		nums[i] = i
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.Backend.ComputeChunks(context.Background(), lat.Base(), nums); err != nil {
			b.Fatalf("ComputeChunks: %v", err)
		}
	}
	b.SetBytes(int64(e.Table.Len()) * 16)
}

// BenchmarkVCMCFind measures the O(1) lookup claim on a warm cache.
func BenchmarkVCMCFind(b *testing.B) {
	e := benchEnv(b)
	lat := e.Grid.Lattice()
	s, _ := e.NewStrategy("VCMC", 0)
	base := lat.Base()
	for num := 0; num < e.Grid.NumChunks(base); num++ {
		s.OnInsert(&cache.Entry{Key: cache.Key{GB: base, Num: int32(num)}})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, found, _ := s.Find(lat.Top(), 0); !found {
			b.Fatalf("not found")
		}
	}
}

// BenchmarkWorkloadGenerator measures query stream generation.
func BenchmarkWorkloadGenerator(b *testing.B) {
	e := benchEnv(b)
	gen, err := workload.NewGenerator(e.Grid, workload.DefaultMix, 2, 1)
	if err != nil {
		b.Fatalf("NewGenerator: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Next()
	}
}

// BenchmarkEngineCompleteHit measures a fully warm end-to-end query.
func BenchmarkEngineCompleteHit(b *testing.B) {
	e := benchEnv(b)
	sys, err := e.NewSystem(core.Config{
		Strategy: "VCMC", Policy: "two-level",
		HotBytes: e.BaseBytes() * 4,
	}, true)
	if err != nil {
		b.Fatalf("NewSystem: %v", err)
	}
	q := core.Query{GB: e.Grid.Lattice().Base()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Engine.Execute(context.Background(), q); err != nil {
			b.Fatalf("Execute: %v", err)
		}
	}
}

// BenchmarkConcurrentStream measures end-to-end throughput with many
// goroutines sharing one warm engine — the workload the cache lock split and
// singleflight dedup target. Run with -cpu 1,2,4 to see the scaling.
func BenchmarkConcurrentStream(b *testing.B) {
	e := benchEnv(b)
	sys, err := e.NewSystem(core.Config{
		Strategy: "VCMC", Policy: "two-level",
		HotBytes: e.BaseBytes() * 4,
	}, true)
	if err != nil {
		b.Fatalf("NewSystem: %v", err)
	}
	gen, err := workload.NewGenerator(e.Grid, workload.DefaultMix, 2, e.Cfg.Seed+2000)
	if err != nil {
		b.Fatalf("NewGenerator: %v", err)
	}
	queries, _ := gen.Stream(64)
	for i, q := range queries {
		if _, err := sys.Engine.Execute(context.Background(), q); err != nil {
			b.Fatalf("warm query %d: %v", i, err)
		}
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := sys.Engine.Execute(context.Background(), queries[i%len(queries)]); err != nil {
				b.Errorf("Execute: %v", err)
				return
			}
			i++
		}
	})
}

// BenchmarkStrategyInsertEvictChurn measures maintenance under churn (the
// cost VCM/VCMC pay for O(1) lookups).
func BenchmarkStrategyInsertEvictChurn(b *testing.B) {
	for _, name := range []string{"VCM", "VCMC"} {
		b.Run(name, func(b *testing.B) {
			e := benchEnv(b)
			lat := e.Grid.Lattice()
			s, _ := e.NewStrategy(name, 0)
			base := lat.Base()
			n := e.Grid.NumChunks(base)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				num := i % n
				s.OnInsert(&cache.Entry{Key: cache.Key{GB: base, Num: int32(num)}})
				s.OnEvent(cache.Event{Key: cache.Key{GB: base, Num: int32(num)}, Reason: cache.Evicted, Entry: &cache.Entry{Key: cache.Key{GB: base, Num: int32(num)}}})
			}
		})
	}
}

// sanity check that the bench environment stays valid for strategies used
// above (guards against accidental preset drift).
func TestBenchEnvSanity(t *testing.T) {
	cfg := bench.DefaultConfig(apb.ScaleTiny)
	cfg.Latency = backend.LatencyModel{}
	e, err := bench.NewEnv(cfg)
	if err != nil {
		t.Fatalf("NewEnv: %v", err)
	}
	var s strategy.Strategy
	s, err = e.NewStrategy("VCMC", 0)
	if err != nil || s == nil {
		t.Fatalf("NewStrategy: %v", err)
	}
}
