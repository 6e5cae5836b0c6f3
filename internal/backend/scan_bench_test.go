package backend

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"aggcache/internal/apb"
	"aggcache/internal/lattice"
)

// BenchmarkComputeChunks measures the scan kernel the way the middle tier
// drives it: a seeded mix of group-bys drawn uniformly from the lattice, four
// distinct chunks per request, on the ScaleMedium fact table with no latency
// model. Besides ns/op it reports ns/tuple (wall time over tuples scanned)
// and allocs/tuple, which must stay 0: a request allocates per chunk (the
// result arrays), never per tuple.
func BenchmarkComputeChunks(b *testing.B) {
	g, tab, err := apb.New(apb.ScaleMedium).Build(1)
	if err != nil {
		b.Fatalf("Build: %v", err)
	}
	e, err := NewEngine(g, tab, LatencyModel{})
	if err != nil {
		b.Fatalf("NewEngine: %v", err)
	}
	type request struct {
		gb   lattice.ID
		nums []int
	}
	rng := rand.New(rand.NewSource(1))
	reqs := make([]request, 256)
	for i := range reqs {
		gb := lattice.ID(rng.Intn(g.Lattice().NumNodes()))
		n := g.NumChunks(gb)
		reqs[i] = request{gb: gb, nums: rng.Perm(n)[:min(4, n)]}
	}
	ctx := context.Background()
	var tuples int64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := reqs[i%len(reqs)]
		_, stats, err := e.ComputeChunks(ctx, r.gb, r.nums)
		if err != nil {
			b.Fatalf("ComputeChunks: %v", err)
		}
		tuples += stats.TuplesScanned
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(tuples), "ns/tuple")
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(tuples), "allocs/tuple")
}
