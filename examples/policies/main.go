// Policies: replay the same OLAP query stream against four cache
// configurations and compare complete-hit ratios and response times — a
// live, miniature version of the paper's Figures 7–9.
package main

import (
	"fmt"
	"log"

	"aggcache/internal/apb"
	"aggcache/internal/backend"
	"aggcache/internal/bench"
	"aggcache/internal/core"
)

func main() {
	cfg := bench.DefaultConfig(apb.ScaleTiny)
	cfg.Queries = 150
	cfg.Latency = backend.DefaultLatency
	env, err := bench.NewEnv(cfg)
	if err != nil {
		log.Fatal(err)
	}
	bytes := env.CacheSizes()[1] // a cache well below the base table size
	fmt.Printf("dataset: %d rows; cache %s; stream of %d queries (30/30/30/10 drill/roll/proximity/random)\n\n",
		env.Table.Len(), bench.SizeLabel(bytes), cfg.Queries)

	systems := []struct {
		name    string
		cfg     core.Config
		preload bool
	}{
		{"no aggregation + benefit policy", core.Config{
			Strategy: "NoAgg", Policy: "benefit", HotBytes: bytes}, false},
		{"VCMC + benefit policy", core.Config{
			Strategy: "VCMC", Policy: "benefit", HotBytes: bytes}, false},
		{"VCMC + two-level policy", core.Config{
			Strategy: "VCMC", Policy: "two-level", HotBytes: bytes}, true},
		{"ESM + two-level policy", core.Config{
			Strategy: "ESM", Policy: "two-level", HotBytes: bytes, LookupBudget: 1_000_000}, true},
	}

	fmt.Printf("%-34s %10s %12s %14s\n", "system", "hits", "avg query", "backend trips")
	for _, s := range systems {
		res, err := env.RunStream(s.cfg, s.preload)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-34s %8.0f %% %10.3f ms %14d\n",
			s.name, res.HitRatio(),
			float64(res.AvgAll().Nanoseconds())/1e6,
			res.Queries-res.CompleteHits)
	}

	fmt.Println("\nthe active cache (aggregation-capable) answers far more queries locally;")
	fmt.Println("the two-level policy protects backend chunks and preloads an aggregatable group-by.")
}
