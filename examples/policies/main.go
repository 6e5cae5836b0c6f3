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
	cfg.LookupBudget = 1_000_000
	env, err := bench.NewEnv(cfg)
	if err != nil {
		log.Fatal(err)
	}
	bytes := env.CacheSizes()[1] // a cache well below the base table size
	fmt.Printf("dataset: %d rows; cache %s; stream of %d queries (30/30/30/10 drill/roll/proximity/random)\n\n",
		env.Table.Len(), bench.SizeLabel(bytes), cfg.Queries)

	stream := func(c core.Config, preload bool) func() (*bench.StreamResult, error) {
		return func() (*bench.StreamResult, error) { return env.RunStream(c, preload) }
	}
	systems := []struct {
		name string
		run  func() (*bench.StreamResult, error)
	}{
		{"no aggregation + benefit policy", stream(core.Config{
			Strategy: "NoAgg", Policy: "benefit", HotBytes: bytes}, false)},
		{"VCMC + benefit policy", stream(core.Config{
			Strategy: "VCMC", Policy: "benefit", HotBytes: bytes}, false)},
		{"VCMC + two-level policy", stream(core.Config{
			Strategy: "VCMC", Policy: "two-level", HotBytes: bytes}, true)},
		{"ESM + two-level policy", func() (*bench.StreamResult, error) { return env.RunESM(bytes) }},
	}

	fmt.Printf("%-34s %10s %12s %14s\n", "system", "hits", "avg query", "backend trips")
	for _, s := range systems {
		res, err := s.run()
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
