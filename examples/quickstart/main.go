// Quickstart: build an aggregate aware cache over a synthetic APB-1 dataset
// and watch an aggregate query get answered from the cache — by aggregating
// cached chunks — without touching the backend.
package main

import (
	"context"
	"fmt"
	"log"

	"aggcache/internal/apb"
	"aggcache/internal/backend"
	"aggcache/internal/core"
)

func main() {
	// 1. Schema + synthetic fact data (Product × Time × Channel, tiny scale).
	cfg := apb.New(apb.ScaleTiny)
	grid, table, err := cfg.Build(1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: %d rows, %d group-bys in the lattice\n",
		table.Len(), grid.Lattice().NumNodes())

	// 2. The three tiers: a backend engine, and a middle tier of a 1MB
	// single-stripe chunk cache under the paper's two-level replacement
	// policy (Build's default) with the VCMC lookup strategy (virtual counts
	// + cost-based path choice).
	be, err := backend.NewEngine(grid, table, backend.DefaultLatency)
	if err != nil {
		log.Fatal(err)
	}
	stack, err := core.Build(core.Config{
		Grid: grid, Backend: be, Rows: int64(table.Len()),
		Strategy: "VCMC", HotBytes: 1 << 20,
	})
	if err != nil {
		log.Fatal(err)
	}
	engine := stack.Engine

	lat := grid.Lattice()
	show := func(name string, q core.Query) {
		res, err := engine.Execute(context.Background(), q)
		if err != nil {
			log.Fatal(err)
		}
		source := "backend"
		if res.CompleteHit {
			source = "cache"
			if res.AggregatedTuples > 0 {
				source = "cache, by aggregating " + fmt.Sprint(res.AggregatedTuples) + " cached tuples"
			}
		}
		fmt.Printf("%-28s total=%.2f cells=%-4d from %s\n", name, res.Total(), res.Cells(), source)
	}

	// 3. A detailed query misses and is fetched from the backend …
	show("base-level query:", core.WholeGroupBy(lat.Base()))
	// … after which every roll-up is answered inside the cache.
	show("roll-up to (Product,Year):", core.WholeGroupBy(lat.MustID(2, 1, 0)))
	show("roll-up to (Year):", core.WholeGroupBy(lat.MustID(0, 1, 0)))
	show("grand total:", core.WholeGroupBy(lat.Top()))

	st := engine.Stats()
	fmt.Printf("\n%d queries, %d complete hits, %d backend round trips\n",
		st.Queries, st.CompleteHits, st.BackendQueries)
}
