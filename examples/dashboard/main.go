// Dashboard: an analyst session in the mdq query language — the drill-down /
// roll-up browsing pattern the paper's workload models (§7.2). The session
// preloads the cache with the two-level policy's group-by choice, then walks
// a typical exploration path; roll-ups and repeats are answered inside the
// cache.
package main

import (
	"context"
	"fmt"
	"log"

	"aggcache/internal/apb"
	"aggcache/internal/backend"
	"aggcache/internal/core"
	"aggcache/internal/mdq"
)

func main() {
	cfg := apb.New(apb.ScaleTiny)
	grid, table, err := cfg.Build(7)
	if err != nil {
		log.Fatal(err)
	}
	be, err := backend.NewEngine(grid, table, backend.DefaultLatency)
	if err != nil {
		log.Fatal(err)
	}
	stack, err := core.Build(core.Config{
		Grid: grid, Backend: be, Rows: int64(table.Len()),
		Strategy: "VCMC", HotBytes: 64 << 10,
	})
	if err != nil {
		log.Fatal(err)
	}
	engine := stack.Engine

	// Two-level policy step 3: preload the group-by with the most lattice
	// descendants that fits the cache.
	if gb, ok, err := engine.Preload(context.Background()); err != nil {
		log.Fatal(err)
	} else if ok {
		fmt.Printf("preloaded group-by %s (%d chunks)\n\n",
			grid.Lattice().LevelTupleString(gb), grid.NumChunks(gb))
	}

	session := []string{
		// Start broad: sales per year.
		"SUM(UnitSales) BY Time:Year",
		// Drill into year 0 by month.
		"SUM(UnitSales) BY Time:Month WHERE Time:Month IN 0..3",
		// Add the product dimension.
		"SUM(UnitSales) BY Product:Group, Time:Month WHERE Time:Month IN 0..3",
		// Pivot to channels for the same months.
		"SUM(UnitSales) BY Channel:Base, Time:Month WHERE Time:Month IN 0..3",
		// Roll back up: product groups over all time.
		"SUM(UnitSales) BY Product:Group",
		// Grand total.
		"SUM(UnitSales) BY Product:Group WHERE Product:Group IN 0..0",
	}
	for _, src := range session {
		q, agg, err := mdq.Compile(src, grid)
		if err != nil {
			log.Fatal(err)
		}
		res, err := engine.Execute(context.Background(), q)
		if err != nil {
			log.Fatal(err)
		}
		source := "backend"
		if res.CompleteHit {
			if res.AggregatedTuples > 0 {
				source = "cache (aggregated)"
			} else {
				source = "cache (direct)"
			}
		}
		fmt.Printf("mdq> %s\n", src)
		fmt.Printf("     [%s]\n", source)
		fmt.Print(indent(mdq.FormatResult(grid, res, agg, 6)))
		fmt.Println()
	}

	st := engine.Stats()
	fmt.Printf("session: %d queries, %d answered entirely from the cache\n",
		st.Queries, st.CompleteHits)
}

func indent(s string) string {
	out := ""
	for _, line := range splitLines(s) {
		out += "     " + line + "\n"
	}
	return out
}

func splitLines(s string) []string {
	var lines []string
	cur := ""
	for _, r := range s {
		if r == '\n' {
			lines = append(lines, cur)
			cur = ""
			continue
		}
		cur += string(r)
	}
	if cur != "" {
		lines = append(lines, cur)
	}
	return lines
}
