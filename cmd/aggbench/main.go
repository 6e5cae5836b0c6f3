// Command aggbench reproduces the paper's evaluation: every table and
// figure of "Aggregate Aware Caching for Multi-Dimensional Queries"
// (Deshpande & Naughton, EDBT 2000), plus the Lemma checks and policy
// ablations listed in DESIGN.md. It exits non-zero when an experiment's
// floor gate (cluster, overload, recycle, tiered) fails.
//
// Usage:
//
//	aggbench -scale small -exp all
//	aggbench -scale medium -exp fig9 -queries 100
//	aggbench -list
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"aggcache/internal/apb"
	"aggcache/internal/bench"
)

func main() {
	var (
		scaleFlag   = flag.String("scale", "small", "dataset scale: tiny|small|medium|full")
		expFlag     = flag.String("exp", "all", "experiment id or 'all'")
		queriesFlag = flag.Int("queries", 100, "query stream length")
		seedFlag    = flag.Int64("seed", 1, "random seed for data and streams")
		budgetFlag  = flag.Int64("budget", 4_000_000, "node budget per exhaustive (ESM/ESMC) lookup; 0 = unlimited")
		fracFlag    = flag.String("fractions", "0.45,0.68,0.91,1.14", "cache sizes as fractions of the base table")
		widthFlag   = flag.Int("width", 2, "max query region width in chunks per dimension")
		csvFlag     = flag.String("csv", "", "also write each report's table as CSV into this directory")
		listFlag    = flag.Bool("list", false, "list experiment ids and exit")
	)
	flag.Parse()

	if *listFlag {
		fmt.Println("experiments:", strings.Join(bench.IDs(), " "))
		return
	}

	scale, err := apb.ParseScale(*scaleFlag)
	if err != nil {
		fatal(err)
	}
	fractions, err := parseFractions(*fracFlag)
	if err != nil {
		fatal(err)
	}
	cfg := bench.DefaultConfig(scale)
	cfg.Queries = *queriesFlag
	cfg.Seed = *seedFlag
	cfg.LookupBudget = *budgetFlag
	cfg.CacheFractions = fractions
	cfg.MaxQueryWidth = *widthFlag

	fmt.Printf("aggbench: scale=%v rows≈%d queries=%d seed=%d budget=%d\n",
		scale, apb.New(scale).Rows, cfg.Queries, cfg.Seed, cfg.LookupBudget)
	start := time.Now()
	env, err := bench.NewEnv(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("dataset: %d rows, %d group-bys, %d chunks over all levels, base ≈ %s (built in %v)\n\n",
		env.Table.Len(), env.Grid.Lattice().NumNodes(), env.Grid.TotalChunks(),
		bench.SizeLabel(env.BaseBytes()), time.Since(start).Round(time.Millisecond))

	reports, err := bench.Run(env, *expFlag)
	if err != nil {
		fatal(err)
	}
	for _, r := range reports {
		fmt.Println(r.String())
		if *csvFlag != "" {
			if err := writeCSV(*csvFlag, r); err != nil {
				fatal(err)
			}
		}
	}
	fmt.Printf("done in %v\n", time.Since(start).Round(time.Millisecond))
	if failed := bench.FailedGates(reports); len(failed) > 0 {
		for _, g := range failed {
			fmt.Fprintln(os.Stderr, "aggbench:", g)
		}
		os.Exit(1)
	}
}

func writeCSV(dir string, r *bench.Report) error {
	if len(r.Header) == 0 {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, r.ID+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := r.WriteCSV(f); err != nil {
		return err
	}
	return f.Close()
}

func parseFractions(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || f <= 0 {
			return nil, fmt.Errorf("bad cache fraction %q", p)
		}
		out = append(out, f)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "aggbench:", err)
	os.Exit(1)
}
