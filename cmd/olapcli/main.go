// Command olapcli is an interactive shell over an aggregate aware cache:
// type mdq queries (SUM(UnitSales) BY Product:Group, Time:Month WHERE ...)
// and watch whether each answer came from the cache, in-cache aggregation,
// or the backend.
//
// Usage:
//
//	olapcli -scale tiny
//	olapcli -scale small -strategy VCMC -cache-kb 512 -backend 127.0.0.1:7070
//
// Shell commands: \schema, \stats, \preload, \help, \quit.
package main

import (
	"bufio"
	"cmp"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"aggcache/internal/apb"
	"aggcache/internal/backend"
	"aggcache/internal/cache"
	"aggcache/internal/chunk"
	"aggcache/internal/core"
	"aggcache/internal/data"
	"aggcache/internal/mdq"
	"aggcache/internal/mtier"
	"aggcache/internal/obs"
)

func main() {
	var (
		scaleFlag   = flag.String("scale", "tiny", "dataset scale: tiny|small|medium|full")
		seedFlag    = flag.Int64("seed", 1, "generator seed")
		stratFlag   = flag.String("strategy", "VCMC", "lookup strategy: VCM|VCMC|NoAgg")
		cacheKBFlag = flag.Int64("cache-kb", 256, "cache size in KB; with -cold-kb, hot + cold is one budget and this is the hot tier's starting share")
		shardsFlag  = flag.Int("cache-shards", 1, "cache shard count (power of two, max 64); 1 = one stripe (one lock), 0 = auto (GOMAXPROCS)")
		backendFlag = flag.String("backend", "", "remote backend address (empty = in-process)")
		rowsFlag    = flag.Int("rows", 20, "max result rows to print")
		peersFlag   = flag.String("peers", "", "comma-separated aggcached cluster addresses; local misses are peer-filled from the key's ring owner before the backend")
		recycleFlag = flag.Bool("recycle", true, "benefit-driven recycling of intermediate aggregates (admits profitable interior roll-ups; uses the probation+promote replacement rings)")
		coldKBFlag  = flag.Int64("cold-kb", 0, "compressed in-RAM cold tier's starting share in KB: hot-tier victims demote instead of dropping, and answer from the cold tier until cold pressure evicts them; hot + cold is one budget and this is the starting split, which the store moves online (0 = disabled)")
	)
	flag.Parse()

	scale, err := apb.ParseScale(*scaleFlag)
	if err != nil {
		fatal(err)
	}
	cfg := apb.New(scale)

	var (
		grid *chunk.Grid
		be   backend.Backend
	)
	rows := cfg.Rows // with a remote backend, assume the server runs the same preset
	if *backendFlag != "" {
		if grid, err = chunk.NewGrid(cfg.Schema, cfg.ChunkCounts); err != nil {
			fatal(err)
		}
		remote, err := backend.DialPolicy(*backendFlag, backend.DefaultRetryPolicy, obs.RemoteMetrics{})
		if err != nil {
			fatal(err)
		}
		be = remote
		fmt.Printf("olapcli: using remote backend %s\n", *backendFlag)
	} else {
		var tab *data.Table
		if grid, tab, err = cfg.Build(*seedFlag); err != nil {
			fatal(err)
		}
		engine, err := backend.NewEngine(grid, tab, backend.DefaultLatency)
		if err != nil {
			fatal(err)
		}
		be = engine
		rows = tab.Len()
	}
	defer be.Close()

	// Cluster tier: with -peers, local misses consult the key's ring owner
	// in the aggcached group before the backend; the shell only reads, and
	// its own backend fills stay local. Self is empty — the shell is a pure
	// client of the ring, every owner is remote — and the same deterministic
	// ring construction the servers use routes each key to its owner.
	var peers *cache.PeeredConfig
	if *peersFlag != "" {
		peers = &cache.PeeredConfig{Dial: func(addr string) cache.Peer { return mtier.NewPeerClient(addr, 0) }}
		for _, p := range strings.Split(*peersFlag, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peers.Members = append(peers.Members, p)
			}
		}
	}
	stack, err := core.Build(core.Config{
		Grid: grid, Backend: be, Rows: int64(rows), Strategy: *stratFlag,
		HotBytes: *cacheKBFlag << 10, ColdBytes: *coldKBFlag << 10, Peers: peers,
		Shards: cmp.Or(*shardsFlag, -1), // -cache-shards 0 (auto) is a negative count to Build
		Options: []core.Option{
			core.WithRecycling(*recycleFlag),
		},
	})
	if err != nil {
		fatal(err)
	}
	eng := stack.Engine
	if stack.Peered != nil {
		defer stack.Peered.Close()
		fmt.Printf("olapcli: cluster %s\n", stack.Peered.Ring())
	}

	fmt.Printf("olapcli: %s scale, %s strategy, %dKB cache, %dKB compressed cold tier. Type \\help for help.\n",
		scale, eng.Strategy().Name(), *cacheKBFlag, max(*coldKBFlag, 0))
	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("mdq> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
		case line == `\quit` || line == `\q`:
			return
		case line == `\help`:
			printHelp(grid)
		case line == `\schema`:
			printSchema(grid)
		case line == `\stats`:
			printStats(stack)
		case strings.HasPrefix(line, `\explain `):
			explain(grid, eng, strings.TrimPrefix(line, `\explain `))
		case line == `\preload`:
			gb, ok, err := eng.Preload(context.Background())
			switch {
			case err != nil:
				fmt.Println("error:", err)
			case !ok:
				fmt.Println("no group-by fits the cache")
			default:
				fmt.Printf("preloaded %s (%d chunks, cache %dKB used)\n",
					grid.Lattice().LevelTupleString(gb), grid.NumChunks(gb), eng.Cache().Used()>>10)
			}
		default:
			runQuery(grid, eng, line, *rowsFlag)
		}
		fmt.Print("mdq> ")
	}
}

func runQuery(grid *chunk.Grid, eng *core.Engine, line string, maxRows int) {
	q, agg, err := mdq.Compile(line, grid)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	res, err := eng.Execute(context.Background(), q)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Print(mdq.FormatResult(grid, res, agg, maxRows))
	source := "backend"
	if res.CompleteHit {
		source = "cache"
		if res.AggregatedTuples > 0 {
			source = "cache (aggregated)"
		}
	} else if res.PeerChunks == res.MissChunks {
		source = "peers"
	} else if res.PeerChunks > 0 {
		source = "backend+peers"
	}
	fmt.Printf("  [%s; %d hit / %d miss chunks; lookup %s agg %s update %s backend %s ms]\n",
		source, res.HitChunks, res.MissChunks,
		ms(res.Breakdown.Lookup), ms(res.Breakdown.Aggregate),
		ms(res.Breakdown.Update), ms(res.Breakdown.Backend))
}

func ms(d interface{ Nanoseconds() int64 }) string {
	return fmt.Sprintf("%.2f", float64(d.Nanoseconds())/1e6)
}

func explain(grid *chunk.Grid, eng *core.Engine, src string) {
	q, _, err := mdq.Compile(src, grid)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	out, err := eng.Explain(q)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Print(out)
}

func printHelp(grid *chunk.Grid) {
	fmt.Println(`queries:  SUM|COUNT|AVG(UnitSales) BY Dim:Level[, Dim:Level...] [WHERE Dim:Level IN lo..hi [AND ...]]
commands: \schema         show dimensions and levels
          \preload        preload the best-fitting group-by (two-level policy)
          \explain <query> show the answer plan without executing
          \stats          engine counters
          \quit           exit`)
	fmt.Print("example:  ")
	sch := grid.Schema()
	d0 := sch.Dim(0)
	fmt.Printf("SUM(%s) BY %s:%s\n", sch.Measure(), d0.Name(), d0.LevelName(1))
}

func printSchema(grid *chunk.Grid) {
	sch := grid.Schema()
	for d := 0; d < sch.NumDims(); d++ {
		dim := sch.Dim(d)
		var lv []string
		for l := 0; l <= dim.Hierarchy(); l++ {
			lv = append(lv, fmt.Sprintf("%s(%d)", dim.LevelName(l), dim.Card(l)))
		}
		fmt.Printf("  %-10s %s\n", dim.Name(), strings.Join(lv, " > "))
	}
	fmt.Printf("  measure: %s; %d group-bys in the lattice\n", sch.Measure(), grid.Lattice().NumNodes())
}

func printStats(stack *core.Stack) {
	eng := stack.Engine
	st := eng.Stats()
	fmt.Printf("  queries=%d complete-hits=%d backend-queries=%d backend-tuples=%d agg-tuples=%d\n",
		st.Queries, st.CompleteHits, st.BackendQueries, st.BackendTuples, st.AggTuples)
	fmt.Printf("  recycled=%d recycle-rejected=%d\n", st.Recycled, st.RecycleRejected)
	if stack.Peered != nil {
		ps := stack.Peered.PeerStats()
		fmt.Printf("  cluster: peer-chunks=%d fills=%d fill-misses=%d fill-errors=%d skips=%d\n",
			st.PeerChunks, ps.Fills, ps.FillMisses, ps.FillErrors, ps.FillSkips)
	}
	fmt.Printf("  cumulative: %s\n", st.Breakdown)
	fmt.Printf("  cache: %d chunks, %dKB/%dKB\n",
		eng.Cache().Len(), eng.Cache().Used()>>10, eng.Cache().Capacity()>>10)
	if ts, ok := eng.TierStats(); ok {
		ratio := 1.0
		if ts.ColdUsed > 0 {
			ratio = float64(ts.ColdRawBytes) / float64(ts.ColdUsed)
		}
		fmt.Printf("  cold tier: %d chunks, %dKB/%dKB (%.1fx compressed), hits=%d demotes=%d denied=%d\n",
			ts.ColdChunks, ts.ColdUsed>>10, ts.ColdCapacity>>10, ratio,
			ts.ColdHits, ts.Demotes, ts.DemoteDenied)
		fmt.Printf("  split: %dKB hot + %dKB cold, ghost hits hot=%d cold=%d\n",
			ts.HotCapacity>>10, ts.ColdCapacity>>10, ts.HotGhostHits, ts.ColdGhostHits)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "olapcli:", err)
	os.Exit(1)
}
