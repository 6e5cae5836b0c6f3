package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"aggcache/internal/chunk"
	"aggcache/internal/lattice"
)

// kernelJSONFile is the machine-readable artifact Kernel writes next to its
// report. CI uploads it so the aggregation kernel's perf trajectory can be
// compared across commits without parsing report text.
const kernelJSONFile = "BENCH_4.json"

// kernelMetrics is the BENCH_4.json schema. Durations are nanoseconds per
// unit of work so numbers stay comparable across scales and iteration counts.
type kernelMetrics struct {
	Bench     string `json:"bench"`
	Scale     string `json:"scale"`
	GoVersion string `json:"go_version"`
	Procs     int    `json:"gomaxprocs"`
	RollUp    struct {
		Chunks      int     `json:"chunks"`
		Cells       int64   `json:"cells"`
		NsPerPass   float64 `json:"ns_per_pass"`
		NsPerCell   float64 `json:"ns_per_cell"`
		CellsPerSec float64 `json:"cells_per_sec"`
	} `json:"rollup"`
	// Flattened is a multi-hop roll-up done in one pass: every base chunk
	// folded straight into its chunk of a group-by Hops lattice steps down,
	// with no intermediate level materialized.
	Flattened struct {
		Hops      int     `json:"hops"`
		DstChunks int     `json:"dst_chunks"`
		NsPerPass float64 `json:"ns_per_pass"`
		NsPerCell float64 `json:"ns_per_cell"`
	} `json:"flattened"`
	Slice struct {
		NsPerChunkHalf float64 `json:"ns_per_chunk_half"`
		NsPerChunkFull float64 `json:"ns_per_chunk_full"`
	} `json:"slice"`
	Stream struct {
		Queries   int     `json:"queries"`
		HitPct    float64 `json:"hit_pct"`
		AvgMs     float64 `json:"avg_ms"`
		AggMsHits float64 `json:"agg_ms_hits"`
		WallMs    float64 `json:"wall_ms"`
	} `json:"stream"`
}

// kernelBest runs f in timed passes of reps iterations and returns the best
// per-iteration duration — the minimum is the standard noise-robust estimator
// since scheduler jitter and GC only ever add time.
func kernelBest(passes, reps int, f func() error) (time.Duration, error) {
	var best time.Duration
	for p := 0; p < passes; p++ {
		start := time.Now()
		for i := 0; i < reps; i++ {
			if err := f(); err != nil {
				return 0, err
			}
		}
		if el := time.Since(start); best == 0 || el < best {
			best = el
		}
	}
	return best / time.Duration(reps), nil
}

// Kernel measures the aggregation kernel both in isolation (the roll-up and
// slice hot paths over every base chunk) and end to end (an aggregation-heavy
// preloaded VCMC stream where nearly every answer is computed by rolling up
// cached chunks). It writes kernelJSONFile to the working directory.
func Kernel(e *Env) (*Report, error) {
	lat := e.Grid.Lattice()
	base := lat.Base()
	top := lat.Top()
	chunks, _, err := e.Backend.ComputeGroupBy(base)
	if err != nil {
		return nil, err
	}
	var cells int64
	for _, c := range chunks {
		cells += int64(c.Cells())
	}
	if cells == 0 {
		return nil, fmt.Errorf("bench: kernel: empty base group-by")
	}

	// rollInto folds every base chunk straight into its chunk of dst through
	// the pooled accumulator cycle — exactly what the engine runs per
	// materialized plan node, however many lattice levels lie between.
	var scratch chunk.Chunk
	rollInto := func(dst lattice.ID) func() error {
		maps := make([]*chunk.CellMap, e.Grid.NumChunks(dst))
		return func() error {
			for _, c := range chunks {
				num := e.Grid.DescendantChunk(base, int(c.Num), dst)
				if maps[num] == nil {
					maps[num] = e.Grid.GetCellMap(dst, num)
				}
				if _, err := e.Grid.RollUpInto(maps[num], dst, num, c); err != nil {
					return err
				}
			}
			for num, cm := range maps {
				if cm != nil {
					cm.BuildInto(dst, num, &scratch)
					chunk.PutCellMap(cm)
					maps[num] = nil
				}
			}
			return nil
		}
	}
	const passes = 5
	reps := int(200_000/cells) + 1
	rollPer, err := kernelBest(passes, reps, rollInto(top))
	if err != nil {
		return nil, err
	}
	// The multi-hop row: three lattice steps below the base group-by, one
	// level up on each of the first dimensions that have one to give.
	mid, hops := base, 0
	for hops < 3 && len(lat.Children(mid)) > 0 {
		mid = lat.Children(mid)[hops%len(lat.Children(mid))]
		hops++
	}
	flatPer, err := kernelBest(passes, reps, rollInto(mid))
	if err != nil {
		return nil, err
	}

	// Slice: trim every base chunk to the lower half of each dimension
	// (copy path) and to its full member range (zero-copy fast path).
	baseLv := lat.Level(base)
	nd := lat.NumDims()
	half := make([][]chunk.Range, len(chunks))
	full := make([][]chunk.Range, len(chunks))
	coords := make([]int32, nd)
	for num := range chunks {
		e.Grid.Coords(base, num, coords)
		h := make([]chunk.Range, nd)
		f := make([]chunk.Range, nd)
		for d := 0; d < nd; d++ {
			mr := e.Grid.MemberRange(d, baseLv[d], coords[d])
			f[d] = mr
			h[d] = chunk.Range{Lo: mr.Lo, Hi: mr.Lo + int32(mr.Len()+1)/2}
		}
		half[num], full[num] = h, f
	}
	sliceBench := func(ranges [][]chunk.Range) (time.Duration, error) {
		per, err := kernelBest(passes, reps, func() error {
			for num, c := range chunks {
				e.Grid.Slice(c, ranges[num])
			}
			return nil
		})
		return per / time.Duration(len(chunks)), err
	}
	halfPer, err := sliceBench(half)
	if err != nil {
		return nil, err
	}
	fullPer, err := sliceBench(full)
	if err != nil {
		return nil, err
	}

	// End to end: a preloaded VCMC stream with the cache sized to hold the
	// base table, so queries are answered by aggregating cached chunks — the
	// workload the kernel optimizations target.
	sizes := e.CacheSizes()
	bytes := sizes[len(sizes)-1]
	res, err := e.RunStream(SystemSpec{Strategy: StratVCMC, Policy: PolicyTwoLevel, Bytes: bytes, Preload: true})
	if err != nil {
		return nil, err
	}

	var m kernelMetrics
	m.Bench = "kernel"
	m.Scale = e.Cfg.Scale.String()
	m.GoVersion = runtime.Version()
	m.Procs = runtime.GOMAXPROCS(0)
	m.RollUp.Chunks = len(chunks)
	m.RollUp.Cells = cells
	m.RollUp.NsPerPass = float64(rollPer)
	m.RollUp.NsPerCell = float64(rollPer) / float64(cells)
	m.RollUp.CellsPerSec = float64(cells) / rollPer.Seconds()
	m.Flattened.Hops = hops
	m.Flattened.DstChunks = e.Grid.NumChunks(mid)
	m.Flattened.NsPerPass = float64(flatPer)
	m.Flattened.NsPerCell = float64(flatPer) / float64(cells)
	m.Slice.NsPerChunkHalf = float64(halfPer)
	m.Slice.NsPerChunkFull = float64(fullPer)
	m.Stream.Queries = res.Queries
	m.Stream.HitPct = res.HitRatio()
	m.Stream.AvgMs = float64(res.AvgAll()) / float64(time.Millisecond)
	m.Stream.AggMsHits = float64(res.AvgHits().Aggregate) / float64(time.Millisecond)
	m.Stream.WallMs = float64(res.Elapsed) / float64(time.Millisecond)
	buf, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(kernelJSONFile, append(buf, '\n'), 0o644); err != nil {
		return nil, fmt.Errorf("bench: kernel: %w", err)
	}

	r := &Report{ID: "kernel", Title: "Aggregation kernel: roll-up and slice hot paths, plus an aggregation-heavy stream",
		Header: []string{"metric", "value"}}
	r.AddRow("roll-up pass (all base chunks -> top)", fmt.Sprintf("%.3f ms", float64(rollPer)/float64(time.Millisecond)))
	r.AddRow("roll-up throughput", fmt.Sprintf("%.1f Mcells/s", m.RollUp.CellsPerSec/1e6))
	r.AddRow(fmt.Sprintf("flattened %d-hop roll-up (all base chunks -> %s)", hops, lat.LevelTupleString(mid)),
		fmt.Sprintf("%.3f ms, %.1f ns/cell", float64(flatPer)/float64(time.Millisecond), m.Flattened.NsPerCell))
	r.AddRow("slice per chunk (half region)", fmt.Sprintf("%d ns", halfPer.Nanoseconds()))
	r.AddRow("slice per chunk (full region)", fmt.Sprintf("%d ns", fullPer.Nanoseconds()))
	r.AddRow("stream hit ratio", fmt.Sprintf("%.0f%%", m.Stream.HitPct))
	r.AddRow("stream avg / wall", fmt.Sprintf("%.3f ms / %.1f ms", m.Stream.AvgMs, m.Stream.WallMs))
	r.Addf("%d base chunks, %d cells; VCMC/two-level preloaded, cache %s, %d queries", len(chunks), cells, SizeLabel(bytes), res.Queries)
	r.Addf("machine-readable copy written to %s", kernelJSONFile)
	return r, nil
}
