package bench

import (
	"fmt"
	"time"

	"aggcache/internal/chunk"
	"aggcache/internal/lattice"
)

// kernelJSONFile is the machine-readable artifact Kernel writes next to its
// report, so the aggregation kernel's perf trajectory can be compared across
// commits without parsing report text.
const kernelJSONFile = "BENCH_4.json"

// kernelMetrics is the BENCH_4.json schema. Durations are nanoseconds per
// unit of work so numbers stay comparable across scales and iteration counts.
type kernelMetrics struct {
	artifact
	RollUp struct {
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

// Kernel measures the aggregation kernel in isolation: the roll-up (one hop
// and flattened multi-hop) and slice hot paths over every base chunk. The
// end-to-end view of the same kernel is the yardstick's rollup_hit workload.
// It writes kernelJSONFile to the working directory.
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

	m := kernelMetrics{artifact: newArtifact(e, "kernel")}
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

	r := &Report{ID: "kernel", Title: "Aggregation kernel: roll-up and slice hot paths",
		Header: []string{"metric", "value"}}
	r.AddRow("roll-up pass (all base chunks -> top)", fmt.Sprintf("%.3f ms", float64(rollPer)/float64(time.Millisecond)))
	r.AddRow("roll-up throughput", fmt.Sprintf("%.1f Mcells/s", m.RollUp.CellsPerSec/1e6))
	r.AddRow(fmt.Sprintf("flattened %d-hop roll-up (all base chunks -> %s)", hops, lat.LevelTupleString(mid)),
		fmt.Sprintf("%.3f ms, %.1f ns/cell", float64(flatPer)/float64(time.Millisecond), m.Flattened.NsPerCell))
	r.AddRow("slice per chunk (half region)", fmt.Sprintf("%d ns", halfPer.Nanoseconds()))
	r.AddRow("slice per chunk (full region)", fmt.Sprintf("%d ns", fullPer.Nanoseconds()))
	r.Addf("%d base chunks, %d cells", len(chunks), cells)
	if err := writeArtifact(r, kernelJSONFile, &m); err != nil {
		return nil, err
	}
	return r, nil
}
