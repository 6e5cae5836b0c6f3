package bench

import (
	"fmt"

	"aggcache/internal/backend"
	"aggcache/internal/chunk"
	"aggcache/internal/core"
	"aggcache/internal/sizer"
	"aggcache/internal/workload"
)

// MixSweep varies the roll-up share of the query stream and compares the
// conventional cache against the active cache — quantifying the paper's
// motivating claim that "we need active caches with aggregation to improve
// performance of roll-up queries" (§7.2). Drill-down and random shares are
// held at the paper's values; proximity absorbs the difference.
func MixSweep(e *Env) (*Report, error) {
	sizes := e.CacheSizes()
	bytes := sizes[len(sizes)/2]
	r := &Report{ID: "mix-sweep", Title: fmt.Sprintf("Hit ratio vs roll-up share of the stream (cache %s)", SizeLabel(bytes)),
		Header: []string{"roll-up share", "NoAgg %hits", "VCMC %hits", "NoAgg avg ms", "VCMC avg ms"}}
	for _, roll := range []float64{0, 0.15, 0.30, 0.45, 0.60} {
		mix := workload.Mix{DrillDown: 0.3, RollUp: roll, Proximity: 0.6 - roll, Random: 0.1}
		noagg, err := e.runStreamMix(core.Config{Strategy: "NoAgg", Policy: "benefit", HotBytes: bytes}, false, mix)
		if err != nil {
			return nil, err
		}
		vcmc, err := e.runStreamMix(core.Config{Strategy: "VCMC", Policy: "two-level", HotBytes: bytes}, true, mix)
		if err != nil {
			return nil, err
		}
		r.AddRow(fmt.Sprintf("%.0f%%", roll*100),
			fmt.Sprintf("%.0f", noagg.HitRatio()), fmt.Sprintf("%.0f", vcmc.HitRatio()),
			msString(noagg.AvgAll()), msString(vcmc.AvgAll()))
	}
	r.Addf("the active cache's advantage grows with the roll-up share; a conventional cache cannot exploit roll-up locality")
	return r, nil
}

// scaleCounts derives coarser or finer chunk counts from the preset:
// factor 0.5 halves every per-level chunk count, factor 2 doubles it, both
// clamped to [1, cardinality] and kept non-decreasing with level.
func (e *Env) scaleCounts(factor float64) [][]int {
	sch := e.Grid.Schema()
	out := make([][]int, sch.NumDims())
	for d := range out {
		dim := sch.Dim(d)
		h := dim.Hierarchy()
		counts := make([]int, h+1)
		counts[0] = 1
		prev := 1
		for l := 1; l <= h; l++ {
			c := int(float64(e.Grid.ChunkCount(d, l)) * factor)
			if c < prev {
				c = prev
			}
			if c > dim.Card(l) {
				c = dim.Card(l)
			}
			counts[l] = c
			prev = c
		}
		out[d] = counts
	}
	return out
}

// ChunkSizeSweep rebuilds the grid at coarser and finer chunk granularities
// and reruns the headline stream — the chunk-size sensitivity [DRSN98]
// discusses and the paper inherits. Infeasible granularities (closure
// alignment fails) are reported as such.
func ChunkSizeSweep(e *Env) (*Report, error) {
	r := &Report{ID: "chunk-sweep", Title: "Sensitivity to chunk granularity (VCMC, two-level, mid cache size)",
		Header: []string{"granularity", "chunks (all levels)", "%hits", "avg ms", "VCM bytes"}}
	for _, v := range []struct {
		name   string
		factor float64
	}{
		{"coarse (×0.5)", 0.5},
		{"preset (×1)", 1},
		{"fine (×2)", 2},
	} {
		counts := e.scaleCounts(v.factor)
		grid, err := chunk.NewGrid(e.Grid.Schema(), counts)
		if err != nil {
			r.AddRow(v.name, "infeasible: "+err.Error(), "", "", "")
			continue
		}
		be, err := backend.NewEngine(grid, e.Table, e.Cfg.Latency)
		if err != nil {
			return nil, err
		}
		sub := &Env{
			Cfg:     e.Cfg,
			APB:     e.APB,
			Grid:    grid,
			Table:   e.Table,
			Backend: be,
			Sizer:   sizer.NewEstimate(grid, int64(e.Table.Len())),
		}
		sizes := sub.CacheSizes()
		bytes := sizes[len(sizes)/2]
		res, err := sub.RunStream(core.Config{Strategy: "VCMC", Policy: "two-level", HotBytes: bytes}, true)
		if err != nil {
			return nil, err
		}
		r.AddRow(v.name,
			fmt.Sprintf("%d", grid.TotalChunks()),
			fmt.Sprintf("%.0f", res.HitRatio()),
			msString(res.AvgAll()),
			fmt.Sprintf("%d", grid.TotalChunks()))
	}
	r.Addf("finer chunks raise both reuse precision and summary-state overhead; coarser chunks fetch more than queries need")
	return r, nil
}
