package core

import (
	"context"
	"fmt"

	"aggcache/internal/cache"
	"aggcache/internal/chunk"
	"aggcache/internal/lattice"
	"aggcache/internal/sizer"
)

// ChoosePreloadGroupBy implements the two-level policy's preloading rule
// (§6.3): among the group-bys whose estimated materialized size fits in
// capacity bytes, pick the one with the most lattice descendants Π(l_i+1) —
// the group-by able to answer queries on the largest set of levels. Ties go
// to the larger (more detailed) group-by. ok is false when nothing fits.
func ChoosePreloadGroupBy(g *chunk.Grid, sizes sizer.Sizer, capacity int64) (lattice.ID, bool) {
	lat := g.Lattice()
	best := lattice.ID(-1)
	bestDesc := -1
	var bestCells int64
	for id := lattice.ID(0); int(id) < lat.NumNodes(); id++ {
		cells := sizes.GroupByCells(id)
		bytes := estimateBytes(g, id, cells)
		if bytes > capacity {
			continue
		}
		desc := lat.Descendants(id)
		if desc > bestDesc || (desc == bestDesc && cells > bestCells) {
			best, bestDesc, bestCells = id, desc, cells
		}
	}
	return best, bestDesc >= 0
}

// estimateBytes converts a cell count into the cache footprint of a whole
// group-by.
func estimateBytes(g *chunk.Grid, gb lattice.ID, cells int64) int64 {
	return cells*chunk.CellBytes + int64(g.NumChunks(gb))*chunk.OverheadBytes
}

// Preload fills the cache with the chosen group-by's chunks fetched from the
// backend, marked as backend-class chunks; ctx bounds the backend fetch. It
// returns the group-by loaded. With no group-by fitting the cache it returns
// ok=false without error.
func (e *Engine) Preload(ctx context.Context) (lattice.ID, bool, error) {
	gb, ok := ChoosePreloadGroupBy(e.grid, e.sizes, e.cache.Capacity())
	if !ok {
		return 0, false, nil
	}
	nums := make([]int, e.grid.NumChunks(gb))
	for i := range nums {
		nums[i] = i
	}
	chunks, bstats, err := e.back.ComputeChunks(ctx, gb, nums)
	if err == nil && len(chunks) != len(nums) {
		// The same check fetchMissing makes: a long reply would index past
		// nums, a short one would preload a prefix and report success.
		err = fmt.Errorf("backend returned %d chunks, want %d", len(chunks), len(nums))
	}
	if err != nil {
		return 0, false, fmt.Errorf("core: preload: %w", err)
	}
	benefit := (float64(bstats.TuplesScanned)*backendPenalty + connectCost) / float64(len(nums))
	for i, c := range chunks {
		e.cache.Insert(cache.Key{GB: gb, Num: int32(nums[i])}, c, cache.AsBackend(benefit))
	}
	e.met.BackendRequests.Inc()
	e.met.BackendTuples.Add(bstats.TuplesScanned)
	return gb, true, nil
}
