package core

import (
	"context"
	"fmt"

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
		bytes := chunk.Footprint(cells, int64(g.NumChunks(id)))
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

// Preload fills the cache with the chosen group-by's chunks fetched from the
// backend, marked as backend-class chunks; ctx bounds the backend fetch. The
// fetch is a query miss's backend leg (fetchBackend) in one request, with
// no flights and no peer fill. It returns the group-by loaded. With no
// group-by fitting the cache it returns ok=false without error.
func (e *Engine) Preload(ctx context.Context) (lattice.ID, bool, error) {
	gb, ok := ChoosePreloadGroupBy(e.grid, e.sizes, e.cache.Capacity())
	if !ok {
		return 0, false, nil
	}
	nums := make([]int, e.grid.NumChunks(gb))
	for i := range nums {
		nums[i] = i
	}
	if _, _, _, err := e.fetchBackend(ctx, gb, nums); err != nil {
		return 0, false, fmt.Errorf("core: preload: %w", err)
	}
	return gb, true, nil
}
