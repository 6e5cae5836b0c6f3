package chunk

import (
	"sync"

	"aggcache/internal/lattice"
)

// The aggregation hot path runs one accumulator per materialized plan node;
// accumulators are pooled so the steady state allocates (near) nothing. A
// CellMap from GetCellMap must go back through PutCellMap and must not be
// touched afterwards. Chunks are never pooled: the executor only builds
// chunks that outlive the computation (cache inserts, query results), and
// CellMap.Build always allocates those fresh backing arrays.
var cellMapPool = sync.Pool{New: func() any { return new(CellMap) }}

// GetCellMap returns a pooled accumulator sized for chunk num of group-by gb
// — dense when the chunk's cell capacity permits, like Grid.NewCellMap, but
// reusing a previous accumulator's arrays when one is available. Release it
// with PutCellMap.
func (g *Grid) GetCellMap(gb lattice.ID, num int) *CellMap {
	cm := cellMapPool.Get().(*CellMap)
	cm.prepare(g.CellCapacity(gb, num))
	return cm
}

// PutCellMap resets cm and returns it to the pool; nil is a no-op. The
// reset-before-pool step is what upholds the pool invariant that every
// pooled accumulator's backing arrays are fully zeroed, so a reuse at a
// larger capacity cannot observe a previous query's cells.
func PutCellMap(cm *CellMap) {
	if cm == nil {
		return
	}
	cm.Reset()
	cellMapPool.Put(cm)
}
