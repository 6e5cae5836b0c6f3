// Package sizer estimates (or computes exactly) the number of materialized
// cells of every chunk at every group-by. Sizes drive the linear aggregation
// cost model of §5 of the paper: the cost of computing a chunk is the number
// of tuples scanned, and the tuples scanned when aggregating a chunk is that
// chunk's cell count.
package sizer

import (
	"math"

	"aggcache/internal/chunk"
	"aggcache/internal/lattice"
)

// Sizer reports the expected number of materialized cells of a chunk. The
// value is the size of the chunk's result when aggregated — the tuples that
// a consumer must scan.
type Sizer interface {
	// ChunkCells returns the (estimated or exact) cell count of chunk num of
	// group-by gb. It always returns at least 1 for a non-empty dataset so
	// path costs stay strictly positive.
	ChunkCells(gb lattice.ID, num int) int64
	// GroupByCells returns the cell count of the whole group-by.
	GroupByCells(gb lattice.ID) int64
}

// Estimate is a probabilistic Sizer. It assumes base tuples are spread
// uniformly over the base cross product and applies the standard
// distinct-count ("birthday") estimate: a chunk with dense capacity C
// receiving n tuples materializes C·(1−(1−1/C)^n) cells. Every chunk's size
// is computed by NewEstimate, so an Estimate is immutable and one may be
// shared lock-free by every engine of an in-process cluster.
type Estimate struct {
	cells [][]int64 // cells[gb][num]
	tot   []int64   // tot[gb] = Σ cells[gb]
}

// NewEstimate returns an Estimate for rows base tuples over grid.
func NewEstimate(grid *chunk.Grid, rows int64) *Estimate {
	n := grid.Lattice().NumNodes()
	e := &Estimate{cells: make([][]int64, n), tot: make([]int64, n)}
	for gb := lattice.ID(0); int(gb) < n; gb++ {
		sizes := make([]int64, grid.NumChunks(gb))
		for num := range sizes {
			sizes[num] = estimateChunk(grid, rows, gb, num)
			e.tot[gb] += sizes[num]
		}
		e.cells[gb] = sizes
	}
	return e
}

// ChunkCells implements Sizer.
func (e *Estimate) ChunkCells(gb lattice.ID, num int) int64 { return e.cells[gb][num] }

// GroupByCells implements Sizer.
func (e *Estimate) GroupByCells(gb lattice.ID) int64 { return e.tot[gb] }

func estimateChunk(g *chunk.Grid, rows int64, gb lattice.ID, num int) int64 {
	sch := g.Schema()
	lv := g.Lattice().Level(gb)
	var cbuf [16]int32
	coords := g.Coords(gb, num, cbuf[:0])
	// Dense capacity of the chunk and the fraction of base tuples that land
	// in its region.
	capacity := 1.0
	frac := 1.0
	for d, c := range coords {
		r := g.MemberRange(d, lv[d], c)
		capacity *= float64(r.Hi - r.Lo)
		dim := sch.Dim(d)
		blo, bhi := dim.DescendantRange(lv[d], dim.Hierarchy(), r.Lo)
		_, bhi = dim.DescendantRange(lv[d], dim.Hierarchy(), r.Hi-1)
		frac *= float64(bhi-blo) / float64(dim.Card(dim.Hierarchy()))
	}
	n := float64(rows) * frac
	cells := distinct(capacity, n)
	if cells < 1 {
		cells = 1
	}
	return int64(math.Round(cells))
}

// distinct returns the expected number of distinct cells when n tuples are
// thrown uniformly into c slots.
func distinct(c, n float64) float64 {
	if c <= 1 {
		return 1
	}
	if n <= 0 {
		return 0
	}
	// c * (1 - (1-1/c)^n), computed stably.
	return c * -math.Expm1(n*math.Log1p(-1/c))
}

// Exact is a Sizer holding exact per-chunk cell counts, computed from the
// actual dataset by package backend or by Compute. It is deterministic and
// intended for small/medium scales and for oracle checks in tests.
type Exact struct {
	sizes map[lattice.ID][]int64
	tot   map[lattice.ID]int64
}

// NewExact wraps precomputed per-chunk cell counts.
func NewExact(sizes map[lattice.ID][]int64) *Exact {
	t := make(map[lattice.ID]int64, len(sizes))
	for gb, s := range sizes {
		var sum int64
		for _, v := range s {
			sum += v
		}
		t[gb] = sum
	}
	return &Exact{sizes: sizes, tot: t}
}

// ChunkCells implements Sizer.
func (x *Exact) ChunkCells(gb lattice.ID, num int) int64 {
	v := x.sizes[gb][num]
	if v < 1 {
		return 1
	}
	return v
}

// GroupByCells implements Sizer.
func (x *Exact) GroupByCells(gb lattice.ID) int64 { return x.tot[gb] }
