package sizer

import (
	"math"
	"testing"

	"aggcache/internal/apb"
	"aggcache/internal/chunk"
	"aggcache/internal/data"
	"aggcache/internal/lattice"
	"aggcache/internal/schema"
)

func tinyGrid(t testing.TB) (*chunk.Grid, *data.Table) {
	t.Helper()
	cfg := apb.New(apb.ScaleTiny)
	g, tab, err := cfg.Build(11)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g, tab
}

// bruteSizes computes exact per-chunk cell counts by direct aggregation of
// the fact table for every group-by.
func bruteSizes(g *chunk.Grid, tab *data.Table) map[lattice.ID][]int64 {
	lat := g.Lattice()
	sch := g.Schema()
	nd := sch.NumDims()
	out := make(map[lattice.ID][]int64)
	for id := lattice.ID(0); int(id) < lat.NumNodes(); id++ {
		lv := lat.Level(id)
		cells := make(map[string]bool)
		cnt := make([]int64, g.NumChunks(id))
		members := make([]int32, nd)
		for i := 0; i < tab.Len(); i++ {
			row := tab.Row(i)
			for d := 0; d < nd; d++ {
				dim := sch.Dim(d)
				members[d] = dim.Ancestor(dim.Hierarchy(), lv[d], row[d])
			}
			k := string(encodeMembers(members))
			if cells[k] {
				continue
			}
			cells[k] = true
			num, _ := g.ChunkOfCell(id, members)
			cnt[num]++
		}
		out[id] = cnt
	}
	return out
}

func encodeMembers(m []int32) []byte {
	b := make([]byte, 0, len(m)*4)
	for _, v := range m {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return b
}

func TestEstimateReasonable(t *testing.T) {
	g, tab := tinyGrid(t)
	est := NewEstimate(g, int64(tab.Len()))
	exact := bruteSizes(g, tab)
	lat := g.Lattice()
	// The estimate should be within a factor of 3 of the truth at the
	// group-by granularity for this uniform-ish dataset.
	for id := lattice.ID(0); int(id) < lat.NumNodes(); id++ {
		var x float64
		for _, v := range exact[id] {
			x += float64(v)
		}
		// The reference holds one cell per row at the base (cells are
		// distinct by generation) and one at the top.
		if (id == lat.Base() && x != float64(tab.Len())) || (id == lat.Top() && x != 1) {
			t.Fatalf("gb %s: reference counts %v cells", lat.LevelTupleString(id), x)
		}
		e := float64(est.GroupByCells(id))
		if e < x/3 || e > x*3 {
			t.Fatalf("gb %s: estimate %v vs exact %v", lat.LevelTupleString(id), e, x)
		}
	}
	// Per-chunk sizes are positive and sum to the group-by size.
	for id := lattice.ID(0); int(id) < lat.NumNodes(); id++ {
		var sum int64
		for num := 0; num < g.NumChunks(id); num++ {
			v := est.ChunkCells(id, num)
			if v < 1 {
				t.Fatalf("gb %s chunk %d: estimate %d < 1", lat.LevelTupleString(id), num, v)
			}
			sum += v
		}
		if sum != est.GroupByCells(id) {
			t.Fatalf("gb %s: chunk sizes sum %d != group-by %d", lat.LevelTupleString(id), sum, est.GroupByCells(id))
		}
	}
}

func TestEstimateMonotoneInLattice(t *testing.T) {
	g, tab := tinyGrid(t)
	est := NewEstimate(g, int64(tab.Len()))
	lat := g.Lattice()
	// A group-by can never have more cells than a parent (aggregation only
	// merges); the estimator should respect that.
	for id := lattice.ID(0); int(id) < lat.NumNodes(); id++ {
		for _, p := range lat.Parents(id) {
			if est.GroupByCells(id) > est.GroupByCells(p) {
				t.Fatalf("estimate not monotone: %s (%d) > parent %s (%d)",
					lat.LevelTupleString(id), est.GroupByCells(id),
					lat.LevelTupleString(p), est.GroupByCells(p))
			}
		}
	}
}

func TestDistinct(t *testing.T) {
	if got := distinct(1, 100); got != 1 {
		t.Fatalf("distinct(1,100) = %v", got)
	}
	if got := distinct(100, 0); got != 0 {
		t.Fatalf("distinct(100,0) = %v", got)
	}
	// n >> c saturates at c.
	if got := distinct(10, 1e6); math.Abs(got-10) > 1e-6 {
		t.Fatalf("distinct(10,1e6) = %v", got)
	}
	// n << c approaches n.
	if got := distinct(1e12, 10); math.Abs(got-10) > 0.01 {
		t.Fatalf("distinct(1e12,10) = %v", got)
	}
}

func tinySchemaDim(t *testing.T) *schema.Schema {
	t.Helper()
	d := schema.MustNewDimension("D", []schema.HierarchySpec{{Name: "a", Card: 4}})
	return schema.MustNew("M", d)
}

func TestEstimateSingleDim(t *testing.T) {
	s := tinySchemaDim(t)
	g := chunk.MustNewGrid(s, [][]int{{1, 2}})
	est := NewEstimate(g, 100)
	lat := g.Lattice()
	base := lat.Base()
	// 100 rows into 4 slots: every slot occupied, so each 2-member chunk has
	// ~2 cells.
	if got := est.ChunkCells(base, 0); got != 2 {
		t.Fatalf("ChunkCells = %d, want 2", got)
	}
	if got := est.GroupByCells(lat.Top()); got != 1 {
		t.Fatalf("top estimate = %d, want 1", got)
	}
}
