package chunk

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"aggcache/internal/lattice"
	"aggcache/internal/schema"
)

func TestCellMapBuild(t *testing.T) {
	cm := NewCellMap()
	cm.Add(5, 1.5)
	cm.Add(1, 2.0)
	cm.Add(5, 0.5)
	if cm.Len() != 2 {
		t.Fatalf("Len = %d, want 2", cm.Len())
	}
	c := cm.Build(3, 7)
	if c.GB != 3 || c.Num != 7 {
		t.Fatalf("chunk identity = %d/%d", c.GB, c.Num)
	}
	if c.Cells() != 2 || c.Keys[0] != 1 || c.Keys[1] != 5 {
		t.Fatalf("keys = %v", c.Keys)
	}
	if v, ok := c.Value(5); !ok || v != 2.0 {
		t.Fatalf("Value(5) = %v,%v", v, ok)
	}
	if _, ok := c.Value(2); ok {
		t.Fatalf("Value(2) should miss")
	}
	if got := c.Total(); got != 4.0 {
		t.Fatalf("Total = %v, want 4", got)
	}
	cm.Reset()
	if cm.Len() != 0 {
		t.Fatalf("Reset did not clear")
	}
	if c.Bytes() != 2*CellBytes+OverheadBytes {
		t.Fatalf("Bytes = %d", c.Bytes())
	}
	// Counts follow the Adds: key 5 got two rows, key 1 one.
	if _, n, ok := c.Cell(5); !ok || n != 2 {
		t.Fatalf("Cell(5) count = %d", n)
	}
	if _, n, ok := c.Cell(1); !ok || n != 1 {
		t.Fatalf("Cell(1) count = %d", n)
	}
	if _, _, ok := c.Cell(9); ok {
		t.Fatalf("Cell(9) should miss")
	}
	if c.Rows() != 3 {
		t.Fatalf("Rows = %d, want 3", c.Rows())
	}
}

// TestDenseCellMapMatchesSparse drives the dense and sparse accumulator
// implementations with the same operations and expects identical chunks.
func TestDenseCellMapMatchesSparse(t *testing.T) {
	g := rollupTestGrid(t)
	lat := g.Lattice()
	top := lat.Top()
	dense := g.NewCellMap(top, 0) // capacity 1 → dense
	sparse := NewCellMap()
	ops := []struct {
		key uint64
		v   float64
	}{{0, 1.5}, {0, 2.5}, {0, -1}}
	for _, op := range ops {
		dense.Add(op.key, op.v)
		sparse.Add(op.key, op.v)
	}
	if dense.Len() != sparse.Len() {
		t.Fatalf("Len %d vs %d", dense.Len(), sparse.Len())
	}
	dc, sc := dense.Build(top, 0), sparse.Build(top, 0)
	if dc.Cells() != sc.Cells() || dc.Vals[0] != sc.Vals[0] {
		t.Fatalf("dense %v/%v vs sparse %v/%v", dc.Keys, dc.Vals, sc.Keys, sc.Vals)
	}
	dense.Reset()
	if dense.Len() != 0 {
		t.Fatalf("Reset left %d cells", dense.Len())
	}
	dense.Add(0, 7)
	if v, _ := dense.Build(top, 0).Value(0); v != 7 {
		t.Fatalf("post-Reset value %v, want 7 (stale accumulation?)", v)
	}
	// A base-level chunk with a large capacity gets the sparse fallback and
	// behaves identically.
	big := g.NewCellMap(lat.Base(), 0)
	big.Add(3, 1)
	big.Add(3, 2)
	if got, _ := big.Build(lat.Base(), 0).Value(3); got != 3 {
		t.Fatalf("sparse fallback value %v, want 3", got)
	}
}

// TestAddCellsMatchesAddCell folds the same random fact-row stream through the
// bulk and the per-row entry points, in both accumulator modes: the built
// chunks must agree bit for bit (same additions in the same order).
func TestAddCellsMatchesAddCell(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const capacity = 200
	keys := make([]uint64, 1000)
	vals := make([]float64, len(keys))
	for i := range keys {
		keys[i], vals[i] = uint64(rng.Intn(capacity)), rng.NormFloat64()
	}
	for _, dense := range []bool{true, false} {
		bulk, each := NewCellMap(), NewCellMap()
		if dense {
			bulk.prepare(capacity)
			each.prepare(capacity)
		}
		for lo := 0; lo < len(keys); lo += 300 { // several calls accumulate
			hi := min(lo+300, len(keys))
			bulk.AddCells(keys[lo:hi], vals[lo:hi])
		}
		for i, key := range keys {
			each.Add(key, vals[i])
		}
		if bulk.Len() != each.Len() {
			t.Fatalf("dense=%v: Len %d vs %d", dense, bulk.Len(), each.Len())
		}
		got, want := bulk.Build(0, 0), each.Build(0, 0)
		for i := range want.Keys {
			if got.Keys[i] != want.Keys[i] || got.Counts[i] != want.Counts[i] ||
				math.Float64bits(got.Vals[i]) != math.Float64bits(want.Vals[i]) {
				t.Fatalf("dense=%v cell %d: bulk (%d, %v, %d), per-row (%d, %v, %d)", dense, i,
					got.Keys[i], got.Vals[i], got.Counts[i], want.Keys[i], want.Vals[i], want.Counts[i])
			}
		}
	}
}

// buildBaseChunks materializes every base-level chunk of a random sparse
// dataset directly.
func buildBaseChunks(g *Grid, cells map[[3]int32]float64) map[int]*Chunk {
	base := g.Lattice().Base()
	maps := make(map[int]*CellMap)
	for m, v := range cells {
		num, key := g.ChunkOfCell(base, m[:])
		cm, ok := maps[num]
		if !ok {
			cm = NewCellMap()
			maps[num] = cm
		}
		cm.Add(key, v)
	}
	out := make(map[int]*Chunk, len(maps))
	for num, cm := range maps {
		out[num] = cm.Build(base, num)
	}
	return out
}

func rollupTestGrid(t testing.TB) *Grid {
	t.Helper()
	p := schema.MustNewDimension("P", []schema.HierarchySpec{{Name: "Group", Card: 4}, {Name: "Code", Card: 16}})
	c := schema.MustNewDimension("C", []schema.HierarchySpec{{Name: "Store", Card: 12}})
	tm := schema.MustNewDimension("T", []schema.HierarchySpec{{Name: "Year", Card: 2}, {Name: "Month", Card: 8}})
	s := schema.MustNew("M", p, c, tm)
	return MustNewGrid(s, [][]int{{1, 2, 4}, {1, 3}, {1, 1, 2}})
}

// TestRollUpMatchesDirect aggregates base chunks up to every group-by and
// compares against directly aggregating the raw cells.
func TestRollUpMatchesDirect(t *testing.T) {
	g := rollupTestGrid(t)
	lat := g.Lattice()
	rng := rand.New(rand.NewSource(42))
	cells := make(map[[3]int32]float64)
	for i := 0; i < 300; i++ {
		m := [3]int32{int32(rng.Intn(16)), int32(rng.Intn(12)), int32(rng.Intn(8))}
		cells[m] += float64(rng.Intn(100))
	}
	baseChunks := buildBaseChunks(g, cells)

	for id := lattice.ID(0); int(id) < lat.NumNodes(); id++ {
		lv := lat.Level(id)
		// Direct aggregation of raw cells.
		want := make(map[[3]int32]float64)
		for m, v := range cells {
			var am [3]int32
			for d := 0; d < 3; d++ {
				am[d] = g.Schema().Dim(d).Ancestor(g.Schema().Dim(d).Hierarchy(), lv[d], m[d])
			}
			want[am] += v
		}
		// Roll up base chunks chunk by chunk.
		for num := 0; num < g.NumChunks(id); num++ {
			cm := NewCellMap()
			for _, bc := range g.AncestorChunks(id, num, lat.Base(), nil) {
				src, ok := baseChunks[bc]
				if !ok {
					continue
				}
				if _, err := g.RollUpInto(cm, id, num, src); err != nil {
					t.Fatalf("RollUpInto: %v", err)
				}
			}
			got := cm.Build(id, num)
			for i, key := range got.Keys {
				members := g.CellMembers(id, num, key, nil)
				var am [3]int32
				copy(am[:], members)
				if want[am] != got.Vals[i] {
					t.Fatalf("gb %s chunk %d cell %v: got %v want %v",
						lat.LevelTupleString(id), num, am, got.Vals[i], want[am])
				}
				delete(want, am)
			}
		}
		// All direct cells for this group-by should have been covered: we
		// deleted matches per chunk; leftover means a missing cell. We only
		// check per group-by by rebuilding want each iteration, so leftovers
		// that belong to other chunks were deleted above.
		if len(want) != 0 {
			t.Fatalf("gb %s: %d cells missing from rolled-up chunks", lat.LevelTupleString(id), len(want))
		}
	}
}

// TestRollUpTotalsInvariant: rolling any chunk set up preserves the sum.
func TestRollUpTotalsInvariant(t *testing.T) {
	f := func(seed int64) bool {
		g := rollupTestGrid(t)
		lat := g.Lattice()
		rng := rand.New(rand.NewSource(seed))
		cells := make(map[[3]int32]float64)
		n := 1 + rng.Intn(200)
		total := 0.0
		for i := 0; i < n; i++ {
			m := [3]int32{int32(rng.Intn(16)), int32(rng.Intn(12)), int32(rng.Intn(8))}
			v := float64(1 + rng.Intn(50))
			cells[m] += v
			total += v
		}
		baseChunks := buildBaseChunks(g, cells)
		// Pick a random group-by; aggregate everything into its chunks.
		id := lattice.ID(rng.Intn(lat.NumNodes()))
		sum := 0.0
		for num := 0; num < g.NumChunks(id); num++ {
			cm := NewCellMap()
			for _, bc := range g.AncestorChunks(id, num, lat.Base(), nil) {
				if src, ok := baseChunks[bc]; ok {
					if _, err := g.RollUpInto(cm, id, num, src); err != nil {
						return false
					}
				}
			}
			sum += cm.Build(id, num).Total()
		}
		return sum == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestRollUpErrors(t *testing.T) {
	g := rollupTestGrid(t)
	lat := g.Lattice()
	base := lat.Base()
	src := &Chunk{GB: lat.Top(), Num: 0, Keys: []uint64{0}, Vals: []float64{1}}
	// Cannot roll up from a more aggregated group-by.
	if _, err := g.RollUpInto(NewCellMap(), base, 0, src); err == nil {
		t.Fatalf("expected error rolling up from an aggregated group-by")
	}
	// Wrong destination chunk.
	bsrc := &Chunk{GB: base, Num: int32(g.NumChunks(base) - 1)}
	if _, err := g.RollUpInto(NewCellMap(), lat.Top(), 0, bsrc); err != nil {
		t.Fatalf("top chunk should accept any base chunk: %v", err)
	}
	two := lat.MustID(2, 0, 0) // product base level only
	if g.NumChunks(two) < 2 {
		t.Fatalf("test needs ≥2 chunks")
	}
	if _, err := g.RollUpInto(NewCellMap(), two, 0, bsrc); err == nil {
		t.Fatalf("expected error: source chunk outside destination chunk")
	}
}

func TestSlice(t *testing.T) {
	g := rollupTestGrid(t)
	lat := g.Lattice()
	base := lat.Base()
	cm := NewCellMap()
	// Chunk 0 of base: product members 0..3, customer 0..3, time 0..3 (4
	// chunks on product => 16/4=4 members, 3 chunks on customer => 4, 2 on
	// time => 4).
	_, k1 := g.ChunkOfCell(base, []int32{0, 0, 0})
	_, k2 := g.ChunkOfCell(base, []int32{3, 3, 3})
	cm.Add(k1, 1)
	cm.Add(k2, 2)
	c := cm.Build(base, 0)
	out := g.Slice(c, []Range{{0, 2}, {0, 4}, {0, 4}})
	if out.Cells() != 1 {
		t.Fatalf("Slice kept %d cells, want 1", out.Cells())
	}
	if v, ok := out.Value(k1); !ok || v != 1 {
		t.Fatalf("sliced cell wrong: %v %v", v, ok)
	}
	all := g.Slice(c, []Range{{0, 4}, {0, 4}, {0, 4}})
	if all.Cells() != 2 {
		t.Fatalf("full slice kept %d cells, want 2", all.Cells())
	}
}
