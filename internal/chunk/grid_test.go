package chunk

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"aggcache/internal/lattice"
	"aggcache/internal/schema"
)

// runNums lists the chunk numbers of a run.
func runNums(r Run) []int {
	out := make([]int, r.N)
	for i := range out {
		out[i] = r.At(i)
	}
	return out
}

// fig1Schema models the paper's Figure 1: two dimensions Product and Time,
// single-level hierarchies, 2 chunks each at the detailed level.
func fig1Schema(t testing.TB) (*schema.Schema, *Grid) {
	t.Helper()
	p := schema.MustNewDimension("Product", []schema.HierarchySpec{{Name: "P", Card: 4}})
	tm := schema.MustNewDimension("Time", []schema.HierarchySpec{{Name: "T", Card: 4}})
	s := schema.MustNew("Sales", p, tm)
	g, err := NewGrid(s, [][]int{{1, 2}, {1, 2}})
	if err != nil {
		t.Fatalf("NewGrid: %v", err)
	}
	return s, g
}

func TestFig1ChunkClosure(t *testing.T) {
	_, g := fig1Schema(t)
	lat := g.Lattice()
	pt := lat.MustID(1, 1)       // (Product, Time)
	timeOnly := lat.MustID(0, 1) // (Time)
	if got := g.NumChunks(pt); got != 4 {
		t.Fatalf("NumChunks(P,T) = %d, want 4", got)
	}
	if got := g.NumChunks(timeOnly); got != 2 {
		t.Fatalf("NumChunks(T) = %d, want 2", got)
	}
	// Chunk 0 of (Time) is computed from the two chunks of (Product,Time)
	// covering time chunk 0 — the Figure 1 correspondence.
	i := slices.Index(lat.Parents(timeOnly), pt)
	d := int(lat.ParentDims(timeOnly)[i])
	got := runNums(g.ParentRun(timeOnly, 0, d))
	want := map[int]bool{0: true, 2: true} // product chunks 0,1 x time chunk 0
	if len(got) != 2 || !want[got[0]] || !want[got[1]] {
		t.Fatalf("ParentRun = %v, want {0,2}", got)
	}
	for _, pc := range got {
		if cc := g.ChildStep(pt, pc, d); cc != 0 {
			t.Fatalf("ChildStep(%d) = %d, want 0", pc, cc)
		}
	}
}

func TestGridErrors(t *testing.T) {
	p := schema.MustNewDimension("P", []schema.HierarchySpec{{Name: "a", Card: 4}})
	s := schema.MustNew("M", p)
	cases := []struct {
		name   string
		counts [][]int
	}{
		{"wrong dims", [][]int{{1, 2}, {1, 2}}},
		{"wrong levels", [][]int{{1}}},
		{"ALL not 1", [][]int{{2, 2}}},
		{"zero chunks", [][]int{{1, 0}}},
		{"too many chunks", [][]int{{1, 5}}},
	}
	for _, c := range cases {
		if _, err := NewGrid(s, c.counts); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	// Decreasing chunk counts with level.
	d2 := schema.MustNewDimension("D", []schema.HierarchySpec{{Name: "a", Card: 4}, {Name: "b", Card: 8}})
	s2 := schema.MustNew("M", d2)
	if _, err := NewGrid(s2, [][]int{{1, 4, 2}}); err == nil {
		t.Errorf("decreasing counts: expected error")
	}
}

// TestClosureUnalignable checks that a grid whose chunk counts cannot be
// aligned with hierarchy boundaries is rejected. One parent with all the
// members means level "a" has no aligned interior boundary.
func TestClosureUnalignable(t *testing.T) {
	d := schema.MustNewDimension("D", []schema.HierarchySpec{
		{Name: "a", Card: 2, ParentOf: nil},
		{Name: "b", Card: 8, ParentOf: []int32{0, 0, 0, 0, 0, 0, 0, 1}},
	})
	s := schema.MustNew("M", d)
	// Level b split into 4 chunks of 2 members: boundaries at 2,4,6 — none
	// aligns with the parent change at member 7. So level a cannot get 2
	// chunks.
	if _, err := NewGrid(s, [][]int{{1, 2, 4}}); err == nil {
		t.Fatalf("expected closure alignment error")
	}
	// With 1 chunk at level a it is fine.
	if _, err := NewGrid(s, [][]int{{1, 1, 4}}); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
}

func apb3Grid(t testing.TB) *Grid {
	t.Helper()
	p := schema.MustNewDimension("Product", []schema.HierarchySpec{
		{Name: "Group", Card: 4}, {Name: "Class", Card: 16}, {Name: "Code", Card: 64},
	})
	c := schema.MustNewDimension("Customer", []schema.HierarchySpec{
		{Name: "Retailer", Card: 6}, {Name: "Store", Card: 24},
	})
	tm := schema.MustNewDimension("Time", []schema.HierarchySpec{
		{Name: "Year", Card: 2}, {Name: "Quarter", Card: 8}, {Name: "Month", Card: 24},
	})
	s := schema.MustNew("UnitSales", p, c, tm)
	g, err := NewGrid(s, [][]int{{1, 2, 4, 8}, {1, 3, 6}, {1, 1, 2, 6}})
	if err != nil {
		t.Fatalf("NewGrid: %v", err)
	}
	return g
}

// TestClosureProperty verifies, for every group-by, every chunk, and every
// lattice parent, that the parent chunks partition the chunk: their member
// regions are disjoint and exactly tile the chunk's region.
func TestClosureProperty(t *testing.T) {
	g := apb3Grid(t)
	lat := g.Lattice()
	for id := lattice.ID(0); int(id) < lat.NumNodes(); id++ {
		for i, parent := range lat.Parents(id) {
			d := int(lat.ParentDims(id)[i])
			for num := 0; num < g.NumChunks(id); num++ {
				pcs := runNums(g.ParentRun(id, num, d))
				if len(pcs) == 0 {
					t.Fatalf("gb %s chunk %d: no parent chunks", lat.LevelTupleString(id), num)
				}
				// Every parent chunk must map back to num, and their member
				// ranges along d must tile the chunk's range mapped down.
				var cbuf [16]int32
				coords := g.Coords(id, num, cbuf[:0])
				l := lat.LevelAt(id, d)
				myRange := g.MemberRange(d, l, coords[d])
				dim := g.Schema().Dim(d)
				wantLo, wantHi := dim.DescendantRange(l, l+1, myRange.Lo)
				_, wantHi = dim.DescendantRange(l, l+1, myRange.Hi-1)
				_ = wantLo
				lo, _ := dim.DescendantRange(l, l+1, myRange.Lo)
				next := lo
				for _, pc := range pcs {
					if back := g.ChildStep(parent, pc, d); back != num {
						t.Fatalf("gb %s chunk %d parent chunk %d maps back to %d", lat.LevelTupleString(id), num, pc, back)
					}
					pcoords := g.Coords(parent, pc, nil)
					pr := g.MemberRange(d, l+1, pcoords[d])
					if pr.Lo != next {
						t.Fatalf("gb %s chunk %d: parent chunks do not tile (gap at %d)", lat.LevelTupleString(id), num, next)
					}
					next = pr.Hi
				}
				if next != wantHi {
					t.Fatalf("gb %s chunk %d: parent chunks end at %d, want %d", lat.LevelTupleString(id), num, next, wantHi)
				}
			}
		}
	}
}

// TestAncestorChunksMatchesRecursiveParents cross-checks the multi-step
// AncestorChunks against repeated single-step ParentRun.
func TestAncestorChunksMatchesRecursiveParents(t *testing.T) {
	g := apb3Grid(t)
	lat := g.Lattice()
	base := lat.Base()
	rng := rand.New(rand.NewSource(7))
	for id := lattice.ID(0); int(id) < lat.NumNodes(); id++ {
		num := rng.Intn(g.NumChunks(id))
		// Walk one random path of parent steps up to base, expanding sets.
		set := map[int]bool{num: true}
		cur := id
		for cur != base {
			ps := lat.Parents(cur)
			i := rng.Intn(len(ps))
			p, d := ps[i], int(lat.ParentDims(cur)[i])
			nset := map[int]bool{}
			for c := range set {
				for _, pc := range runNums(g.ParentRun(cur, c, d)) {
					nset[pc] = true
				}
			}
			set, cur = nset, p
		}
		want := g.AncestorChunks(id, num, base, nil)
		if len(want) != len(set) {
			t.Fatalf("gb %s chunk %d: AncestorChunks %d vs recursive %d", lat.LevelTupleString(id), num, len(want), len(set))
		}
		for _, c := range want {
			if !set[c] {
				t.Fatalf("gb %s chunk %d: AncestorChunks has %d not reached recursively", lat.LevelTupleString(id), num, c)
			}
		}
	}
}

func TestCoordsNumberRoundTrip(t *testing.T) {
	g := apb3Grid(t)
	lat := g.Lattice()
	for id := lattice.ID(0); int(id) < lat.NumNodes(); id++ {
		for num := 0; num < g.NumChunks(id); num++ {
			coords := g.Coords(id, num, nil)
			if got := g.Number(id, coords); got != num {
				t.Fatalf("gb %d: %d -> %v -> %d", id, num, coords, got)
			}
		}
	}
}

func TestCellKeyRoundTrip(t *testing.T) {
	g := apb3Grid(t)
	lat := g.Lattice()
	rng := rand.New(rand.NewSource(3))
	for id := lattice.ID(0); int(id) < lat.NumNodes(); id++ {
		lv := lat.Level(id)
		for trial := 0; trial < 20; trial++ {
			members := make([]int32, len(lv))
			for d, l := range lv {
				members[d] = int32(rng.Intn(g.Schema().Dim(d).Card(l)))
			}
			num, key := g.ChunkOfCell(id, members)
			got := g.CellMembers(id, num, key, nil)
			for d := range members {
				if got[d] != members[d] {
					t.Fatalf("gb %s: members %v -> (%d,%d) -> %v", lat.LevelTupleString(id), members, num, key, got)
				}
			}
		}
	}
}

func TestTotalChunks(t *testing.T) {
	g := apb3Grid(t)
	lat := g.Lattice()
	var want int64
	for id := lattice.ID(0); int(id) < lat.NumNodes(); id++ {
		want += int64(g.NumChunks(id))
	}
	if got := g.TotalChunks(); got != want {
		t.Fatalf("TotalChunks = %d, want %d", got, want)
	}
}

func TestSpanAndCapacity(t *testing.T) {
	_, g := fig1Schema(t)
	lat := g.Lattice()
	base := lat.Base()
	for d := 0; d < 2; d++ {
		if r := g.MemberRange(d, lat.LevelAt(base, d), 0); r.Hi-r.Lo != 2 {
			t.Fatalf("dim %d span = %d, want 2", d, r.Hi-r.Lo)
		}
	}
	if got := g.CellCapacity(base, 0); got != 4 {
		t.Fatalf("CellCapacity = %d, want 4", got)
	}
	if got := g.CellCapacity(lat.Top(), 0); got != 1 {
		t.Fatalf("CellCapacity(top) = %d, want 1", got)
	}
}

// TestGridPropertyRandom builds random closure-compatible grids and checks
// the partition invariants hold everywhere.
func TestGridPropertyRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nd := 1 + rng.Intn(3)
		dims := make([]*schema.Dimension, nd)
		counts := make([][]int, nd)
		for d := range dims {
			nl := 1 + rng.Intn(3)
			specs := make([]schema.HierarchySpec, nl)
			card := 1
			fan := 1 + rng.Intn(3)
			for i := range specs {
				card *= fan + 1
				specs[i] = schema.HierarchySpec{Name: string(rune('A' + i)), Card: card}
			}
			dims[d] = schema.MustNewDimension(string(rune('X'+d)), specs)
			// Uniform hierarchy: chunk counts that divide the fanout chain
			// are always alignable; use powers of the fanout.
			cts := make([]int, nl+1)
			cts[0] = 1
			c := 1
			for l := 1; l <= nl; l++ {
				if rng.Intn(2) == 0 && c*(fan+1) <= dims[d].Card(l) {
					c *= fan + 1
				}
				cts[l] = c
			}
			counts[d] = cts
		}
		s := schema.MustNew("M", dims...)
		g, err := NewGrid(s, counts)
		if err != nil {
			return false
		}
		lat := g.Lattice()
		for id := lattice.ID(0); int(id) < lat.NumNodes(); id++ {
			for i, parent := range lat.Parents(id) {
				d := int(lat.ParentDims(id)[i])
				seen := make(map[int]int)
				for num := 0; num < g.NumChunks(id); num++ {
					for _, pc := range runNums(g.ParentRun(id, num, d)) {
						seen[pc]++
						if g.ChildStep(parent, pc, d) != num {
							return false
						}
					}
				}
				// Each parent chunk claimed exactly once.
				if len(seen) != g.NumChunks(parent) {
					return false
				}
				for _, n := range seen {
					if n != 1 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
