package chunk

import (
	"math/rand"
	"sync"
	"testing"

	"aggcache/internal/lattice"
	"aggcache/internal/schema"
)

// TestSliceEdgeCases pins the kernel's trimming behavior on the inputs the
// fast paths special-case: chunks without a Counts column, empty chunks,
// empty intersections, and full coverage.
func TestSliceEdgeCases(t *testing.T) {
	g := rollupTestGrid(t)
	base := g.Lattice().Base()

	// A chunk with nil Counts (older payloads and some test fixtures): the
	// slice must keep Counts nil rather than fabricating one.
	cm := NewCellMap()
	_, k1 := g.ChunkOfCell(base, []int32{0, 0, 0})
	_, k2 := g.ChunkOfCell(base, []int32{3, 3, 3})
	cm.Add(k1, 1)
	cm.Add(k2, 2)
	built := cm.Build(base, 0)
	noCounts := &Chunk{GB: built.GB, Num: built.Num, Keys: built.Keys, Vals: built.Vals}
	out := g.Slice(noCounts, []Range{{0, 2}, {0, 4}, {0, 4}})
	if out.Cells() != 1 || out.Counts != nil {
		t.Fatalf("nil-Counts slice: cells=%d counts=%v, want 1 cell and nil counts", out.Cells(), out.Counts)
	}
	if v, ok := out.Value(k1); !ok || v != 1 {
		t.Fatalf("nil-Counts slice kept wrong cell: %v %v", v, ok)
	}

	// An empty chunk slices to an empty chunk with the same identity.
	empty := &Chunk{GB: base, Num: 5}
	out = g.Slice(empty, []Range{{0, 4}, {0, 4}, {0, 4}})
	if out.Cells() != 0 || out.GB != base || out.Num != 5 {
		t.Fatalf("empty slice = %v", out)
	}

	// Ranges that miss the chunk entirely: empty result without a scan.
	out = g.Slice(built, []Range{{100, 200}, {0, 4}, {0, 4}})
	if out.Cells() != 0 {
		t.Fatalf("disjoint slice kept %d cells", out.Cells())
	}

	// Full coverage returns the chunk itself — chunks are immutable, so the
	// trim is free.
	if out = g.Slice(built, []Range{{0, 4}, {0, 4}, {0, 4}}); out != built {
		t.Fatalf("full-coverage slice did not return the source chunk")
	}
}

// TestCellMapResetReuse drives the Reset-then-reuse cycle pooling depends
// on, in both dense and sparse modes and across capacity changes: a reused
// accumulator must never leak a previous run's cells.
func TestCellMapResetReuse(t *testing.T) {
	g := rollupTestGrid(t)
	lat := g.Lattice()
	base := lat.Base() // capacity 64 → dense

	// Dense: fill, build, reset, refill with different keys.
	cm := g.GetCellMap(base, 0)
	if !cm.isDense {
		t.Fatalf("base accumulator should be dense")
	}
	for k := uint64(0); k < 64; k++ {
		cm.Add(k, float64(k+1))
	}
	if c := cm.Build(base, 0); c.Cells() != 64 {
		t.Fatalf("dense build: %d cells", c.Cells())
	}
	cm.Reset()
	if cm.Len() != 0 {
		t.Fatalf("dense Reset left %d cells", cm.Len())
	}
	cm.Add(7, 3)
	c := cm.Build(base, 0)
	if c.Cells() != 1 || c.Keys[0] != 7 || c.Vals[0] != 3 {
		t.Fatalf("dense reuse leaked stale cells: %v %v", c.Keys, c.Vals)
	}
	PutCellMap(cm)

	// Pooled reuse across shrinking and regrowing capacities: the slots the
	// small-capacity use never touched must still be zero when the arrays
	// grow back.
	cm = g.GetCellMap(base, 0) // capacity 64 again (likely the pooled one)
	if got := cm.Len(); got != 0 {
		t.Fatalf("pooled accumulator arrived with %d cells", got)
	}
	top := lat.Top() // capacity 1
	cm.prepare(1)
	cm.Add(0, 5)
	if c := cm.Build(top, 0); c.Cells() != 1 || c.Vals[0] != 5 {
		t.Fatalf("shrunk reuse wrong: %v", c)
	}
	cm.Reset()
	cm.prepare(64)
	if got := cm.Build(base, 0); got.Cells() != 0 {
		t.Fatalf("regrown accumulator leaked %d cells: keys %v", got.Cells(), got.Keys)
	}
	PutCellMap(cm)

	// Sparse: a grid whose base capacity exceeds denseLimit falls back to
	// the map, and the same reset/reuse contract must hold there.
	big := bigChunkGrid(t)
	bigBase := big.Lattice().Base()
	sm := big.GetCellMap(bigBase, 0)
	if sm.isDense {
		t.Fatalf("big-capacity accumulator should be sparse (cap %d)", big.CellCapacity(bigBase, 0))
	}
	sm.Add(70000, 1)
	sm.Add(1, 2)
	sm.Reset()
	if sm.Len() != 0 {
		t.Fatalf("sparse Reset left %d cells", sm.Len())
	}
	sm.Add(3, 9)
	if c := sm.Build(bigBase, 0); c.Cells() != 1 || c.Keys[0] != 3 {
		t.Fatalf("sparse reuse leaked stale cells: %v", c.Keys)
	}
	PutCellMap(sm)

	// Mode flip on a pooled accumulator: sparse use, then dense use, must
	// not resurrect map cells.
	sm = big.GetCellMap(bigBase, 0)
	sm.Add(12345, 4)
	PutCellMap(sm)
	dm := big.GetCellMap(big.Lattice().Top(), 0)
	if dm.Len() != 0 {
		t.Fatalf("mode-flipped accumulator arrived with %d cells", dm.Len())
	}
	dm.Add(0, 1)
	if c := dm.Build(big.Lattice().Top(), 0); c.Cells() != 1 || c.Vals[0] != 1 {
		t.Fatalf("mode flip produced %v / %v", c.Keys, c.Vals)
	}
	PutCellMap(dm)

	// Sparse occupancy of a dense accumulator — one bit set per bitmap word,
	// the case the set-bit sweep exists for: Build must emit exactly those
	// cells in key order and Reset must zero exactly those slots.
	wide := &CellMap{}
	wide.prepare(64 * 40)
	for w := 0; w < 40; w++ {
		wide.AddCell(uint64(w*64+(w*7)%64), float64(w+1), int64(w+2))
	}
	c = wide.Build(base, 0)
	if c.Cells() != 40 {
		t.Fatalf("one-bit-per-word build: %d cells, want 40", c.Cells())
	}
	for w := 0; w < 40; w++ {
		if c.Keys[w] != uint64(w*64+(w*7)%64) || c.Vals[w] != float64(w+1) || c.Counts[w] != int64(w+2) {
			t.Fatalf("one-bit-per-word cell %d = (%d, %v, %d)", w, c.Keys[w], c.Vals[w], c.Counts[w])
		}
	}
	wide.Reset()
	if wide.Len() != 0 {
		t.Fatalf("one-bit-per-word Reset left %d cells", wide.Len())
	}
	for k := range wide.dense {
		if wide.dense[k] != 0 || wide.denseN[k] != 0 {
			t.Fatalf("one-bit-per-word Reset left slot %d = (%v, %d)", k, wide.dense[k], wide.denseN[k])
		}
	}
	for i, w := range wide.occ {
		if w != 0 {
			t.Fatalf("one-bit-per-word Reset left bitmap word %d = %x", i, w)
		}
	}
}

// bigChunkGrid returns a grid whose single base chunk exceeds denseLimit
// cells, forcing the sparse accumulator.
func bigChunkGrid(t testing.TB) *Grid {
	t.Helper()
	a := schema.MustNewDimension("A", []schema.HierarchySpec{{Name: "L", Card: 300}})
	bd := schema.MustNewDimension("B", []schema.HierarchySpec{{Name: "L", Card: 300}})
	s := schema.MustNew("M", a, bd)
	return MustNewGrid(s, [][]int{{1, 1}, {1, 1}})
}

// TestRollUpFastPaths checks both mapper forms directly: copy-through for
// identical group-bys and when only span-1 dimensions collapse, and the
// per-dimension decode for translating roll-ups (into dense and sparse
// accumulators) — all against a member-level reference aggregation.
func TestRollUpFastPaths(t *testing.T) {
	// Span-1 copy-through needs a dimension chunked one-member-per-chunk.
	p := schema.MustNewDimension("P", []schema.HierarchySpec{{Name: "Group", Card: 4}, {Name: "Code", Card: 16}})
	c := schema.MustNewDimension("C", []schema.HierarchySpec{{Name: "Store", Card: 12}})
	tm := schema.MustNewDimension("T", []schema.HierarchySpec{{Name: "Year", Card: 2}, {Name: "Month", Card: 8}})
	g := MustNewGrid(schema.MustNew("M", p, c, tm), [][]int{{1, 2, 4}, {1, 12}, {1, 1, 2}})
	lat := g.Lattice()
	base := lat.Base()

	cm := NewCellMap()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		cm.Add(uint64(rng.Intn(int(g.CellCapacity(base, 0)))), float64(1+rng.Intn(9)))
	}
	src := cm.Build(base, 0)

	// Same group-by: pure copy.
	var m rollUpMapper
	if err := m.compose(g, base, 0, base, 0); err != nil || !m.copyThrough {
		t.Fatalf("same-gb mapper: %v copyThrough=%v", err, m.copyThrough)
	}
	out := NewCellMap()
	if _, err := g.RollUpInto(out, base, 0, src); err != nil {
		t.Fatalf("copy roll-up: %v", err)
	}
	same := out.Build(base, 0)
	if same.Cells() != src.Cells() || same.Total() != src.Total() {
		t.Fatalf("copy-through changed the chunk: %d/%v vs %d/%v",
			same.Cells(), same.Total(), src.Cells(), src.Total())
	}

	// Collapsing only the span-1 Store dimension: still copy-through.
	storeAll := lat.MustID(2, 0, 2)
	dst := g.DescendantChunk(base, 0, storeAll)
	if err := m.compose(g, storeAll, dst, base, 0); err != nil {
		t.Fatalf("span-1 mapper: %v", err)
	}
	if !m.copyThrough {
		t.Fatalf("span-1-only collapse should be copy-through")
	}
	checkRollUpAgainstReference(t, g, storeAll, dst, src)

	// A genuinely translating roll-up decodes the two dimensions the source
	// chunk spans more than one member of and folds the span-1 one into base.
	grp := lat.MustID(1, 1, 1)
	dst = g.DescendantChunk(base, 0, grp)
	if err := m.compose(g, grp, dst, base, 0); err != nil {
		t.Fatalf("translating mapper: %v", err)
	}
	if m.copyThrough || m.n != 2 {
		t.Fatalf("translating roll-up: copy=%v, %d decoded dims (want 2)", m.copyThrough, m.n)
	}
	checkRollUpAgainstReference(t, g, grp, dst, src)

	// A wrong destination chunk is refused, not silently mis-mapped.
	if err := m.compose(g, grp, dst+1, base, 0); err == nil {
		t.Fatalf("mapper composed for a destination chunk the source does not fall in")
	}

	// A source too large for a dense accumulator of its own.
	big := bigChunkGrid(t)
	blat := big.Lattice()
	bcm := NewCellMap()
	for i := 0; i < 200; i++ {
		bcm.Add(uint64(rng.Intn(90000)), float64(1+rng.Intn(9)))
	}
	bsrc := bcm.Build(blat.Base(), 0)
	checkRollUpAgainstReference(t, big, blat.Top(), 0, bsrc)
}

// checkRollUpAgainstReference rolls src into (dstGB, dstNum) and compares
// every destination cell against a member-level reference computed with
// CellMembers + Dimension.Ancestor.
func checkRollUpAgainstReference(t *testing.T, g *Grid, dstGB lattice.ID, dstNum int, src *Chunk) {
	t.Helper()
	lat := g.Lattice()
	cm := g.NewCellMap(dstGB, dstNum)
	if _, err := g.RollUpInto(cm, dstGB, dstNum, src); err != nil {
		t.Fatalf("RollUpInto: %v", err)
	}
	got := cm.Build(dstGB, dstNum)

	want := make(map[uint64]float64)
	nd := g.Schema().NumDims()
	for i, key := range src.Keys {
		members := g.CellMembers(src.GB, int(src.Num), key, nil)
		am := make([]int32, nd)
		for d := 0; d < nd; d++ {
			am[d] = g.Schema().Dim(d).Ancestor(lat.LevelAt(src.GB, d), lat.LevelAt(dstGB, d), members[d])
		}
		num, dk := g.ChunkOfCell(dstGB, am)
		if num != dstNum {
			t.Fatalf("reference cell landed in chunk %d, want %d", num, dstNum)
		}
		want[dk] += src.Vals[i]
	}
	if got.Cells() != len(want) {
		t.Fatalf("rolled %d cells, reference has %d", got.Cells(), len(want))
	}
	for i, key := range got.Keys {
		if want[key] != got.Vals[i] {
			t.Fatalf("cell %d: got %v want %v", key, got.Vals[i], want[key])
		}
	}
}

// TestRollUpConcurrent rolls every base chunk into every chunk of every
// group-by from many goroutines sharing one Grid and checks every result
// against a serially computed reference: the translation tables are
// immutable, so there is nothing to race on (run with -race; make race / CI
// does) and nothing that grows — the mapper footprint is the same before
// and after, however many (source chunk, destination group-by) pairs ran.
func TestRollUpConcurrent(t *testing.T) {
	g := rollupTestGrid(t)
	lat := g.Lattice()
	footprint := g.MapperBytes()
	rng := rand.New(rand.NewSource(11))
	cells := make(map[[3]int32]float64)
	for i := 0; i < 400; i++ {
		m := [3]int32{int32(rng.Intn(16)), int32(rng.Intn(12)), int32(rng.Intn(8))}
		cells[m] += float64(1 + rng.Intn(50))
	}
	baseChunks := buildBaseChunks(g, cells)

	type target struct {
		gb  lattice.ID
		num int
	}
	rollUp := func(tg target) (*Chunk, error) {
		cm := g.GetCellMap(tg.gb, tg.num)
		defer PutCellMap(cm)
		for _, bc := range g.AncestorChunks(tg.gb, tg.num, lat.Base(), nil) {
			if src, ok := baseChunks[bc]; ok {
				if _, err := g.RollUpInto(cm, tg.gb, tg.num, src); err != nil {
					return nil, err
				}
			}
		}
		return cm.Build(tg.gb, tg.num), nil
	}
	refTotals := make(map[target]float64)
	var targets []target
	for id := lattice.ID(0); int(id) < lat.NumNodes(); id++ {
		for num := 0; num < g.NumChunks(id); num++ {
			tg := target{gb: id, num: num}
			ref, err := rollUp(tg)
			if err != nil {
				t.Fatalf("reference roll-up: %v", err)
			}
			refTotals[tg] = ref.Total()
			targets = append(targets, tg)
		}
	}

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				for i := w; i < len(targets); i += 1 + w%3 {
					tg := targets[i]
					got, err := rollUp(tg)
					if err != nil {
						t.Errorf("concurrent roll-up: %v", err)
						return
					}
					if got.Total() != refTotals[tg] {
						t.Errorf("gb %d chunk %d: total %v, want %v", tg.gb, tg.num, got.Total(), refTotals[tg])
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := g.MapperBytes(); got != footprint || got == 0 {
		t.Fatalf("mapper footprint %d B after rolling every base chunk into every group-by, %d B before", got, footprint)
	}
}
