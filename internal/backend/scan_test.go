package backend

import (
	"context"
	"math"
	"sync"
	"testing"

	"aggcache/internal/apb"
	"aggcache/internal/chunk"
	"aggcache/internal/chunk/chunktest"
	"aggcache/internal/data"
	"aggcache/internal/lattice"
)

// oracleComputeChunks is the scan ComputeChunks replaced, kept as the
// reference: per requested chunk, walk the ancestor chunks' clustered runs
// and, per tuple, map every member to its ancestor through the schema,
// re-derive the cell key with ChunkOfCell and accumulate one cell. It shares
// only the choice of source with the engine. It returns the chunks and the
// tuples scanned per chunk.
func oracleComputeChunks(t *testing.T, e *Engine, gb lattice.ID, nums []int) ([]*chunk.Chunk, []int64) {
	t.Helper()
	g := e.grid
	sch, lat := g.Schema(), g.Lattice()
	sc, err := e.openScan(gb)
	if err != nil {
		t.Fatalf("openScan: %v", err)
	}
	src := sc.src
	nd := sch.NumDims()
	mapped := make([]int32, nd)
	out := make([]*chunk.Chunk, 0, len(nums))
	scanned := make([]int64, 0, len(nums))
	for _, num := range nums {
		cm := g.NewCellMap(gb, num)
		var tuples int64
		for _, c := range g.AncestorChunks(gb, num, src.gb, nil) {
			for r := src.offsets[c]; r < src.offsets[c+1]; r++ {
				for d := 0; d < nd; d++ {
					mapped[d] = sch.Dim(d).Ancestor(lat.LevelAt(src.gb, d), lat.LevelAt(gb, d), src.cols[d][r])
				}
				at, key := g.ChunkOfCell(gb, mapped)
				if at != num {
					t.Fatalf("row %d of source chunk %d lands in chunk %d of %s, not %d", r, c, at, lat.LevelTupleString(gb), num)
				}
				count := int64(1)
				if src.counts != nil {
					count = src.counts[r]
				}
				cm.AddCell(key, src.values[r], count)
				tuples++
			}
		}
		out = append(out, cm.Build(gb, num))
		scanned = append(scanned, tuples)
	}
	return out, scanned
}

// scanFixtures are the two datasets of the differential tests: APB tiny and
// the ragged star schema, uniformly sampled.
func scanFixtures(t *testing.T) map[string]func() *Engine {
	t.Helper()
	star := chunktest.StarGrid()
	starTab, err := data.Generate(star.Schema(), data.Params{Rows: 2500, TimeDim: -1, Seed: 3})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return map[string]func() *Engine{
		"apb": func() *Engine { e, _ := tinyEngine(t, LatencyModel{}); return e },
		"star": func() *Engine {
			e, err := NewEngine(star, starTab, LatencyModel{})
			if err != nil {
				t.Fatalf("NewEngine: %v", err)
			}
			return e
		},
	}
}

// allChunkNums lists every chunk number of gb.
func allChunkNums(g *chunk.Grid, gb lattice.ID) []int {
	nums := make([]int, g.NumChunks(gb))
	for i := range nums {
		nums[i] = i
	}
	return nums
}

// midGroupBy is one level up from the base on every dimension that has a
// level to give: a materialized aggregate many group-bys can scan instead of
// the base.
func midGroupBy(g *chunk.Grid) lattice.ID {
	lat := g.Lattice()
	lv := append([]int(nil), lat.Level(lat.Base())...)
	for d := range lv {
		if lv[d] > 1 {
			lv[d]--
		}
	}
	return lat.MustID(lv...)
}

// TestScanMatchesPerTupleOracle is the differential test of the table-driven
// columnar scan: for every group-by × every chunk, from the base source and
// from a materialized aggregate, the chunks equal the per-tuple oracle's cell
// for cell — keys, counts, sums bit-exact (same additions in the same scan
// order) — and TuplesScanned, ResultCells and EstimateScans agree with it.
func TestScanMatchesPerTupleOracle(t *testing.T) {
	ctx := context.Background()
	for name, build := range scanFixtures(t) {
		for _, materialize := range []bool{false, true} {
			e := build()
			g := e.Grid()
			lat := g.Lattice()
			mid := midGroupBy(g)
			if materialize {
				if err := e.Materialize(mid); err != nil {
					t.Fatalf("%s: Materialize: %v", name, err)
				}
			}
			fromAggregate := 0
			for gb := lattice.ID(0); int(gb) < lat.NumNodes(); gb++ {
				nums := allChunkNums(g, gb)
				got, stats, err := e.ComputeChunks(ctx, gb, nums)
				if err != nil {
					t.Fatalf("%s: ComputeChunks(%s): %v", name, lat.LevelTupleString(gb), err)
				}
				ests, err := e.EstimateScans(ctx, gb, nums)
				if err != nil {
					t.Fatalf("%s: EstimateScans(%s): %v", name, lat.LevelTupleString(gb), err)
				}
				want, scanned := oracleComputeChunks(t, e, gb, nums)
				if materialize && lat.ComputableFrom(gb, mid) {
					fromAggregate++
				}
				var tuples, cells int64
				for i, w := range want {
					c := got[i]
					where := name + " " + lat.LevelTupleString(gb)
					if c.GB != gb || int(c.Num) != nums[i] || c.Cells() != w.Cells() {
						t.Fatalf("%s chunk %d: got %v, oracle %v", where, i, c, w)
					}
					for j, key := range w.Keys {
						if c.Keys[j] != key || c.Counts[j] != w.Counts[j] ||
							math.Float64bits(c.Vals[j]) != math.Float64bits(w.Vals[j]) {
							t.Fatalf("%s chunk %d cell %d: got (%d, %v, %d), oracle (%d, %v, %d)", where, i, j,
								c.Keys[j], c.Vals[j], c.Counts[j], key, w.Vals[j], w.Counts[j])
						}
					}
					if ests[i] != scanned[i] {
						t.Fatalf("%s chunk %d: estimated %d tuples, oracle scanned %d", where, i, ests[i], scanned[i])
					}
					tuples += scanned[i]
					cells += int64(w.Cells())
				}
				if stats.TuplesScanned != tuples || stats.ResultCells != cells {
					t.Fatalf("%s %s: stats %+v, oracle scanned %d tuples into %d cells",
						name, lat.LevelTupleString(gb), stats, tuples, cells)
				}
			}
			if materialize && fromAggregate < 2 {
				t.Fatalf("%s: only %d group-bys were answered from the materialized aggregate", name, fromAggregate)
			}
		}
	}
}

// TestScanConcurrentWithMaterialize runs ComputeChunks on 8 goroutines while
// aggregates are materialized underneath them (run under -race): sources are
// immutable once published and every scan's scratch is its own, so each
// answer must equal the one computed alone, whichever source served it —
// same keys and counts, sums up to the re-association a different source
// implies.
func TestScanConcurrentWithMaterialize(t *testing.T) {
	e, _ := tinyEngine(t, LatencyModel{})
	g := e.Grid()
	lat := g.Lattice()
	ctx := context.Background()
	want := make([][]*chunk.Chunk, lat.NumNodes())
	for gb := range want {
		var err error
		if want[gb], _, err = e.ComputeGroupBy(lattice.ID(gb)); err != nil {
			t.Fatalf("ComputeGroupBy: %v", err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				for i := 0; i < lat.NumNodes(); i++ {
					gb := lattice.ID((i + w) % lat.NumNodes())
					nums := allChunkNums(g, gb)
					got, _, err := e.ComputeChunks(ctx, gb, nums)
					if err != nil {
						t.Errorf("ComputeChunks: %v", err)
						return
					}
					if _, err := e.EstimateScans(ctx, gb, nums); err != nil {
						t.Errorf("EstimateScans: %v", err)
						return
					}
					for j, c := range got {
						ref := want[gb][j]
						if c.Cells() != ref.Cells() {
							t.Errorf("gb %d chunk %d: %d cells, want %d", gb, j, c.Cells(), ref.Cells())
							return
						}
						for k, key := range ref.Keys {
							if c.Keys[k] != key || c.Counts[k] != ref.Counts[k] || math.Abs(c.Vals[k]-ref.Vals[k]) > 1e-6 {
								t.Errorf("gb %d chunk %d cell %d differs under concurrency", gb, j, k)
								return
							}
						}
					}
				}
			}
		}(w)
	}
	for _, gb := range []lattice.ID{midGroupBy(g), lat.MustID(0, 2, 1), lat.MustID(1, 1, 0), lat.Top()} {
		if err := e.Materialize(gb); err != nil {
			t.Errorf("Materialize: %v", err)
		}
	}
	wg.Wait()
}

// TestScanAllocatesPerChunkNotPerTuple pins the kernel's allocation shape: a
// request that scans the whole ScaleSmall table into one chunk allocates the
// same handful of objects as one that scans a single base chunk's run.
func TestScanAllocatesPerChunkNotPerTuple(t *testing.T) {
	g, tab, err := apb.New(apb.ScaleSmall).Build(1)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	e, err := NewEngine(g, tab, LatencyModel{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	ctx := context.Background()
	lat := g.Lattice()
	allocs := func(gb lattice.ID) (float64, int64) {
		var tuples int64
		n := testing.AllocsPerRun(20, func() {
			_, stats, err := e.ComputeChunks(ctx, gb, []int{0})
			if err != nil {
				t.Fatalf("ComputeChunks: %v", err)
			}
			tuples = stats.TuplesScanned
		})
		return n, tuples
	}
	small, smallTuples := allocs(lat.Base())
	whole, wholeTuples := allocs(lat.Top())
	if wholeTuples != int64(tab.Len()) || smallTuples*20 > wholeTuples {
		t.Fatalf("fixture: scans of %d and %d tuples do not span the table of %d", smallTuples, wholeTuples, tab.Len())
	}
	if whole > small+4 {
		t.Fatalf("scanning %d tuples allocated %.0f objects, %d tuples %.0f: allocation grows with the scan",
			wholeTuples, whole, smallTuples, small)
	}
}
