package backend

import (
	"context"
	"fmt"
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
// reference: per requested chunk, walk the base ancestor chunks' clustered
// runs and, per tuple, map every member to its ancestor through the schema,
// re-derive the cell key with ChunkOfCell and accumulate one fact row. It
// shares only the fact source with the engine. It returns the chunks and the
// tuples scanned per chunk.
func oracleComputeChunks(t *testing.T, e *Engine, gb lattice.ID, nums []int) ([]*chunk.Chunk, []int64) {
	t.Helper()
	g := e.grid
	sch, lat := g.Schema(), g.Lattice()
	src, base := e.src, lat.Base()
	nd := sch.NumDims()
	mapped := make([]int32, nd)
	out := make([]*chunk.Chunk, 0, len(nums))
	scanned := make([]int64, 0, len(nums))
	for _, num := range nums {
		cm := g.NewCellMap(gb, num)
		var tuples int64
		for _, c := range g.AncestorChunks(gb, num, base, nil) {
			for r := src.offsets[c]; r < src.offsets[c+1]; r++ {
				for d := 0; d < nd; d++ {
					mapped[d] = sch.Dim(d).Ancestor(lat.LevelAt(base, d), lat.LevelAt(gb, d), src.cols[d][r])
				}
				at, key := g.ChunkOfCell(gb, mapped)
				if at != num {
					t.Fatalf("row %d of source chunk %d lands in chunk %d of %s, not %d", r, c, at, lat.LevelTupleString(gb), num)
				}
				cm.Add(key, src.values[r])
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

// TestScanMatchesPerTupleOracle is the differential test of the table-driven
// columnar scan: for every group-by × every chunk, the chunks equal the
// per-tuple oracle's cell for cell — keys, counts, sums bit-exact (same
// additions in the same scan order) — and TuplesScanned, ResultCells and
// EstimateScans agree with it.
func TestScanMatchesPerTupleOracle(t *testing.T) {
	ctx := context.Background()
	for name, build := range scanFixtures(t) {
		e := build()
		g := e.Grid()
		lat := g.Lattice()
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
			var tuples, cells int64
			for i, w := range want {
				where := name + " " + lat.LevelTupleString(gb)
				if err := sameChunk(got[i], w); err != nil {
					t.Fatalf("%s chunk %d: %v", where, i, err)
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
	}
}

// sameChunk reports how got differs from want: identity, cell count, or the
// first cell whose key, count or sum bits differ.
func sameChunk(got, want *chunk.Chunk) error {
	if got.GB != want.GB || got.Num != want.Num || got.Cells() != want.Cells() {
		return fmt.Errorf("got %v, want %v", got, want)
	}
	for j, key := range want.Keys {
		if got.Keys[j] != key || got.Counts[j] != want.Counts[j] ||
			math.Float64bits(got.Vals[j]) != math.Float64bits(want.Vals[j]) {
			return fmt.Errorf("cell %d: got (%d, %v, %d), want (%d, %v, %d)", j,
				got.Keys[j], got.Vals[j], got.Counts[j], key, want.Vals[j], want.Counts[j])
		}
	}
	return nil
}

// TestScanConcurrent runs ComputeChunks and EstimateScans on 8 goroutines
// (run under -race): the fact source is immutable and every scan's scratch
// is its own, so each answer must equal the one computed alone bit for bit,
// and each estimate the one computed alone.
func TestScanConcurrent(t *testing.T) {
	e, _ := tinyEngine(t, LatencyModel{})
	g := e.Grid()
	lat := g.Lattice()
	ctx := context.Background()
	want := make([][]*chunk.Chunk, lat.NumNodes())
	wantEst := make([][]int64, lat.NumNodes())
	for gb := range want {
		var err error
		if want[gb], _, err = e.ComputeGroupBy(lattice.ID(gb)); err != nil {
			t.Fatalf("ComputeGroupBy: %v", err)
		}
		if wantEst[gb], err = e.EstimateScans(ctx, lattice.ID(gb), allChunkNums(g, lattice.ID(gb))); err != nil {
			t.Fatalf("EstimateScans: %v", err)
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
					ests, err := e.EstimateScans(ctx, gb, nums)
					if err != nil {
						t.Errorf("EstimateScans: %v", err)
						return
					}
					for j, c := range got {
						if err := sameChunk(c, want[gb][j]); err != nil {
							t.Errorf("gb %d chunk %d differs under concurrency: %v", gb, j, err)
							return
						}
						if ests[j] != wantEst[gb][j] {
							t.Errorf("gb %d chunk %d: estimate %d under concurrency, %d alone", gb, j, ests[j], wantEst[gb][j])
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestEstimateScansOutOfRange checks the estimate's request validation: an
// unknown group-by or chunk number is an error, never a silent zero.
func TestEstimateScansOutOfRange(t *testing.T) {
	e, tab := tinyEngine(t, LatencyModel{})
	lat := e.Grid().Lattice()
	ctx := context.Background()
	ests, err := e.EstimateScans(ctx, lat.Top(), []int{0})
	if err != nil || len(ests) != 1 || ests[0] != int64(tab.Len()) {
		t.Fatalf("top estimate %v, %v; want [%d]", ests, err, tab.Len())
	}
	if _, err := e.EstimateScans(ctx, lattice.ID(9999), []int{0}); err == nil {
		t.Fatalf("out-of-range group-by estimate: expected error")
	}
	if _, err := e.EstimateScans(ctx, lat.Top(), []int{7}); err == nil {
		t.Fatalf("out-of-range chunk estimate: expected error")
	}
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
