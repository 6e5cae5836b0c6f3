package backend

import (
	"context"
	"testing"
	"time"

	"aggcache/internal/apb"
	"aggcache/internal/chunk"
	"aggcache/internal/data"
	"aggcache/internal/lattice"
)

func tinyEngine(t testing.TB, latency LatencyModel) (*Engine, *data.Table) {
	t.Helper()
	cfg := apb.New(apb.ScaleTiny)
	g, tab, err := cfg.Build(5)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	e, err := NewEngine(g, tab, latency)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	return e, tab
}

// directAggregate computes the expected cells of one chunk by a full scan of
// the raw table.
func directAggregate(g *chunk.Grid, tab *data.Table, gb lattice.ID, num int) map[uint64]float64 {
	sch := g.Schema()
	lat := g.Lattice()
	lv := lat.Level(gb)
	nd := sch.NumDims()
	want := make(map[uint64]float64)
	mapped := make([]int32, nd)
	for i := 0; i < tab.Len(); i++ {
		row := tab.Row(i)
		for d := 0; d < nd; d++ {
			dim := sch.Dim(d)
			mapped[d] = dim.Ancestor(dim.Hierarchy(), lv[d], row[d])
		}
		n, key := g.ChunkOfCell(gb, mapped)
		if n == num {
			want[key] += tab.Value(i)
		}
	}
	return want
}

func TestEngineMatchesDirectAggregation(t *testing.T) {
	e, tab := tinyEngine(t, LatencyModel{})
	g := e.Grid()
	lat := g.Lattice()
	for id := lattice.ID(0); int(id) < lat.NumNodes(); id++ {
		nums := make([]int, g.NumChunks(id))
		for i := range nums {
			nums[i] = i
		}
		chunks, stats, err := e.ComputeChunks(context.Background(), id, nums)
		if err != nil {
			t.Fatalf("ComputeChunks(%s): %v", lat.LevelTupleString(id), err)
		}
		if len(chunks) != len(nums) {
			t.Fatalf("got %d chunks, want %d", len(chunks), len(nums))
		}
		var cells int64
		for i, c := range chunks {
			if c == nil {
				t.Fatalf("nil chunk %d", i)
			}
			want := directAggregate(g, tab, id, i)
			if c.Cells() != len(want) {
				t.Fatalf("gb %s chunk %d: %d cells, want %d", lat.LevelTupleString(id), i, c.Cells(), len(want))
			}
			for j, key := range c.Keys {
				// Summation order differs between the engine and the oracle;
				// allow float rounding slack.
				if diff := want[key] - c.Vals[j]; diff > 1e-6 || diff < -1e-6 {
					t.Fatalf("gb %s chunk %d cell %d: %v, want %v", lat.LevelTupleString(id), i, key, c.Vals[j], want[key])
				}
			}
			cells += int64(c.Cells())
		}
		if stats.ResultCells != cells {
			t.Fatalf("stats.ResultCells = %d, want %d", stats.ResultCells, cells)
		}
	}
}

func TestEngineScanIsClusteredPerChunk(t *testing.T) {
	e, tab := tinyEngine(t, LatencyModel{})
	g := e.Grid()
	lat := g.Lattice()
	base := lat.Base()
	// Requesting a single base chunk must scan only its own rows, not the
	// whole table — that is the point of the clustered index.
	chunks, stats, err := e.ComputeChunks(context.Background(), base, []int{0})
	if err != nil {
		t.Fatalf("ComputeChunks: %v", err)
	}
	if stats.TuplesScanned >= int64(tab.Len()) {
		t.Fatalf("scanned %d tuples for one base chunk of a %d-row table", stats.TuplesScanned, tab.Len())
	}
	if stats.TuplesScanned != int64(chunks[0].Cells()) {
		t.Fatalf("base chunk scan %d tuples but produced %d cells", stats.TuplesScanned, chunks[0].Cells())
	}
	// Requesting the top chunk scans everything exactly once.
	_, stats, err = e.ComputeChunks(context.Background(), lat.Top(), []int{0})
	if err != nil {
		t.Fatalf("ComputeChunks(top): %v", err)
	}
	if stats.TuplesScanned != int64(tab.Len()) {
		t.Fatalf("top chunk scanned %d, want %d", stats.TuplesScanned, tab.Len())
	}
}

func TestEngineLatencyModel(t *testing.T) {
	m := LatencyModel{Connect: time.Millisecond, PerTuple: time.Microsecond}
	e, tab := tinyEngine(t, m)
	_, stats, err := e.ComputeChunks(context.Background(), e.Grid().Lattice().Top(), []int{0})
	if err != nil {
		t.Fatalf("ComputeChunks: %v", err)
	}
	want := time.Millisecond + time.Duration(tab.Len())*time.Microsecond
	if stats.Sim != want {
		t.Fatalf("Sim = %v, want %v", stats.Sim, want)
	}
	if stats.Cost() < stats.Sim {
		t.Fatalf("Cost %v below Sim %v", stats.Cost(), stats.Sim)
	}
}

func TestEngineErrors(t *testing.T) {
	e, _ := tinyEngine(t, LatencyModel{})
	if _, _, err := e.ComputeChunks(context.Background(), lattice.ID(9999), []int{0}); err == nil {
		t.Errorf("out-of-range group-by: expected error")
	}
	if _, _, err := e.ComputeChunks(context.Background(), e.Grid().Lattice().Top(), []int{5}); err == nil {
		t.Errorf("out-of-range chunk: expected error")
	}
	if err := e.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// TestWholeGroupByTotalsMatchTable: every chunk of a group-by, computed in
// one request, sums to the fact table's total.
func TestWholeGroupByTotalsMatchTable(t *testing.T) {
	e, tab := tinyEngine(t, LatencyModel{})
	lat := e.Grid().Lattice()
	var tableTotal float64
	for i := 0; i < tab.Len(); i++ {
		tableTotal += tab.Value(i)
	}
	for _, id := range []lattice.ID{lat.Base(), lat.Top(), lattice.ID(3)} {
		chunks, _, err := e.ComputeChunks(context.Background(), id, allChunkNums(e.Grid(), id))
		if err != nil {
			t.Fatalf("ComputeChunks: %v", err)
		}
		var total float64
		for _, c := range chunks {
			total += c.Total()
		}
		if diff := total - tableTotal; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("gb %s total %v, want %v", lat.LevelTupleString(id), total, tableTotal)
		}
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{TuplesScanned: 1, ResultCells: 2, Sim: 3, Wall: 4}
	a.Add(Stats{TuplesScanned: 10, ResultCells: 20, Sim: 30, Wall: 40})
	if a.TuplesScanned != 11 || a.ResultCells != 22 || a.Sim != 33 || a.Wall != 44 {
		t.Fatalf("Add = %+v", a)
	}
}
