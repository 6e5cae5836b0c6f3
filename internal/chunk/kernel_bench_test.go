package chunk

import (
	"fmt"
	"testing"

	"aggcache/internal/lattice"
)

// kernelFixture builds the shared micro-benchmark fixture: a fully populated
// base chunk plus the destination chunk coordinates one roll-up step above
// it. The grid is the same one the kernel unit tests use.
type kernelFixture struct {
	g      *Grid
	src    *Chunk     // base chunk 0, all 64 cells populated
	dstGB  lattice.ID // (Group, Store, Year) — 16-cell destination chunks
	dstNum int
}

func newKernelFixture(b testing.TB) *kernelFixture {
	g := rollupTestGrid(b)
	lat := g.Lattice()
	base := lat.Base()
	cm := NewCellMap()
	cap := g.CellCapacity(base, 0)
	for k := uint64(0); k < uint64(cap); k++ {
		cm.Add(k, float64(k%7+1))
	}
	src := cm.Build(base, 0)
	dstGB := lat.MustID(1, 1, 1)
	dstNum := descendantChunk(g, base, 0, dstGB)
	return &kernelFixture{g: g, src: src, dstGB: dstGB, dstNum: dstNum}
}

// BenchmarkRollUpInto measures one roll-up of a dense 64-cell base chunk
// into its 16-cell destination — the aggregation kernel's unit of work.
// Allocations per op cover mapper composition plus key translation.
func BenchmarkRollUpInto(b *testing.B) {
	f := newKernelFixture(b)
	cm := f.g.NewCellMap(f.dstGB, f.dstNum)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.g.RollUpInto(cm, f.dstGB, f.dstNum, f.src); err != nil {
			b.Fatalf("RollUpInto: %v", err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*f.src.Cells()), "ns/tuple")
}

// BenchmarkCodecDecode measures decoding the same dense 64-cell base chunk
// from the cold tier's encoding, the work a cold read pays per cell. Its
// ns/cell over RollUpInto's ns/tuple is the decode-to-scan factor the
// store prices cold decodes with (cache.decodeCost).
func BenchmarkCodecDecode(b *testing.B) {
	f := newKernelFixture(b)
	enc := AppendPayload(nil, f.src)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodePayload(f.src.GB, f.src.Num, enc); err != nil {
			b.Fatalf("DecodePayload: %v", err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*f.src.Cells()), "ns/cell")
}

// BenchmarkRollUpIntoWide is RollUpInto against the top chunk: every source
// cell collapses into one destination cell (the all-identity-dims extreme).
func BenchmarkRollUpIntoWide(b *testing.B) {
	f := newKernelFixture(b)
	top := f.g.Lattice().Top()
	cm := f.g.NewCellMap(top, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.g.RollUpInto(cm, top, 0, f.src); err != nil {
			b.Fatalf("RollUpInto: %v", err)
		}
	}
}

// BenchmarkCellMapBuild measures the pooled accumulate-then-build cycle:
// obtain an accumulator, add the source cells, emit them into a reused
// chunk, release the accumulator.
func BenchmarkCellMapBuild(b *testing.B) {
	f := newKernelFixture(b)
	var scratch Chunk
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cm := f.g.GetCellMap(f.dstGB, f.dstNum)
		for k := uint64(0); k < 16; k++ {
			cm.AddCell(k, float64(k), 1)
		}
		if c := cm.BuildInto(f.dstGB, f.dstNum, &scratch); c.Cells() != 16 {
			b.Fatalf("built %d cells, want 16", c.Cells())
		}
		PutCellMap(cm)
	}
}

// BenchmarkCellMapSweepSparse measures the two bitmap sweeps of a dense
// accumulator — BuildInto then Reset — at 1/64, 1/8 and full occupancy of a
// 4096-slot chunk. The sweeps visit set bits only, so the cost should track
// the cell count, not the slot count.
func BenchmarkCellMapSweepSparse(b *testing.B) {
	const slots = 4096
	for _, every := range []int{64, 8, 1} {
		b.Run(fmt.Sprintf("1of%d", every), func(b *testing.B) {
			var cm CellMap
			cm.prepare(slots)
			var scratch Chunk
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := 0; k < slots; k += every {
					cm.AddCell(uint64(k), 1, 1)
				}
				if c := cm.BuildInto(0, 0, &scratch); c.Cells() != slots/every {
					b.Fatalf("built %d cells, want %d", c.Cells(), slots/every)
				}
				cm.Reset()
			}
		})
	}
}

// flattenFixture is a 3-hop roll-up path over the kernel fixture's grid:
// every chunk of the base group-by (Code, Store, Month) that falls in chunk
// 0 of (Group, ALL, ALL), fully populated, and the hops between them.
type flattenFixture struct {
	g      *Grid
	leaves []*Chunk
	path   []lattice.ID // base → … → destination, one lattice step each
}

func newFlattenFixture(b testing.TB) *flattenFixture {
	g := rollupTestGrid(b)
	lat := g.Lattice()
	base := lat.Base()
	f := &flattenFixture{g: g, path: []lattice.ID{base, lat.MustID(1, 1, 2), lat.MustID(1, 0, 2), lat.MustID(1, 0, 1)}}
	for _, num := range g.AncestorChunks(f.path[3], 0, base, nil) {
		cm := g.NewCellMap(base, num)
		for k := int64(0); k < g.CellCapacity(base, num); k++ {
			cm.Add(uint64(k), float64(k%7+1))
		}
		f.leaves = append(f.leaves, cm.Build(base, num))
	}
	return f
}

// rollUpHopByHop is the executor this package's callers used before leaf →
// root flattening, kept as the reference: every level of the path is
// materialized from the chunks of the level above, then thrown away.
func (f *flattenFixture) rollUpHopByHop(b testing.TB) *Chunk {
	level := f.leaves
	for _, gb := range f.path[1:] {
		maps := make(map[int]*CellMap)
		for _, src := range level {
			num := descendantChunk(f.g, src.GB, int(src.Num), gb)
			if maps[num] == nil {
				maps[num] = f.g.GetCellMap(gb, num)
			}
			if _, err := f.g.RollUpInto(maps[num], gb, num, src); err != nil {
				b.Fatalf("hop roll-up: %v", err)
			}
		}
		level = level[:0:0]
		for num := 0; num < f.g.NumChunks(gb); num++ {
			if cm := maps[num]; cm != nil {
				level = append(level, cm.Build(gb, num))
				PutCellMap(cm)
			}
		}
	}
	return level[0]
}

// rollUpFlattened folds every leaf straight into the destination chunk.
func (f *flattenFixture) rollUpFlattened(b testing.TB) *Chunk {
	dst := f.path[len(f.path)-1]
	cm := f.g.GetCellMap(dst, 0)
	defer PutCellMap(cm)
	for _, src := range f.leaves {
		if _, err := f.g.RollUpInto(cm, dst, 0, src); err != nil {
			b.Fatalf("flattened roll-up: %v", err)
		}
	}
	return cm.Build(dst, 0)
}

// BenchmarkRollUpFlattened compares the two ways of answering a chunk three
// lattice steps below its cached inputs; both produce the same chunk.
func BenchmarkRollUpFlattened(b *testing.B) {
	f := newFlattenFixture(b)
	want, got := f.rollUpHopByHop(b), f.rollUpFlattened(b)
	if got.Cells() != want.Cells() || got.Total() != want.Total() || got.Rows() != want.Rows() {
		b.Fatalf("flattened %v/%v/%d, hop-by-hop %v/%v/%d", got, got.Total(), got.Rows(), want, want.Total(), want.Rows())
	}
	b.Run("flattened", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f.rollUpFlattened(b)
		}
	})
	b.Run("hop-by-hop", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f.rollUpHopByHop(b)
		}
	})
}

// BenchmarkCellMapBuildFresh is the BenchmarkCellMapBuild cycle without
// pooling — what retained results (Build) pay by design.
func BenchmarkCellMapBuildFresh(b *testing.B) {
	f := newKernelFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cm := f.g.NewCellMap(f.dstGB, f.dstNum)
		for k := uint64(0); k < 16; k++ {
			cm.AddCell(k, float64(k), 1)
		}
		c := cm.Build(f.dstGB, f.dstNum)
		if c.Cells() != 16 {
			b.Fatalf("built %d cells, want 16", c.Cells())
		}
	}
}

// BenchmarkGridSlice measures trimming a 64-cell chunk to a half-region.
func BenchmarkGridSlice(b *testing.B) {
	f := newKernelFixture(b)
	ranges := []Range{{0, 2}, {0, 4}, {0, 4}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := f.g.Slice(f.src, ranges)
		if out.Cells() == 0 {
			b.Fatalf("empty slice")
		}
	}
}

// BenchmarkGridSliceFull measures the no-trim case: every cell inside the
// requested ranges.
func BenchmarkGridSliceFull(b *testing.B) {
	f := newKernelFixture(b)
	ranges := []Range{{0, 4}, {0, 4}, {0, 4}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := f.g.Slice(f.src, ranges)
		if out.Cells() != f.src.Cells() {
			b.Fatalf("full slice dropped cells")
		}
	}
}
