package chunk_test

import (
	"math"
	"math/rand"
	"testing"

	"aggcache/internal/apb"
	"aggcache/internal/chunk"
	"aggcache/internal/chunk/chunktest"
	"aggcache/internal/lattice"
)

func apbGrid(t testing.TB) *chunk.Grid {
	t.Helper()
	cfg := apb.New(apb.ScaleSmall)
	g, err := chunk.NewGrid(cfg.Schema, cfg.ChunkCounts)
	if err != nil {
		t.Fatalf("APB grid: %v", err)
	}
	return g
}

// TestAncestorOffsetsMatchDimAncestor checks every entry of the
// per-dimension roll-up tables against the schema: the level-dl ancestor of
// member m, as an offset inside the chunk that holds it.
func TestAncestorOffsetsMatchDimAncestor(t *testing.T) {
	for name, g := range map[string]*chunk.Grid{"apb": apbGrid(t), "star": chunktest.StarGrid()} {
		sch := g.Schema()
		var entries int64
		for d := 0; d < sch.NumDims(); d++ {
			dim := sch.Dim(d)
			for sl := 0; sl <= dim.Hierarchy(); sl++ {
				for dl := 0; dl <= sl; dl++ {
					for m := int32(0); int(m) < dim.Card(sl); m++ {
						a := dim.Ancestor(sl, dl, m)
						want := a - g.MemberRange(d, dl, g.ChunkOfMember(d, dl, a)).Lo
						if got := g.AncestorOffset(d, sl, dl, m); got != uint32(want) {
							t.Fatalf("%s: dim %s member %d, level %d -> %d: table says offset %d, Dim.Ancestor %d",
								name, dim.Name(), m, sl, dl, got, want)
						}
						entries++
					}
				}
			}
		}
		if got := g.MapperBytes(); got != entries*4 {
			t.Fatalf("%s: mapper footprint %d B, want %d entries x 4 B", name, got, entries)
		}
	}
}

// TestFlattenedRollUpMatchesHopByHop is the executor's licence to skip
// interior plan nodes: for random (leaf set, destination) pairs, rolling the
// leaves straight into the destination chunk gives the same chunk as
// materializing every lattice level in between along a random path — cell
// for cell, counts exactly, sums within 1e-9 relative (the two orders add
// the same floats in different groupings).
func TestFlattenedRollUpMatchesHopByHop(t *testing.T) {
	for name, g := range map[string]*chunk.Grid{"apb": apbGrid(t), "star": chunktest.StarGrid()} {
		lat := g.Lattice()
		rng := rand.New(rand.NewSource(20000612))
		multiHop := 0
		for trial := 0; trial < 300; trial++ {
			// A destination chunk, and a leaf group-by at or above it on
			// every dimension.
			dstGB := lattice.ID(rng.Intn(lat.NumNodes()))
			dstNum := rng.Intn(g.NumChunks(dstGB))
			lv := append([]int(nil), lat.Level(dstGB)...)
			for d := range lv {
				lv[d] += rng.Intn(g.Schema().Dim(d).Hierarchy() - lv[d] + 1)
			}
			leafGB := lat.MustID(lv...)

			// A random subset of the covering leaf chunks, randomly filled.
			var leaves []*chunk.Chunk
			for _, num := range g.AncestorChunks(dstGB, dstNum, leafGB, nil) {
				if rng.Intn(4) == 0 {
					continue
				}
				cm := g.NewCellMap(leafGB, num)
				capacity := g.CellCapacity(leafGB, num)
				for i := rng.Intn(40); i > 0; i-- {
					cm.AddCell(uint64(rng.Int63n(capacity)), rng.NormFloat64()*1e3, 1+rng.Int63n(9))
				}
				leaves = append(leaves, cm.Build(leafGB, num))
			}

			flat := g.NewCellMap(dstGB, dstNum)
			for _, src := range leaves {
				if _, err := g.RollUpInto(flat, dstGB, dstNum, src); err != nil {
					t.Fatalf("%s trial %d: flattened roll-up: %v", name, trial, err)
				}
			}
			got := flat.Build(dstGB, dstNum)

			// Hop by hop: one lattice step at a time on a random dimension,
			// building every chunk of every level on the way.
			level, hops := leaves, 0
			for cur := leafGB; cur != dstGB; hops++ {
				var steps []lattice.ID
				for _, ch := range lat.Children(cur) {
					if lat.ComputableFrom(dstGB, ch) {
						steps = append(steps, ch)
					}
				}
				next := steps[rng.Intn(len(steps))]
				maps := make(map[int]*chunk.CellMap)
				for _, src := range level {
					num := g.ChildChunk(cur, int(src.Num), next)
					if maps[num] == nil {
						maps[num] = g.NewCellMap(next, num)
					}
					if _, err := g.RollUpInto(maps[num], next, num, src); err != nil {
						t.Fatalf("%s trial %d: hop roll-up: %v", name, trial, err)
					}
				}
				level = level[:0:0]
				for num := 0; num < g.NumChunks(next); num++ { // in order: the run is reproducible
					if cm := maps[num]; cm != nil {
						level = append(level, cm.Build(next, num))
					}
				}
				cur = next
			}
			if hops > 1 {
				multiHop++
			}
			want := &chunk.Chunk{GB: dstGB, Num: int32(dstNum)} // no leaf drawn: the empty chunk
			if len(level) == 1 {
				want = level[0]
			}
			if len(level) > 1 || want.GB != dstGB || int(want.Num) != dstNum {
				t.Fatalf("%s trial %d: hop-by-hop ended in %d chunks at %v, want chunk %d of gb %d",
					name, trial, len(level), want, dstNum, dstGB)
			}

			if got.Cells() != want.Cells() {
				t.Fatalf("%s trial %d (%s -> %s, %d hops): flattened %d cells, hop-by-hop %d",
					name, trial, lat.LevelTupleString(leafGB), lat.LevelTupleString(dstGB), hops, got.Cells(), want.Cells())
			}
			for i, key := range want.Keys {
				if got.Keys[i] != key || got.Counts[i] != want.Counts[i] {
					t.Fatalf("%s trial %d cell %d: flattened (key %d, count %d), hop-by-hop (key %d, count %d)",
						name, trial, i, got.Keys[i], got.Counts[i], key, want.Counts[i])
				}
				if d := math.Abs(got.Vals[i] - want.Vals[i]); d > 1e-9*math.Max(math.Abs(want.Vals[i]), 1) {
					t.Fatalf("%s trial %d cell %d: flattened sum %v, hop-by-hop %v", name, trial, key, got.Vals[i], want.Vals[i])
				}
			}
		}
		if multiHop < 100 {
			t.Fatalf("%s: only %d of 300 trials crossed more than one lattice level", name, multiHop)
		}
	}
}

// TestRowKeyerMatchesChunkOfCell is the row keyer's property: for every
// computable (source, destination) pair of group-bys and random rows at the
// source's levels, the table-driven key equals the reference derivation —
// map each member to its ancestor through the schema, then ChunkOfCell — for
// whichever destination chunk the row's ancestors fall in.
func TestRowKeyerMatchesChunkOfCell(t *testing.T) {
	for name, g := range map[string]*chunk.Grid{"apb": apbGrid(t), "star": chunktest.StarGrid()} {
		sch, lat := g.Schema(), g.Lattice()
		nd := sch.NumDims()
		rng := rand.New(rand.NewSource(21))
		const rows = 64
		cols := make([][]int32, nd)
		for d := range cols {
			cols[d] = make([]int32, rows)
		}
		anc := make([]int32, nd)
		keys := make([]uint64, 1)
		pairs := 0
		for src := lattice.ID(0); int(src) < lat.NumNodes(); src++ {
			for d := range cols {
				card := sch.Dim(d).Card(lat.LevelAt(src, d))
				for r := range cols[d] {
					cols[d][r] = int32(rng.Intn(card))
				}
			}
			for dst := lattice.ID(0); int(dst) < lat.NumNodes(); dst++ {
				var k chunk.RowKeyer
				if !lat.ComputableFrom(dst, src) {
					if k.Compose(g, dst, 0, src) == nil {
						t.Fatalf("%s: keyer composed for %s from %s, which cannot compute it",
							name, lat.LevelTupleString(dst), lat.LevelTupleString(src))
					}
					continue
				}
				pairs++
				for r := 0; r < rows; r++ {
					for d := range anc {
						anc[d] = sch.Dim(d).Ancestor(lat.LevelAt(src, d), lat.LevelAt(dst, d), cols[d][r])
					}
					num, want := g.ChunkOfCell(dst, anc)
					if err := k.Compose(g, dst, num, src); err != nil {
						t.Fatalf("%s: Compose: %v", name, err)
					}
					if k.Keys(keys, cols, r); keys[0] != want {
						t.Fatalf("%s: %s -> %s chunk %d, row %d: keyer says %d, ChunkOfCell %d",
							name, lat.LevelTupleString(src), lat.LevelTupleString(dst), num, r, keys[0], want)
					}
				}
			}
		}
		if pairs < lat.NumNodes() {
			t.Fatalf("%s: only %d computable pairs exercised", name, pairs)
		}
		var k chunk.RowKeyer
		if k.Compose(g, lat.Top(), 1, lat.Base()) == nil || k.Compose(g, lat.Top(), -1, lat.Base()) == nil {
			t.Fatalf("%s: keyer composed for a chunk that does not exist", name)
		}
	}
}
