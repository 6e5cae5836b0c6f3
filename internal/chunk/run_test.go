package chunk_test

import (
	"testing"

	"aggcache/internal/apb"
	"aggcache/internal/chunk"
	"aggcache/internal/chunk/chunktest"
	"aggcache/internal/lattice"
)

// refParents enumerates the parent chunks of (gb, num) along dimension d the
// long way: decode the coordinates, walk the dimension's parent range,
// re-encode each at the parent group-by.
func refParents(g *chunk.Grid, gb lattice.ID, num, d int, parent lattice.ID) []int {
	coords := g.Coords(gb, num, nil)
	r := g.DimParentRange(d, g.Lattice().LevelAt(gb, d), coords[d])
	var out []int
	for c := r.Lo; c < r.Hi; c++ {
		coords[d] = c
		out = append(out, g.Number(parent, coords))
	}
	return out
}

// refChild is the coordinate-decoding ChildStep.
func refChild(g *chunk.Grid, gb lattice.ID, num, d int, child lattice.ID) int {
	coords := g.Coords(gb, num, nil)
	coords[d] = g.DimChildChunk(d, g.Lattice().LevelAt(gb, d), coords[d])
	return g.Number(child, coords)
}

// TestRunFormMatchesCoordinates checks, for every (gb, num, parent) and
// (gb, num, child) of the APB small grid and the ragged star grid, that the
// run-form parent enumeration and the dimension-known child step agree with
// ParentChunks/ChildChunk and with a coordinate-decoding reference.
func TestRunFormMatchesCoordinates(t *testing.T) {
	cfg := apb.New(apb.ScaleSmall)
	small := chunk.MustNewGrid(cfg.Schema, cfg.ChunkCounts)
	for name, g := range map[string]*chunk.Grid{"apb-small": small, "star": chunktest.StarGrid()} {
		lat := g.Lattice()
		var buf []int
		for gb := lattice.ID(0); int(gb) < lat.NumNodes(); gb++ {
			pdims, cdims := lat.ParentDims(gb), lat.ChildDims(gb)
			for num := 0; num < g.NumChunks(gb); num++ {
				for i, parent := range lat.Parents(gb) {
					d := int(pdims[i])
					r := g.ParentRun(gb, num, d)
					want := refParents(g, gb, num, d, parent)
					buf = g.ParentChunks(gb, num, parent, buf[:0])
					if r.N != len(want) || len(buf) != len(want) {
						t.Fatalf("%s %s#%d → %s: run %+v, ParentChunks %v, want %v",
							name, lat.LevelTupleString(gb), num, lat.LevelTupleString(parent), r, buf, want)
					}
					for j, w := range want {
						if r.At(j) != w || buf[j] != w {
							t.Fatalf("%s %s#%d → %s: element %d: run %d, ParentChunks %d, want %d",
								name, lat.LevelTupleString(gb), num, lat.LevelTupleString(parent), j, r.At(j), buf[j], w)
						}
					}
				}
				for i, child := range lat.Children(gb) {
					d := int(cdims[i])
					want := refChild(g, gb, num, d, child)
					if got := g.ChildStep(gb, num, d); got != want {
						t.Fatalf("%s %s#%d → %s: ChildStep %d, want %d",
							name, lat.LevelTupleString(gb), num, lat.LevelTupleString(child), got, want)
					}
					if got := g.ChildChunk(gb, num, child); got != want {
						t.Fatalf("%s %s#%d → %s: ChildChunk %d, want %d",
							name, lat.LevelTupleString(gb), num, lat.LevelTupleString(child), got, want)
					}
				}
			}
		}
	}
}
