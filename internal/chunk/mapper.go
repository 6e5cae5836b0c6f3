package chunk

import (
	"fmt"

	"aggcache/internal/lattice"
)

// buildAncestorOffsets tabulates, for dimension d, every member's ancestor
// at every more aggregated level as an offset inside that ancestor's chunk:
// ancOff[d][sl][dl][m] = a − MemberRange(d, dl, chunk of a).Lo, where a is
// the level-dl ancestor of member m of level sl (dl ≤ sl). These tables are
// the whole roll-up translation state of a Grid: Σ_d levels_d² · members_d
// uint32s, built once in NewGrid, immutable afterwards and therefore read
// without a lock. A chunk-to-chunk mapper is a window [sr.Lo, sr.Hi) into one
// table per dimension, composed on the stack per RollUpInto call; a RowKeyer
// (the backend scan) uses the same tables whole.
func (g *Grid) buildAncestorOffsets(d int) {
	dim := g.sch.Dim(d)
	h := dim.Hierarchy()
	g.ancOff[d] = make([][][]uint32, h+1)
	for sl := 0; sl <= h; sl++ {
		g.ancOff[d][sl] = make([][]uint32, sl+1)
		for dl := 0; dl <= sl; dl++ {
			tab := make([]uint32, dim.Card(sl))
			for m := range tab {
				a := dim.Ancestor(sl, dl, int32(m))
				tab[m] = uint32(a - g.starts[d][dl][g.chunkOf[d][dl][a]])
			}
			g.ancOff[d][sl][dl] = tab
		}
	}
}

// maxDims bounds a schema's dimension count so a rollUpMapper has a fixed
// size and can live on the stack; NewGrid rejects wider schemas.
const maxDims = 16

// rollUpMapper is the key translation for rolling one source chunk's cells
// up into a destination chunk at any descendant (more aggregated) group-by.
// It lives on the caller's stack: composing one is O(dims) and allocates
// nothing.
//
//   - copyThrough: the source and destination cell spaces coincide (same
//     levels on every dimension the chunk spans more than one member of), so
//     keys pass through untouched;
//   - otherwise: per-dimension decode restricted to the n non-trivial
//     dimensions (source span > 1), least-significant first, with the
//     constant contribution of span-1 dimensions folded into base.
type rollUpMapper struct {
	copyThrough bool
	n           int
	base        uint64
	spans       [maxDims]uint64   // source spans of non-trivial dims
	strides     [maxDims]uint64   // destination strides of those dims
	tables      [maxDims][]uint32 // tables[j][srcOff] = destination offset
}

// compose fills m with the translation from chunk srcNum of srcGB into chunk
// dstNum of dstGB, verifying that dstGB is computable from srcGB and that
// the source chunk lies inside the destination chunk's region.
func (m *rollUpMapper) compose(g *Grid, dstGB lattice.ID, dstNum int, srcGB lattice.ID, srcNum int) error {
	if !g.lat.ComputableFrom(dstGB, srcGB) {
		return fmt.Errorf("chunk: group-by %s is not computable from %s",
			g.lat.LevelTupleString(dstGB), g.lat.LevelTupleString(srcGB))
	}
	var sbuf, dbuf [maxDims]int32
	srcCoords := g.Coords(srcGB, srcNum, sbuf[:0])
	dstCoords := g.Coords(dstGB, dstNum, dbuf[:0])
	srcLv, dstLv := g.lat.Level(srcGB), g.lat.Level(dstGB)
	m.copyThrough, m.n, m.base = true, 0, 0
	stride := uint64(1)
	for d := len(srcCoords) - 1; d >= 0; d-- {
		sl, dl := srcLv[d], dstLv[d]
		c := srcCoords[d]
		for l := sl; l > dl; l-- {
			c = g.childChunk[d][l][c]
		}
		if c != dstCoords[d] {
			return fmt.Errorf("chunk: source chunk %d of %s does not fall in chunk %d of %s",
				srcNum, g.lat.LevelTupleString(srcGB), dstNum, g.lat.LevelTupleString(dstGB))
		}
		sr := g.MemberRange(d, sl, srcCoords[d])
		dstSpan := uint64(g.MemberRange(d, dl, c).Len())
		tab := g.ancOff[d][sl][dl][sr.Lo:sr.Hi]
		if len(tab) == 1 {
			m.base += uint64(tab[0]) * stride
		} else {
			m.spans[m.n], m.strides[m.n], m.tables[m.n] = uint64(len(tab)), stride, tab
			m.n++
		}
		if sl != dl && (len(tab) != 1 || dstSpan != 1) {
			m.copyThrough = false
		}
		stride *= dstSpan
	}
	return nil
}

// RowKeyer is the key translation for aggregating relation rows — member ids
// at a source group-by's levels, stored one column per dimension — into one
// destination chunk at any descendant group-by: the backend scan's
// counterpart of rollUpMapper and the second consumer of ancOff. Rows carry
// absolute members rather than offsets inside a source chunk, so the tables
// are used whole (no window) and one keyer serves every source run feeding
// the destination chunk. Like rollUpMapper it is composed on the caller's
// stack in O(dims) with no lock and no allocation.
//
// Only the n dimensions the destination chunk spans more than one member of
// take part: every ancestor offset on a span-1 dimension (each ALL-level
// dimension of an aggregated group-by) is zero.
type RowKeyer struct {
	n       int
	dims    [maxDims]int      // column of each participating dimension
	strides [maxDims]uint64   // destination strides of those dimensions
	tables  [maxDims][]uint32 // tables[j][member] = destination offset
}

// Compose fills k with the translation from rows at srcGB's levels into
// chunk dstNum of dstGB, verifying that dstGB is computable from srcGB and
// that the chunk exists.
func (k *RowKeyer) Compose(g *Grid, dstGB lattice.ID, dstNum int, srcGB lattice.ID) error {
	if !g.lat.ComputableFrom(dstGB, srcGB) {
		return fmt.Errorf("chunk: group-by %s is not computable from %s",
			g.lat.LevelTupleString(dstGB), g.lat.LevelTupleString(srcGB))
	}
	if dstNum < 0 || dstNum >= g.numChunks[dstGB] {
		return fmt.Errorf("chunk: chunk %d of group-by %s out of range", dstNum, g.lat.LevelTupleString(dstGB))
	}
	var cbuf [maxDims]int32
	coords := g.Coords(dstGB, dstNum, cbuf[:0])
	srcLv, dstLv := g.lat.Level(srcGB), g.lat.Level(dstGB)
	k.n = 0
	stride := uint64(1)
	for d := len(coords) - 1; d >= 0; d-- {
		span := uint64(g.MemberRange(d, dstLv[d], coords[d]).Len())
		if span > 1 {
			k.dims[k.n], k.strides[k.n], k.tables[k.n] = d, stride, g.ancOff[d][srcLv[d]][dstLv[d]]
			k.n++
		}
		stride *= span
	}
	return nil
}

// Keys sets keys[i] to the destination cell key of row lo+i, where
// cols[d][r] is row r's member of dimension d: one pass per participating
// dimension, each adding table[member]·stride. A row whose ancestors fall
// outside the destination chunk is keyed as the cell at the same offsets
// inside it; feeding only rows of the chunk's region is the caller's job.
func (k *RowKeyer) Keys(keys []uint64, cols [][]int32, lo int) {
	if k.n == 0 {
		clear(keys)
		return
	}
	for j := 0; j < k.n; j++ {
		col := cols[k.dims[j]][lo : lo+len(keys)]
		tab, stride := k.tables[j], k.strides[j]
		if j == 0 { // the first pass stores: ~1 ns/tuple cheaper than clear + add
			for i, m := range col {
				keys[i] = uint64(tab[m]) * stride
			}
			continue
		}
		for i, m := range col {
			keys[i] += uint64(tab[m]) * stride
		}
	}
}
