// Package chunk implements chunk-based organization of multidimensional data
// (§2 of the paper, following [DRSN98]).
//
// The distinct members of every dimension level are divided into contiguous
// ranges; the cross product of those ranges partitions each group-by's space
// into chunks. The grid is built so that the *closure property* holds: every
// chunk at an aggregated level corresponds exactly to a whole, contiguous run
// of chunks at the next more detailed level. This is what lets a chunk be
// computed by aggregating a well-defined set of more detailed chunks.
package chunk

import (
	"fmt"
	"slices"

	"aggcache/internal/lattice"
	"aggcache/internal/schema"
)

// Range is a half-open interval [Lo, Hi) of chunk or member indexes.
type Range struct{ Lo, Hi int32 }

// Len returns the number of indexes in the range.
func (r Range) Len() int { return int(r.Hi - r.Lo) }

// Grid is the chunking of a schema: per dimension and per hierarchy level, a
// division of the members into contiguous chunk ranges, aligned across
// levels so that the closure property holds. A Grid is immutable after
// NewGrid, so every method is safe for concurrent use without locking.
type Grid struct {
	sch *schema.Schema
	lat *lattice.Lattice
	// counts[d][l] = number of chunks of dimension d at level l.
	counts [][]int
	// starts[d][l] has counts[d][l]+1 member boundaries; chunk c covers
	// members [starts[c], starts[c+1]).
	starts [][][]int32
	// chunkOf[d][l][m] = chunk index containing member m.
	chunkOf [][][]int32
	// parentRange[d][l][c] = run of chunks at level l+1 that chunk c at level
	// l maps to. parentRange[d][h] is nil.
	parentRange [][][]Range
	// childChunk[d][l][c] = chunk at level l-1 containing chunk c of level l.
	// childChunk[d][0] is nil.
	childChunk [][][]int32
	// chunkStrides[gb] = row-major strides over per-dimension chunk counts.
	chunkStrides [][]int
	// numChunks[gb] = total chunks of group-by gb.
	numChunks []int
	// ancOff[d][sl][dl][m] = offset, inside its chunk, of the level-dl
	// ancestor of member m of level sl (dl ≤ sl) — the roll-up key
	// translation, see buildAncestorOffsets.
	ancOff [][][][]uint32
}

// NewGrid builds a grid with counts[d][l] chunks for dimension d at level l.
// Requirements, checked with descriptive errors:
//   - counts[d][0] == 1 and counts are non-decreasing with level;
//   - counts[d][l] ≤ the level's cardinality;
//   - chunk boundaries can be aligned with hierarchy boundaries (closure).
//
// Base-level chunk boundaries split the members as evenly as possible; at
// each aggregated level, boundaries are chosen among the detail boundaries
// that coincide with a parent-member change, spread as evenly as possible.
func NewGrid(sch *schema.Schema, counts [][]int) (*Grid, error) {
	if len(counts) != sch.NumDims() {
		return nil, fmt.Errorf("chunk: counts has %d dimensions, want %d", len(counts), sch.NumDims())
	}
	if sch.NumDims() > maxDims {
		return nil, fmt.Errorf("chunk: schema has %d dimensions, at most %d are supported", sch.NumDims(), maxDims)
	}
	g := &Grid{
		sch:         sch,
		lat:         lattice.New(sch),
		counts:      make([][]int, sch.NumDims()),
		starts:      make([][][]int32, sch.NumDims()),
		chunkOf:     make([][][]int32, sch.NumDims()),
		parentRange: make([][][]Range, sch.NumDims()),
		childChunk:  make([][][]int32, sch.NumDims()),
		ancOff:      make([][][][]uint32, sch.NumDims()),
	}
	for d := 0; d < sch.NumDims(); d++ {
		if err := g.buildDim(d, counts[d]); err != nil {
			return nil, err
		}
		g.buildAncestorOffsets(d)
	}
	g.buildGroupByTables()
	return g, nil
}

// MustNewGrid is NewGrid but panics on error.
func MustNewGrid(sch *schema.Schema, counts [][]int) *Grid {
	g, err := NewGrid(sch, counts)
	if err != nil {
		panic(err)
	}
	return g
}

func (g *Grid) buildDim(d int, counts []int) error {
	dim := g.sch.Dim(d)
	h := dim.Hierarchy()
	if len(counts) != h+1 {
		return fmt.Errorf("chunk: dimension %s: %d chunk counts, want %d", dim.Name(), len(counts), h+1)
	}
	if counts[0] != 1 {
		return fmt.Errorf("chunk: dimension %s: level 0 (ALL) must have 1 chunk, got %d", dim.Name(), counts[0])
	}
	for l := 0; l <= h; l++ {
		if counts[l] < 1 || counts[l] > dim.Card(l) {
			return fmt.Errorf("chunk: dimension %s level %s: %d chunks outside [1,%d]",
				dim.Name(), dim.LevelName(l), counts[l], dim.Card(l))
		}
		if l > 0 && counts[l] < counts[l-1] {
			return fmt.Errorf("chunk: dimension %s level %s: chunk count %d below more aggregated level's %d",
				dim.Name(), dim.LevelName(l), counts[l], counts[l-1])
		}
	}
	g.counts[d] = append([]int(nil), counts...)
	g.starts[d] = make([][]int32, h+1)
	g.parentRange[d] = make([][]Range, h+1)
	g.childChunk[d] = make([][]int32, h+1)

	// Base level: balanced split.
	g.starts[d][h] = balancedSplit(dim.Card(h), counts[h])

	// Aggregated levels, from detailed to aggregated: choose cuts among
	// detail chunk boundaries that align with parent-member boundaries.
	for l := h - 1; l >= 0; l-- {
		det := g.starts[d][l+1]
		k := counts[l+1] // number of detail chunks
		// Candidate interior cuts: detail chunk boundary j (1..k-1) such that
		// the parent changes across the boundary.
		var cand []int
		for j := 1; j < k; j++ {
			b := det[j]
			if dim.Parent(l+1, b-1) != dim.Parent(l+1, b) {
				cand = append(cand, j)
			}
		}
		need := counts[l] - 1
		if len(cand) < need {
			return fmt.Errorf("chunk: dimension %s level %s: want %d chunks but only %d aligned boundaries exist; reduce the chunk count or re-chunk level %s",
				dim.Name(), dim.LevelName(l), counts[l], len(cand)+1, dim.LevelName(l+1))
		}
		cuts := spreadSelect(cand, need, k)
		// Chunk c at level l maps to detail chunks [cuts[c], cuts[c+1]).
		pr := make([]Range, counts[l])
		st := make([]int32, counts[l]+1)
		st[counts[l]] = int32(dim.Card(l))
		full := append(append([]int{0}, cuts...), k)
		for c := 0; c < counts[l]; c++ {
			pr[c] = Range{Lo: int32(full[c]), Hi: int32(full[c+1])}
			st[c] = dim.Parent(l+1, det[full[c]])
		}
		g.parentRange[d][l] = pr
		g.starts[d][l] = st
		// Inverse mapping for level l+1.
		cc := make([]int32, counts[l+1])
		for c := 0; c < counts[l]; c++ {
			for j := pr[c].Lo; j < pr[c].Hi; j++ {
				cc[j] = int32(c)
			}
		}
		g.childChunk[d][l+1] = cc
	}

	// Member -> chunk.
	g.chunkOf[d] = make([][]int32, h+1)
	for l := 0; l <= h; l++ {
		co := make([]int32, dim.Card(l))
		st := g.starts[d][l]
		for c := 0; c < counts[l]; c++ {
			for m := st[c]; m < st[c+1]; m++ {
				co[m] = int32(c)
			}
		}
		g.chunkOf[d][l] = co
	}
	return nil
}

// balancedSplit returns n+1 boundaries splitting card members into n chunks
// of near-equal size.
func balancedSplit(card, n int) []int32 {
	st := make([]int32, n+1)
	for i := 0; i <= n; i++ {
		st[i] = int32(i * card / n)
	}
	return st
}

// spreadSelect picks need values from the sorted candidate list cand,
// spreading them as evenly as possible over [0, k]. It keeps selections
// strictly increasing and always leaves enough candidates for the remaining
// picks.
func spreadSelect(cand []int, need, k int) []int {
	if need == 0 {
		return nil
	}
	out := make([]int, 0, need)
	pos := 0
	for i := 1; i <= need; i++ {
		target := i * k / (need + 1)
		// Advance while the next candidate is closer to the target and enough
		// candidates remain for the outstanding picks.
		for pos+1 < len(cand) &&
			len(cand)-(pos+1) >= need-i &&
			abs(cand[pos+1]-target) <= abs(cand[pos]-target) {
			pos++
		}
		out = append(out, cand[pos])
		pos++
	}
	return out
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func (g *Grid) buildGroupByTables() {
	n := g.lat.NumNodes()
	nd := g.sch.NumDims()
	g.chunkStrides = make([][]int, n)
	g.numChunks = make([]int, n)
	for id := 0; id < n; id++ {
		lv := g.lat.Level(lattice.ID(id))
		strides := make([]int, nd)
		total := 1
		for d := nd - 1; d >= 0; d-- {
			strides[d] = total
			total *= g.counts[d][lv[d]]
		}
		g.chunkStrides[id] = strides
		g.numChunks[id] = total
	}
}

// Schema returns the schema the grid chunks.
func (g *Grid) Schema() *schema.Schema { return g.sch }

// Lattice returns the group-by lattice of the grid's schema.
func (g *Grid) Lattice() *lattice.Lattice { return g.lat }

// ChunkCount returns the number of chunks of dimension d at level l.
func (g *Grid) ChunkCount(d, l int) int { return g.counts[d][l] }

// NumChunks returns the total number of chunks of group-by gb.
func (g *Grid) NumChunks(gb lattice.ID) int { return g.numChunks[gb] }

// TotalChunks returns the number of chunks summed over every group-by in the
// lattice — the size of the virtual-count arrays (§7.1 "Space Overhead").
func (g *Grid) TotalChunks() int64 {
	total := int64(1)
	for d := range g.counts {
		s := int64(0)
		for _, c := range g.counts[d] {
			s += int64(c)
		}
		total *= s
	}
	return total
}

// MemberRange returns the member range of chunk c of dimension d at level l.
func (g *Grid) MemberRange(d, l int, c int32) Range {
	st := g.starts[d][l]
	return Range{Lo: st[c], Hi: st[c+1]}
}

// ChunkOfMember returns the chunk index containing member m of dimension d
// at level l.
func (g *Grid) ChunkOfMember(d, l int, m int32) int32 { return g.chunkOf[d][l][m] }

// DimParentRange returns the run of chunks at level l+1 of dimension d that
// chunk c at level l corresponds to.
func (g *Grid) DimParentRange(d, l int, c int32) Range { return g.parentRange[d][l][c] }

// DimChildChunk returns the chunk at level l-1 of dimension d containing
// chunk c at level l.
func (g *Grid) DimChildChunk(d, l int, c int32) int32 { return g.childChunk[d][l][c] }

// Coords decodes chunk number num of group-by gb into per-dimension chunk
// coordinates, appending to dst (which may be nil).
func (g *Grid) Coords(gb lattice.ID, num int, dst []int32) []int32 {
	strides := g.chunkStrides[gb]
	for _, s := range strides {
		dst = append(dst, int32(num/s))
		num %= s
	}
	return dst
}

// Number encodes per-dimension chunk coordinates into a chunk number of
// group-by gb.
func (g *Grid) Number(gb lattice.ID, coords []int32) int {
	strides := g.chunkStrides[gb]
	num := 0
	for d, c := range coords {
		num += int(c) * strides[d]
	}
	return num
}

// Run is an arithmetic run of chunk numbers: First, First+Step, … (N of
// them), in ascending order.
type Run struct{ First, Step, N int }

// At returns the i-th chunk number of the run.
func (r Run) At(i int) int { return r.First + i*r.Step }

// split decomposes chunk num of gb around dimension d: num = hi·(s·n) + c·s
// + lo, where c is the chunk coordinate along d, s the stride of d (the
// same in every group-by that differs from gb only on d) and n the chunk
// count of d at gb's level l. A lattice step along d changes only c and n.
func (g *Grid) split(gb lattice.ID, num, d int) (hi, c, lo, s, l int) {
	l = g.lat.LevelAt(gb, d)
	s = g.chunkStrides[gb][d]
	// Chunk numbers fit in 32 bits, and 32-bit division is the cheaper one.
	q := int(uint32(num) / uint32(s))
	n := g.counts[d][l]
	hi = int(uint32(q) / uint32(n))
	return hi, q - hi*n, num - q*s, s, l
}

// ParentRun returns the chunks of gb's lattice parent one level more
// detailed on dimension d (lattice.ParentDims) whose aggregation yields
// chunk num of gb — the paper's GetParentChunkNumbers. They differ only in
// their coordinate along d, so they form a run; enumerating it needs no
// slice and no coordinate decoding.
func (g *Grid) ParentRun(gb lattice.ID, num, d int) Run {
	hi, c, lo, s, l := g.split(gb, num, d)
	r := g.parentRange[d][l][c]
	return Run{First: (hi*g.counts[d][l+1]+int(r.Lo))*s + lo, Step: s, N: r.Len()}
}

// ChildStep returns the chunk of gb's lattice child one level more
// aggregated on dimension d (lattice.ChildDims) that chunk num of gb
// contributes to — the paper's GetChildChunkNumber.
func (g *Grid) ChildStep(gb lattice.ID, num, d int) int {
	hi, c, lo, s, l := g.split(gb, num, d)
	return (hi*g.counts[d][l-1]+int(g.childChunk[d][l][c]))*s + lo
}

// ParentChunks appends ParentRun(gb, num, d) to dst, where d is the
// dimension on which parent is one level more detailed than gb.
func (g *Grid) ParentChunks(gb lattice.ID, num int, parent lattice.ID, dst []int) []int {
	d, ok := g.lat.StepDim(gb, parent)
	if !ok {
		panic(fmt.Sprintf("chunk: %s is not a lattice parent of %s", g.lat.LevelTupleString(parent), g.lat.LevelTupleString(gb)))
	}
	r := g.ParentRun(gb, num, d)
	for i := 0; i < r.N; i++ {
		dst = append(dst, r.At(i))
	}
	return dst
}

// AncestorChunks appends the chunk numbers at ancestor group-by anc
// (componentwise ≥ gb) covering chunk num of gb. For a direct parent this
// equals ParentChunks.
func (g *Grid) AncestorChunks(gb lattice.ID, num int, anc lattice.ID, dst []int) []int {
	if !g.lat.ComputableFrom(gb, anc) {
		panic(fmt.Sprintf("chunk: %s is not an ancestor of %s", g.lat.LevelTupleString(anc), g.lat.LevelTupleString(gb)))
	}
	var buf [16]int32
	coords := g.Coords(gb, num, buf[:0])
	nd := g.sch.NumDims()
	ranges := make([]Range, nd)
	total := 1
	for d := 0; d < nd; d++ {
		lo, hi := g.lat.LevelAt(gb, d), g.lat.LevelAt(anc, d)
		r := Range{Lo: coords[d], Hi: coords[d] + 1}
		for l := lo; l < hi; l++ {
			r = Range{
				Lo: g.parentRange[d][l][r.Lo].Lo,
				Hi: g.parentRange[d][l][r.Hi-1].Hi,
			}
		}
		ranges[d] = r
		total *= r.Len()
	}
	dst = slices.Grow(dst, total)
	// Cartesian product.
	cur := make([]int32, nd)
	for d := range cur {
		cur[d] = ranges[d].Lo
	}
	for {
		dst = append(dst, g.Number(anc, cur))
		d := nd - 1
		for d >= 0 {
			cur[d]++
			if cur[d] < ranges[d].Hi {
				break
			}
			cur[d] = ranges[d].Lo
			d--
		}
		if d < 0 {
			return dst
		}
	}
}

// Span returns the per-dimension member counts of chunk num of gb, appended
// to dst.
func (g *Grid) Span(gb lattice.ID, num int, dst []int32) []int32 {
	var buf [16]int32
	coords := g.Coords(gb, num, buf[:0])
	lv := g.lat.Level(gb)
	for d, c := range coords {
		r := g.MemberRange(d, lv[d], c)
		dst = append(dst, r.Hi-r.Lo)
	}
	return dst
}

// CellCapacity returns the dense cell capacity of chunk num of gb: the
// product of its per-dimension member spans.
func (g *Grid) CellCapacity(gb lattice.ID, num int) int64 {
	var buf [16]int32
	span := g.Span(gb, num, buf[:0])
	cap := int64(1)
	for _, s := range span {
		cap *= int64(s)
	}
	return cap
}

// ChunkOfCell returns the chunk number and intra-chunk cell key of the cell
// with the given absolute member ids at group-by gb.
func (g *Grid) ChunkOfCell(gb lattice.ID, members []int32) (num int, key uint64) {
	lv := g.lat.Level(gb)
	var cbuf [16]int32
	coords := cbuf[:0]
	for d, m := range members {
		coords = append(coords, g.chunkOf[d][lv[d]][m])
	}
	num = g.Number(gb, coords)
	key = 0
	for d, m := range members {
		r := g.MemberRange(d, lv[d], coords[d])
		key = key*uint64(r.Hi-r.Lo) + uint64(m-r.Lo)
	}
	return num, key
}

// CellMembers decodes an intra-chunk cell key of chunk num at gb back into
// absolute member ids, appended to dst.
func (g *Grid) CellMembers(gb lattice.ID, num int, key uint64, dst []int32) []int32 {
	lv := g.lat.Level(gb)
	var cbuf, sbuf [16]int32
	coords := g.Coords(gb, num, cbuf[:0])
	spans := sbuf[:0]
	for d, c := range coords {
		r := g.MemberRange(d, lv[d], c)
		spans = append(spans, r.Hi-r.Lo)
	}
	start := len(dst)
	dst = append(dst, make([]int32, len(coords))...)
	for d := len(coords) - 1; d >= 0; d-- {
		span := uint64(spans[d])
		off := key % span
		key /= span
		r := g.MemberRange(d, lv[d], coords[d])
		dst[start+d] = r.Lo + int32(off)
	}
	return dst
}
