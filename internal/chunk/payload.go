package chunk

import (
	"fmt"
	"math/bits"
	"sort"

	"aggcache/internal/lattice"
)

// Chunk is the materialized payload of one chunk of one group-by: a sparse,
// key-sorted set of cells. Cell keys are row-major member offsets within the
// chunk (see Grid.ChunkOfCell). Each cell carries the measure's SUM and the
// contributing fact-row COUNT; both are distributive, so any roll-up of
// chunks can serve SUM, COUNT and AVG queries. A Chunk is immutable once
// built.
type Chunk struct {
	GB     lattice.ID
	Num    int32
	Keys   []uint64
	Vals   []float64
	Counts []int64
}

// CellBytes is the in-memory footprint charged per cell: an 8-byte key, an
// 8-byte sum and an 8-byte count — close to the paper's 20-byte fact tuples.
const CellBytes = 24

// OverheadBytes is the fixed per-chunk footprint charged by the cache.
const OverheadBytes = 64

// Cells returns the number of materialized cells.
func (c *Chunk) Cells() int { return len(c.Keys) }

// Footprint is the cache footprint of chunks chunks holding cells cells in
// all: CellBytes per cell plus OverheadBytes per chunk. It is the one byte
// charge — of a resident, a recycling candidate, a preload group-by or the
// whole base table.
func Footprint(cells, chunks int64) int64 { return cells*CellBytes + chunks*OverheadBytes }

// Bytes returns the cache footprint of the chunk.
func (c *Chunk) Bytes() int64 { return Footprint(int64(len(c.Keys)), 1) }

// Value returns the measure sum of the cell with the given key.
func (c *Chunk) Value(key uint64) (float64, bool) {
	i := c.find(key)
	if i < 0 {
		return 0, false
	}
	return c.Vals[i], true
}

// Cell returns the sum and fact-row count of the cell with the given key.
func (c *Chunk) Cell(key uint64) (sum float64, count int64, ok bool) {
	i := c.find(key)
	if i < 0 {
		return 0, 0, false
	}
	return c.Vals[i], c.Counts[i], true
}

func (c *Chunk) find(key uint64) int {
	i := sort.Search(len(c.Keys), func(i int) bool { return c.Keys[i] >= key })
	if i < len(c.Keys) && c.Keys[i] == key {
		return i
	}
	return -1
}

// Rows returns the total fact-row count across the chunk's cells;
// invariant under roll-up, like Total.
func (c *Chunk) Rows() int64 {
	var n int64
	for _, v := range c.Counts {
		n += v
	}
	return n
}

// Total returns the sum of all cell values; useful as an aggregation
// invariant (roll-ups preserve totals).
func (c *Chunk) Total() float64 {
	t := 0.0
	for _, v := range c.Vals {
		t += v
	}
	return t
}

// String summarizes the chunk for diagnostics.
func (c *Chunk) String() string {
	return fmt.Sprintf("chunk{gb=%d num=%d cells=%d}", c.GB, c.Num, len(c.Keys))
}

// denseLimit is the largest chunk capacity for which the accumulator uses a
// dense array (a float64 sum plus an int64 count per slot plus the occupancy
// bitmap, ≈17 bytes/slot → at most ~1.1 MiB transient) instead of a hash
// map. Aggregated chunks — the hot aggregation targets — are far below it.
const denseLimit = 1 << 16

// CellMap accumulates cells for one chunk under construction. Adding the
// same key twice sums the values — the aggregation primitive. Accumulators
// created with Grid.NewCellMap (or pooled via Grid.GetCellMap) for
// small-capacity chunks use a dense array (≈20× faster per tuple than
// hashing); others fall back to a map.
type CellMap struct {
	m      map[uint64]cellAgg
	dense  []float64
	denseN []int64
	occ    []uint64 // occupancy bitmap for dense mode
	n      int
	// isDense selects the active mode. A pooled accumulator keeps the dense
	// arrays' capacity across a sparse reuse, so the flag — not the slices'
	// nilness — is authoritative.
	isDense bool
}

type cellAgg struct {
	sum   float64
	count int64
}

// NewCellMap returns an empty sparse accumulator.
func NewCellMap() *CellMap { return &CellMap{m: make(map[uint64]cellAgg)} }

// NewCellMap returns an accumulator for chunk num of group-by gb, dense when
// the chunk's cell capacity permits.
func (g *Grid) NewCellMap(gb lattice.ID, num int) *CellMap {
	cm := &CellMap{}
	cm.prepare(g.CellCapacity(gb, num))
	return cm
}

// prepare (re)configures an empty accumulator for the given cell capacity,
// reusing whatever backing arrays it already has. The caller must ensure cm
// holds no cells (fresh, or Reset — the pool invariant): dense slots grown
// into are only guaranteed zero because Reset zeroes every occupied slot
// before the arrays shrink.
func (cm *CellMap) prepare(capacity int64) {
	if capacity > 0 && capacity <= denseLimit {
		cm.isDense = true
		n := int(capacity)
		if cap(cm.dense) >= n {
			cm.dense = cm.dense[:n]
			cm.denseN = cm.denseN[:n]
		} else {
			cm.dense = make([]float64, n)
			cm.denseN = make([]int64, n)
		}
		w := (n + 63) / 64
		if cap(cm.occ) >= w {
			cm.occ = cm.occ[:w]
		} else {
			cm.occ = make([]uint64, w)
		}
		return
	}
	cm.isDense = false
	if cm.m == nil {
		cm.m = make(map[uint64]cellAgg)
	}
}

// Add accumulates one fact row's value into the cell with the given key.
func (cm *CellMap) Add(key uint64, v float64) { cm.AddCell(key, v, 1) }

// AddCell accumulates an already-aggregated cell (sum over count fact rows)
// into the cell with the given key — the roll-up primitive.
func (cm *CellMap) AddCell(key uint64, sum float64, count int64) {
	if cm.isDense {
		if cm.occ[key/64]&(1<<(key%64)) == 0 {
			cm.occ[key/64] |= 1 << (key % 64)
			cm.n++
		}
		cm.dense[key] += sum
		cm.denseN[key] += count
		return
	}
	a := cm.m[key]
	a.sum += sum
	a.count += count
	cm.m[key] = a
}

// AddCells is Add over parallel arrays — fact row i is (keys[i], vals[i]),
// accumulated in index order — with the dense/sparse choice made once per
// call instead of once per row. It is the bulk half of the backend scan: a
// RowKeyer fills keys, AddCells folds them in.
func (cm *CellMap) AddCells(keys []uint64, vals []float64) {
	vals = vals[:len(keys)]
	if !cm.isDense {
		// The map dominates; nothing to hoist.
		for i, key := range keys {
			cm.AddCell(key, vals[i], 1)
		}
		return
	}
	dense, denseN, occ, n := cm.dense, cm.denseN, cm.occ, cm.n
	for i, key := range keys {
		if bit := uint64(1) << (key % 64); occ[key/64]&bit == 0 {
			occ[key/64] |= bit
			n++
		}
		dense[key] += vals[i]
		denseN[key]++
	}
	cm.n = n
}

// Len returns the number of distinct cells accumulated.
func (cm *CellMap) Len() int {
	if cm.isDense {
		return cm.n
	}
	return len(cm.m)
}

// Reset clears the accumulator for reuse. In dense mode it zeroes exactly
// the occupied slots — visiting set bits only, so a sparse accumulator costs
// one step per cell, not 64 per bitmap word — which keeps the whole backing
// array zero, the invariant pooled reuse at a different capacity relies on.
func (cm *CellMap) Reset() {
	if cm.isDense {
		for i, w := range cm.occ {
			for ; w != 0; w &= w - 1 {
				k := i*64 + bits.TrailingZeros64(w)
				cm.dense[k] = 0
				cm.denseN[k] = 0
			}
			cm.occ[i] = 0
		}
		cm.n = 0
		return
	}
	clear(cm.m)
}

// Build sorts the accumulated cells into an immutable Chunk for chunk num of
// group-by gb. The chunk owns freshly allocated backing arrays, so it may be
// retained indefinitely (cache inserts, query results).
func (cm *CellMap) Build(gb lattice.ID, num int) *Chunk {
	return cm.BuildInto(gb, num, &Chunk{})
}

// BuildInto is Build emitting into c's backing arrays, growing them only
// when the cell count exceeds their capacity. It returns c. Never hand a
// reused chunk to an owner that retains it.
func (cm *CellMap) BuildInto(gb lattice.ID, num int, c *Chunk) *Chunk {
	n := cm.Len()
	c.GB, c.Num = gb, int32(num)
	if cap(c.Keys) < n {
		c.Keys = make([]uint64, 0, n)
		c.Vals = make([]float64, 0, n)
		c.Counts = make([]int64, 0, n)
	} else {
		c.Keys = c.Keys[:0]
		c.Vals = c.Vals[:0]
		c.Counts = c.Counts[:0]
	}
	if cm.isDense {
		for i, w := range cm.occ {
			for ; w != 0; w &= w - 1 {
				k := uint64(i*64 + bits.TrailingZeros64(w))
				c.Keys = append(c.Keys, k)
				c.Vals = append(c.Vals, cm.dense[k])
				c.Counts = append(c.Counts, cm.denseN[k])
			}
		}
		return c
	}
	for k := range cm.m {
		c.Keys = append(c.Keys, k)
	}
	sort.Slice(c.Keys, func(i, j int) bool { return c.Keys[i] < c.Keys[j] })
	for _, k := range c.Keys {
		a := cm.m[k]
		c.Vals = append(c.Vals, a.sum)
		c.Counts = append(c.Counts, a.count)
	}
	return c
}

// RollUpInto aggregates every cell of src into dst, translating cell keys
// from the source chunk's coordinate space to the destination chunk at
// (dstGB, dstNum). The source group-by may be any ancestor (componentwise ≥)
// of dstGB — roll-up is associative, so a plan's leaves can be folded
// straight into a chunk several lattice levels down — and the source chunk
// must lie inside the destination chunk's region. It returns the number of
// cells scanned.
//
// The key translation is composed on the stack from the Grid's immutable
// per-dimension ancestor-offset tables (see rollUpMapper): no lock, no memo,
// no allocation; per cell it costs one div/mod and one table lookup per
// dimension the source chunk spans more than one member of.
func (g *Grid) RollUpInto(dst *CellMap, dstGB lattice.ID, dstNum int, src *Chunk) (int, error) {
	var m rollUpMapper
	if err := m.compose(g, dstGB, dstNum, src.GB, int(src.Num)); err != nil {
		return 0, err
	}
	counts := src.Counts
	for i, key := range src.Keys {
		dk := key
		if !m.copyThrough {
			dk = m.base
			for j := 0; j < m.n; j++ {
				span := m.spans[j]
				dk += uint64(m.tables[j][key%span]) * m.strides[j]
				key /= span
			}
		}
		count := int64(1)
		if counts != nil {
			count = counts[i]
		}
		dst.AddCell(dk, src.Vals[i], count)
	}
	return len(src.Keys), nil
}

// Slice returns the cells of c whose members fall inside the given absolute
// member ranges (one Range per dimension, at c's group-by levels). It is
// used to trim chunk-aligned answers to the exact query region. Instead of
// decoding every cell back to member ids, each dimension's constraint is
// precomputed as an intra-chunk offset window and tested during the key
// decode. When the whole chunk qualifies, c itself is returned (chunks are
// immutable); when no cell can qualify, the scan is skipped entirely.
func (g *Grid) Slice(c *Chunk, ranges []Range) *Chunk {
	lv := g.lat.Level(c.GB)
	var cbuf [16]int32
	coords := g.Coords(c.GB, int(c.Num), cbuf[:0])
	var spans, offLo, offHi [16]uint64
	nd := len(coords)
	full := true
	for d, cd := range coords {
		r := g.MemberRange(d, lv[d], cd)
		lo, hi := r.Lo, r.Hi
		if d < len(ranges) {
			if ranges[d].Lo > lo {
				lo = ranges[d].Lo
			}
			if ranges[d].Hi < hi {
				hi = ranges[d].Hi
			}
		}
		if hi <= lo {
			return &Chunk{GB: c.GB, Num: c.Num}
		}
		spans[d] = uint64(r.Hi - r.Lo)
		offLo[d] = uint64(lo - r.Lo)
		offHi[d] = uint64(hi - r.Lo)
		if offLo[d] != 0 || offHi[d] != spans[d] {
			full = false
		}
	}
	if full {
		return c
	}
	out := &Chunk{GB: c.GB, Num: c.Num}
	for i, key := range c.Keys {
		k := key
		in := true
		for d := nd - 1; d >= 0; d-- {
			off := k % spans[d]
			k /= spans[d]
			if off < offLo[d] || off >= offHi[d] {
				in = false
				break
			}
		}
		if in {
			out.Keys = append(out.Keys, key)
			out.Vals = append(out.Vals, c.Vals[i])
			if c.Counts != nil {
				out.Counts = append(out.Counts, c.Counts[i])
			}
		}
	}
	return out
}
