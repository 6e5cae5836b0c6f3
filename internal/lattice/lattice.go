// Package lattice models the lattice of group-bys over a multidimensional
// schema, ordered by the "can be computed by" relationship (§3 of the paper).
//
// A group-by is identified by its level vector (l_1, …, l_n) with
// 0 ≤ l_d ≤ h_d. A group-by A is computable from B when B is componentwise ≥
// A. The *parents* of a node are the group-bys exactly one level more
// detailed on a single dimension; *children* are one level more aggregated.
// Every computation path from a node to the base group-by is a chain of
// parent steps.
package lattice

import (
	"fmt"
	"math/big"

	"aggcache/internal/schema"
)

// ID identifies a group-by node. IDs are dense in [0, NumNodes) and are the
// mixed-radix encoding of the level vector, so they are stable for a given
// schema.
type ID int32

// Lattice is the precomputed group-by lattice for a schema.
type Lattice struct {
	sch     *schema.Schema
	hier    []int // hierarchy sizes h_d
	strides []int // mixed-radix strides for level-vector <-> ID
	n       int   // number of nodes
	// flat per-node adjacency. parents[po[id]:po[id+1]] etc.
	parents  []ID
	po       []int32
	pdim     []int8 // dimension stepped for each parents[] entry
	children []ID
	co       []int32
	cdim     []int8
	levels   [][]int // levels[id] = level vector (shared, do not mutate)
}

// New builds the lattice for a schema.
func New(sch *schema.Schema) *Lattice {
	hier := sch.HierarchySizes()
	nd := len(hier)
	strides := make([]int, nd)
	n := 1
	for d := nd - 1; d >= 0; d-- {
		strides[d] = n
		n *= hier[d] + 1
	}
	l := &Lattice{sch: sch, hier: hier, strides: strides, n: n}
	l.levels = make([][]int, n)
	l.po = make([]int32, n+1)
	l.co = make([]int32, n+1)
	// First pass: decode levels and count edges.
	np, nc := 0, 0
	for id := 0; id < n; id++ {
		lv := l.decode(ID(id))
		l.levels[id] = lv
		for d := 0; d < nd; d++ {
			if lv[d] < hier[d] {
				np++
			}
			if lv[d] > 0 {
				nc++
			}
		}
	}
	l.parents = make([]ID, 0, np)
	l.pdim = make([]int8, 0, np)
	l.children = make([]ID, 0, nc)
	l.cdim = make([]int8, 0, nc)
	for id := 0; id < n; id++ {
		lv := l.levels[id]
		l.po[id] = int32(len(l.parents))
		l.co[id] = int32(len(l.children))
		for d := 0; d < nd; d++ {
			if lv[d] < hier[d] {
				l.parents = append(l.parents, ID(id+strides[d]))
				l.pdim = append(l.pdim, int8(d))
			}
			if lv[d] > 0 {
				l.children = append(l.children, ID(id-strides[d]))
				l.cdim = append(l.cdim, int8(d))
			}
		}
	}
	l.po[n] = int32(len(l.parents))
	l.co[n] = int32(len(l.children))
	return l
}

// Schema returns the schema the lattice was built over.
func (l *Lattice) Schema() *schema.Schema { return l.sch }

// NumNodes returns the number of group-bys: Π(h_d + 1).
func (l *Lattice) NumNodes() int { return l.n }

// NumDims returns the number of dimensions.
func (l *Lattice) NumDims() int { return len(l.hier) }

func (l *Lattice) decode(id ID) []int {
	lv := make([]int, len(l.hier))
	rem := int(id)
	for d := range l.hier {
		lv[d] = rem / l.strides[d]
		rem %= l.strides[d]
	}
	return lv
}

// IDOf returns the node id for a level vector.
func (l *Lattice) IDOf(level []int) (ID, error) {
	if err := l.sch.CheckLevel(level); err != nil {
		return 0, err
	}
	id := 0
	for d, lv := range level {
		id += lv * l.strides[d]
	}
	return ID(id), nil
}

// MustID is IDOf but panics on error; for statically known levels.
func (l *Lattice) MustID(level ...int) ID {
	id, err := l.IDOf(level)
	if err != nil {
		panic(err)
	}
	return id
}

// Level returns the level vector of id. The returned slice is shared and
// must not be modified.
func (l *Lattice) Level(id ID) []int { return l.levels[id] }

// LevelAt returns the level of dimension d at node id.
func (l *Lattice) LevelAt(id ID, d int) int { return l.levels[id][d] }

// Base returns the id of the base (most detailed) group-by.
func (l *Lattice) Base() ID { return ID(l.n - 1) }

// Top returns the id of the fully aggregated group-by (0, …, 0).
func (l *Lattice) Top() ID { return 0 }

// Parents returns the ids of the direct parents (one level more detailed on
// one dimension). The slice is shared; do not modify.
func (l *Lattice) Parents(id ID) []ID { return l.parents[l.po[id]:l.po[id+1]] }

// ParentDims returns, aligned with Parents, the dimension along which each
// parent differs.
func (l *Lattice) ParentDims(id ID) []int8 { return l.pdim[l.po[id]:l.po[id+1]] }

// Children returns the ids of the direct children (one level more aggregated
// on one dimension). The slice is shared; do not modify.
func (l *Lattice) Children(id ID) []ID { return l.children[l.co[id]:l.co[id+1]] }

// ChildDims returns, aligned with Children, the dimension along which each
// child differs.
func (l *Lattice) ChildDims(id ID) []int8 { return l.cdim[l.co[id]:l.co[id+1]] }

// ComputableFrom reports whether group-by a can be computed from group-by b,
// i.e. b is componentwise ≥ a.
func (l *Lattice) ComputableFrom(a, b ID) bool {
	la, lb := l.levels[a], l.levels[b]
	for d := range la {
		if lb[d] < la[d] {
			return false
		}
	}
	return true
}

// Descendants returns the number of group-bys computable from id (including
// itself): Π(l_d + 1).
func (l *Lattice) Descendants(id ID) int {
	n := 1
	for _, lv := range l.levels[id] {
		n *= lv + 1
	}
	return n
}

// PathCount returns the number of distinct paths in the lattice from id to
// the base group-by (Lemma 1): (Σ(h_d−l_d))! / Π(h_d−l_d)!.
func (l *Lattice) PathCount(id ID) *big.Int {
	lv := l.levels[id]
	total := 0
	for d, h := range l.hier {
		total += h - lv[d]
	}
	r := new(big.Int).MulRange(1, int64(total)) // total!
	if total == 0 {
		return big.NewInt(1)
	}
	for d, h := range l.hier {
		f := new(big.Int).MulRange(1, int64(h-lv[d]))
		if f.Sign() != 0 {
			r.Div(r, f)
		}
	}
	return r
}

// String formats a node id using the schema's level names.
func (l *Lattice) String(id ID) string {
	return l.sch.LevelString(l.levels[id])
}

// LevelTupleString formats a node id as its numeric level vector, e.g.
// "(6,2,3,1,0)" — the notation used throughout the paper.
func (l *Lattice) LevelTupleString(id ID) string {
	lv := l.levels[id]
	s := "("
	for d, v := range lv {
		if d > 0 {
			s += ","
		}
		s += fmt.Sprint(v)
	}
	return s + ")"
}
