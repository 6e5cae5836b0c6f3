package workload

import (
	"fmt"
	"math/rand"
	"strings"

	"aggcache/internal/chunk"
	"aggcache/internal/core"
)

// This file holds the hostile traffic sources the overload harness drives:
// streams deliberately shaped to hurt a cache — extreme hot-key skew that
// turns one region into a convoy, flash crowds that stampede a fresh
// hotspot before it is cached, and scan floods that maximize backend work
// per query. They share the Source interface so the soak and bench harnesses
// can swap attack shapes without caring which one they got (a noisy-neighbor
// tenant is one of them run under its own tenant name).

// Source produces an endless query stream. The paper-mix Generator and
// every hostile source implement it.
type Source interface {
	Next() core.Query
}

// sourceFunc adapts a closure to Source.
type sourceFunc func() core.Query

func (f sourceFunc) Next() core.Query { return f() }

// AsSource adapts the paper-mix Generator to the Source interface,
// discarding the kind label.
func AsSource(g *Generator) Source {
	return sourceFunc(func() core.Query { q, _ := g.Next(); return q })
}

// FormatQuery renders a core.Query back into mdq text — the form the
// middle-tier wire protocol carries — listing every dimension in BY and
// emitting WHERE predicates only for dimensions the query restricts.
// Compiling the result reproduces the query's group-by and chunk region,
// so generated streams can drive the server exactly as a real client
// would.
func FormatQuery(g *chunk.Grid, q core.Query) string {
	sch := g.Schema()
	lv := g.Lattice().Level(q.GB)
	var b strings.Builder
	fmt.Fprintf(&b, "SUM(%s) BY ", sch.Measure())
	for d := 0; d < sch.NumDims(); d++ {
		if d > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s:%s", sch.Dim(d).Name(), sch.Dim(d).LevelName(lv[d]))
	}
	wrote := false
	for d := 0; d < sch.NumDims(); d++ {
		if q.Lo[d] == 0 && int(q.Hi[d]) == g.ChunkCount(d, lv[d]) {
			continue // whole dimension; no predicate needed
		}
		// Chunk ranges are half-open; mdq member ranges are inclusive.
		mlo := g.MemberRange(d, lv[d], q.Lo[d]).Lo
		mhi := g.MemberRange(d, lv[d], q.Hi[d]-1).Hi - 1
		if wrote {
			b.WriteString(" AND ")
		} else {
			b.WriteString(" WHERE ")
			wrote = true
		}
		fmt.Fprintf(&b, "%s:%s IN %d..%d", sch.Dim(d).Name(), sch.Dim(d).LevelName(lv[d]), mlo, mhi)
	}
	return b.String()
}

// NewZipf builds a hot-key source: a fixed pool of random queries drawn
// once, then replayed under a Zipf(s) popularity law, so a handful of pool
// entries dominate the stream the way a viral dashboard dominates real
// traffic. s must be > 1 (rand.Zipf's constraint); larger s means sharper
// skew. poolSize must be ≥ 1.
func NewZipf(g *chunk.Grid, poolSize int, s float64, seed int64) (Source, error) {
	if poolSize < 1 {
		return nil, fmt.Errorf("workload: zipf pool size must be ≥ 1, got %d", poolSize)
	}
	if s <= 1 {
		return nil, fmt.Errorf("workload: zipf s must be > 1, got %v", s)
	}
	gen, err := NewGenerator(g, Mix{Random: 1}, 2, seed)
	if err != nil {
		return nil, err
	}
	pool, _ := gen.Stream(poolSize)
	rng := rand.New(rand.NewSource(seed + 1))
	z := rand.NewZipf(rng, s, 1, uint64(poolSize-1))
	return sourceFunc(func() core.Query { return pool[z.Uint64()] }), nil
}

// NewFlashCrowd builds a stampede source: every call returns the current
// hotspot query, and the hotspot moves to a fresh random query every
// period calls — so each rotation, the full crowd lands on a query nothing
// has cached yet. period must be ≥ 1.
func NewFlashCrowd(g *chunk.Grid, period int, seed int64) (Source, error) {
	if period < 1 {
		return nil, fmt.Errorf("workload: flash crowd period must be ≥ 1, got %d", period)
	}
	gen, err := NewGenerator(g, Mix{Random: 1}, 2, seed)
	if err != nil {
		return nil, err
	}
	var (
		n   int
		cur core.Query
	)
	return sourceFunc(func() core.Query {
		if n%period == 0 {
			cur, _ = gen.Next()
		}
		n++
		return cur
	}), nil
}

// NewScanFlood builds a worst-case-cost source: every query groups at the
// most detailed level of every dimension and sweeps a wide random window,
// maximizing backend tuples scanned per query while the shifting windows
// defeat chunk reuse. width is the region extent per dimension in chunks
// (≥ 1); windows are clamped to the grid.
func NewScanFlood(g *chunk.Grid, width int, seed int64) (Source, error) {
	if width < 1 {
		return nil, fmt.Errorf("workload: scan flood width must be ≥ 1, got %d", width)
	}
	sch := g.Schema()
	nd := sch.NumDims()
	detail := make([]int, nd)
	for d := 0; d < nd; d++ {
		detail[d] = sch.Dim(d).Hierarchy()
	}
	gb, err := g.Lattice().IDOf(detail)
	if err != nil {
		return nil, fmt.Errorf("workload: scan flood group-by: %w", err)
	}
	rng := rand.New(rand.NewSource(seed))
	return sourceFunc(func() core.Query {
		lo := make([]int32, nd)
		hi := make([]int32, nd)
		for d := 0; d < nd; d++ {
			n := int32(g.ChunkCount(d, detail[d]))
			w := min32(int32(width), n)
			a := rng.Int31n(n - w + 1)
			lo[d], hi[d] = a, a+w
		}
		return core.Query{GB: gb, Lo: lo, Hi: hi}
	}), nil
}
