package bench

import (
	"context"
	"fmt"
	"math/big"

	"aggcache/internal/core"
	"aggcache/internal/lattice"
)

// UnitAggBenefit measures the paper's "Benefit of Aggregation" unit
// experiment (§7.1): with the base table cached, answering one chunk per
// group-by by in-cache aggregation versus computing it at the backend. The
// paper found cache aggregation ≈8× faster on average.
func UnitAggBenefit(e *Env) (*Report, error) {
	sys, err := e.NewSystem(core.Config{
		Strategy: "VCMC",
		Policy:   "two-level",
		HotBytes: e.BaseBytes() * 4,
	}, true)
	if err != nil {
		return nil, err
	}
	lat := e.Grid.Lattice()
	r := &Report{ID: "unit-aggbenefit", Title: "Benefit of aggregation: backend vs in-cache, one chunk per group-by",
		Header: []string{"metric", "value"}}
	var sum, min, max float64
	n := 0
	for id := lattice.ID(0); int(id) < lat.NumNodes(); id++ {
		if id == lat.Base() {
			continue // the base chunk cannot be aggregated from anything
		}
		_, bstats, err := e.Backend.ComputeChunks(context.Background(), id, []int{0})
		if err != nil {
			return nil, err
		}
		res, err := sys.Engine.Execute(context.Background(), singleChunkQuery(e, id))
		if err != nil {
			return nil, err
		}
		if !res.CompleteHit {
			return nil, fmt.Errorf("bench: chunk of %s not computable after preload", lat.LevelTupleString(id))
		}
		cacheTime := res.Breakdown.Total()
		if cacheTime <= 0 {
			continue
		}
		ratio := float64(bstats.Cost()) / float64(cacheTime)
		if n == 0 || ratio < min {
			min = ratio
		}
		if ratio > max {
			max = ratio
		}
		sum += ratio
		n++
	}
	r.AddRow("group-bys measured", fmt.Sprintf("%d", n))
	r.AddRow("avg backend/cache factor", fmt.Sprintf("%.1f", sum/float64(n)))
	r.AddRow("min factor", fmt.Sprintf("%.1f", min))
	r.AddRow("max factor", fmt.Sprintf("%.1f", max))
	r.Addf("paper: aggregating in cache ≈8× faster than the backend on average (factor depends on network/DBMS)")
	return r, nil
}

// singleChunkQuery builds a query covering exactly chunk 0 of gb.
func singleChunkQuery(e *Env, gb lattice.ID) core.Query {
	nd := e.Grid.Schema().NumDims()
	lo := make([]int32, nd)
	hi := make([]int32, nd)
	for d := 0; d < nd; d++ {
		hi[d] = 1
	}
	return core.Query{GB: gb, Lo: lo, Hi: hi}
}

// UnitCostVar measures the paper's "Aggregation Cost Optimization" unit
// experiment (§7.1): the spread between the cheapest and the most expensive
// aggregation path, per group-by, with the base table cached. The paper
// found an average factor of ≈10.
func UnitCostVar(e *Env) (*Report, error) {
	lat := e.Grid.Lattice()
	base := lat.Base()
	type key struct {
		gb  lattice.ID
		num int
	}
	minMemo := map[key]int64{}
	maxMemo := map[key]int64{}
	var minCost, maxCost func(gb lattice.ID, num int) int64
	minCost = func(gb lattice.ID, num int) int64 {
		if gb == base {
			return 0
		}
		k := key{gb, num}
		if v, ok := minMemo[k]; ok {
			return v
		}
		best := int64(-1)
		pdims := lat.ParentDims(gb)
		for i, parent := range lat.Parents(gb) {
			total := int64(0)
			r := e.Grid.ParentRun(gb, num, int(pdims[i]))
			for j := 0; j < r.N; j++ {
				cn := r.At(j)
				total += minCost(parent, cn) + e.Sizer.ChunkCells(parent, cn)
			}
			if best < 0 || total < best {
				best = total
			}
		}
		minMemo[k] = best
		return best
	}
	maxCost = func(gb lattice.ID, num int) int64 {
		if gb == base {
			return 0
		}
		k := key{gb, num}
		if v, ok := maxMemo[k]; ok {
			return v
		}
		worst := int64(-1)
		pdims := lat.ParentDims(gb)
		for i, parent := range lat.Parents(gb) {
			total := int64(0)
			r := e.Grid.ParentRun(gb, num, int(pdims[i]))
			for j := 0; j < r.N; j++ {
				cn := r.At(j)
				total += maxCost(parent, cn) + e.Sizer.ChunkCells(parent, cn)
			}
			if total > worst {
				worst = total
			}
		}
		maxMemo[k] = worst
		return worst
	}

	r := &Report{ID: "unit-costvar", Title: "Aggregation cost spread across lattice paths (base table cached)",
		Header: []string{"levels aggregated", "avg max/min factor", "group-bys"}}
	bySum := map[int][]float64{}
	var all float64
	n := 0
	maxSum := 0
	for id := lattice.ID(0); int(id) < lat.NumNodes(); id++ {
		if id == base || len(lat.Parents(id)) < 2 {
			continue // a single path has no spread
		}
		mn, mx := minCost(id, 0), maxCost(id, 0)
		if mn <= 0 {
			continue
		}
		f := float64(mx) / float64(mn)
		dist := 0
		for d, l := range lat.Level(id) {
			dist += e.Grid.Schema().Dim(d).Hierarchy() - l
		}
		bySum[dist] = append(bySum[dist], f)
		if dist > maxSum {
			maxSum = dist
		}
		all += f
		n++
	}
	for dist := 2; dist <= maxSum; dist++ {
		fs := bySum[dist]
		if len(fs) == 0 {
			continue
		}
		sum := 0.0
		for _, f := range fs {
			sum += f
		}
		r.AddRow(fmt.Sprintf("%d", dist), fmt.Sprintf("%.2f", sum/float64(len(fs))), fmt.Sprintf("%d", len(fs)))
	}
	r.Addf("overall average factor: %.2f over %d group-bys (paper: ≈10, larger for more aggregated group-bys)", all/float64(n), n)
	return r, nil
}

// Lemma1 prints closed-form lattice path counts (Lemma 1) for the schema,
// cross-checked against dynamic programming.
func Lemma1(e *Env) (*Report, error) {
	lat := e.Grid.Lattice()
	r := &Report{ID: "lemma1", Title: "Lattice path counts (Lemma 1)",
		Header: []string{"group-by", "paths to base"}}
	// DP oracle over parent edges.
	memo := make([]*big.Int, lat.NumNodes())
	var dp func(id lattice.ID) *big.Int
	dp = func(id lattice.ID) *big.Int {
		if memo[id] != nil {
			return memo[id]
		}
		ps := lat.Parents(id)
		if len(ps) == 0 {
			memo[id] = big.NewInt(1)
			return memo[id]
		}
		sum := new(big.Int)
		for _, p := range ps {
			sum.Add(sum, dp(p))
		}
		memo[id] = sum
		return sum
	}
	for id := lattice.ID(0); int(id) < lat.NumNodes(); id++ {
		want := dp(id)
		got := lat.PathCount(id)
		if got.Cmp(want) != 0 {
			return nil, fmt.Errorf("bench: Lemma 1 mismatch at %s: formula %v, DP %v",
				lat.LevelTupleString(id), got, want)
		}
	}
	r.AddRow("base "+lat.LevelTupleString(lat.Base()), "1")
	r.AddRow("top "+lat.LevelTupleString(lat.Top()), lat.PathCount(lat.Top()).String())
	r.Addf("formula (Σ(h−l))!/Π(h−l)! verified against DP for all %d group-bys", lat.NumNodes())
	return r, nil
}
