package strategy_test

import (
	"fmt"

	"aggcache/internal/cache"
	"aggcache/internal/chunk"
	"aggcache/internal/lattice"
	"aggcache/internal/schema"
	"aggcache/internal/strategy"
)

// ExampleVCM walks the paper's Figure 4 scenario: as detail chunks are
// inserted, virtual counts make aggregate chunks answerable the instant all
// of their inputs are in the cache.
func ExampleVCM() {
	a := schema.MustNewDimension("A", []schema.HierarchySpec{{Name: "a", Card: 4}})
	b := schema.MustNewDimension("B", []schema.HierarchySpec{{Name: "b", Card: 4}})
	g := chunk.MustNewGrid(schema.MustNew("M", a, b), [][]int{{1, 2}, {1, 2}})
	lat := g.Lattice()
	vcm := strategy.NewVCM(g)

	g11 := lat.MustID(1, 1) // detail level, 4 chunks
	g10 := lat.MustID(1, 0) // A only, 2 chunks

	vcm.OnInsert(&cache.Entry{Key: cache.Key{GB: g11, Num: 0}})
	_, found, _ := vcm.Find(g10, 0)
	fmt.Println("after one detail chunk, (1,0)#0 computable:", found)

	vcm.OnInsert(&cache.Entry{Key: cache.Key{GB: g11, Num: 1}})
	plan, found, _ := vcm.Find(g10, 0)
	fmt.Println("after both detail chunks, (1,0)#0 computable:", found)
	fmt.Println("count:", vcm.Count(g10, 0), "plan inputs:", len(plan.Inputs))
	// Output:
	// after one detail chunk, (1,0)#0 computable: false
	// after both detail chunks, (1,0)#0 computable: true
	// count: 1 plan inputs: 2
}

// ExampleVCMC_CostEstimate shows the recycler's pricing hook: the least cost
// of computing a chunk from the cache (§5.2) is available in constant time,
// without aggregating anything.
func ExampleVCMC_CostEstimate() {
	a := schema.MustNewDimension("A", []schema.HierarchySpec{{Name: "a", Card: 4}})
	b := schema.MustNewDimension("B", []schema.HierarchySpec{{Name: "b", Card: 4}})
	g := chunk.MustNewGrid(schema.MustNew("M", a, b), [][]int{{1, 2}, {1, 2}})
	lat := g.Lattice()
	vcmc := strategy.NewVCMC(g, constSizer{})

	for num := 0; num < g.NumChunks(lat.Base()); num++ {
		vcmc.OnInsert(&cache.Entry{Key: cache.Key{GB: lat.Base(), Num: int32(num)}})
	}
	cost, ok := vcmc.CostEstimate(lat.Top(), 0)
	fmt.Println("top chunk computable:", ok, "cost:", cost)
	// Output:
	// top chunk computable: true cost: 60
}

// constSizer charges 10 tuples per chunk, keeping the example's arithmetic
// obvious: the top chunk aggregates 4 base chunks (cost 20 per intermediate
// chunk) plus the 2 intermediate chunks themselves = 60.
type constSizer struct{}

func (constSizer) ChunkCells(lattice.ID, int) int64 { return 10 }
func (constSizer) GroupByCells(lattice.ID) int64    { return 40 }
