package exhaustive

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"aggcache/internal/cache"
	"aggcache/internal/chunk"
	"aggcache/internal/lattice"
	"aggcache/internal/schema"
	"aggcache/internal/sizer"
	"aggcache/internal/strategy"
)

// apb3Grid is a 3-dimension grid with multi-level hierarchies, large enough
// for interesting lattice diamonds but small enough for exhaustive search.
func apb3Grid(t testing.TB) *chunk.Grid {
	t.Helper()
	p := schema.MustNewDimension("Product", []schema.HierarchySpec{
		{Name: "Group", Card: 2}, {Name: "Code", Card: 8},
	})
	c := schema.MustNewDimension("Customer", []schema.HierarchySpec{{Name: "Store", Card: 6}})
	tm := schema.MustNewDimension("Time", []schema.HierarchySpec{
		{Name: "Year", Card: 2}, {Name: "Month", Card: 8},
	})
	s := schema.MustNew("M", p, c, tm)
	return chunk.MustNewGrid(s, [][]int{{1, 2, 4}, {1, 2}, {1, 1, 2}})
}

func entry(gb lattice.ID, num int) *cache.Entry {
	return &cache.Entry{Key: cache.Key{GB: gb, Num: int32(num)}}
}

// checkPlan verifies a plan's structure: every leaf is resident and has no
// inputs, and every aggregation node's inputs are exactly its chunk's parent
// chunks at Via, in order.
func checkPlan(t *testing.T, g *chunk.Grid, resident map[cache.Key]bool, p *strategy.Plan) {
	t.Helper()
	if p.Present {
		if !resident[cache.Key{GB: p.GB, Num: int32(p.Num)}] {
			t.Fatalf("plan leaf (%d,%d) is not present", p.GB, p.Num)
		}
		if len(p.Inputs) != 0 {
			t.Fatalf("present plan node has inputs")
		}
		return
	}
	lat := g.Lattice()
	i := slices.Index(lat.Parents(p.GB), p.Via)
	if i < 0 {
		t.Fatalf("plan node (%d,%d): Via %d is not a lattice parent", p.GB, p.Num, p.Via)
	}
	want := g.ParentRun(p.GB, p.Num, int(lat.ParentDims(p.GB)[i]))
	if want.N != len(p.Inputs) {
		t.Fatalf("plan node (%d,%d): %d inputs, want %d", p.GB, p.Num, len(p.Inputs), want.N)
	}
	for i, in := range p.Inputs {
		if in.GB != p.Via || in.Num != want.At(i) {
			t.Fatalf("plan node (%d,%d): input %d is (%d,%d), want (%d,%d)",
				p.GB, p.Num, i, in.GB, in.Num, p.Via, want.At(i))
		}
		checkPlan(t, g, resident, in)
	}
}

// TestAgreesWithVCMC drives random insert/evict sequences and checks, after
// every operation and for every chunk of every group-by (a sample each op,
// all of them every 20 ops), that ESM and ESMC agree with VCMC on
// computability (Property 1), that their plans are structurally valid with
// resident leaves, and that ESMC's plan costs VCMC's least cost. VCMC itself
// is checked against a from-scratch oracle in the strategy package.
func TestAgreesWithVCMC(t *testing.T) {
	g := apb3Grid(t)
	lat := g.Lattice()
	sizes := sizer.NewEstimate(g, 500)
	vcmc := strategy.NewVCMC(g, sizes)
	esm, esmc := NewESM(g, 0), NewESMC(g, sizes, 0)
	all := []strategy.Strategy{vcmc, esm, esmc}
	rng := rand.New(rand.NewSource(17))
	resident := map[cache.Key]bool{}
	aggregated := 0
	for op := 0; op < 120; op++ {
		gb := lattice.ID(rng.Intn(lat.NumNodes()))
		num := rng.Intn(g.NumChunks(gb))
		k := cache.Key{GB: gb, Num: int32(num)}
		if resident[k] && rng.Intn(2) == 0 {
			delete(resident, k)
			for _, s := range all {
				s.OnEvent(cache.Event{Key: k, Reason: cache.Evicted, Entry: entry(gb, num)})
			}
		} else if !resident[k] {
			resident[k] = true
			for _, s := range all {
				s.OnInsert(entry(gb, num))
			}
		}
		full := op%20 == 19
		for id := lattice.ID(0); int(id) < lat.NumNodes(); id++ {
			for n := 0; n < g.NumChunks(id); n++ {
				if !full && rng.Intn(8) != 0 {
					continue
				}
				want, wantOK := vcmc.CostEstimate(id, n)
				for _, s := range []strategy.Strategy{esm, esmc} {
					plan, found, err := s.Find(id, n)
					if err != nil {
						t.Fatalf("op %d: %s.Find: %v", op, s.Name(), err)
					}
					if found != wantOK {
						t.Fatalf("op %d: %s.Find(%s,%d) = %v, VCMC %v", op, s.Name(), lat.LevelTupleString(id), n, found, wantOK)
					}
					if found {
						checkPlan(t, g, resident, plan)
						if !plan.Present {
							aggregated++
						}
					}
				}
				if plan, found, _ := esmc.Find(id, n); found && plan.Cost != want {
					t.Fatalf("op %d: ESMC plan cost %d for (%s,%d), VCMC %d", op, plan.Cost, lat.LevelTupleString(id), n, want)
				}
			}
		}
	}
	if aggregated == 0 {
		t.Fatalf("no lookup was answered by aggregation; the stream proves nothing")
	}
	if esm.Overhead() != 0 || esmc.Overhead() != 0 {
		t.Fatalf("exhaustive strategies keep no count/cost arrays (Table 3)")
	}
}

func TestESMBudget(t *testing.T) {
	g := apb3Grid(t)
	lat := g.Lattice()
	esm := NewESM(g, 3)
	// Empty cache: the exhaustive search would visit many nodes; the budget
	// must trip.
	_, _, err := esm.Find(lat.Top(), 0)
	if !errors.Is(err, strategy.ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	esmc := NewESMC(g, sizer.NewEstimate(g, 100), 3)
	if _, _, err := esmc.Find(lat.Top(), 0); !errors.Is(err, strategy.ErrBudget) {
		t.Fatalf("ESMC err = %v, want ErrBudget", err)
	}
	// A present chunk is found within any budget.
	esm.OnInsert(entry(lat.Top(), 0))
	if _, found, err := esm.Find(lat.Top(), 0); !found || err != nil {
		t.Fatalf("present chunk not found: %v %v", found, err)
	}
}

func TestESMVisitedGrowsWithAggregation(t *testing.T) {
	g := apb3Grid(t)
	lat := g.Lattice()
	esm := NewESM(g, 0)
	// Lookup misses: highly aggregated chunks must visit far more nodes than
	// base-level chunks (Lemma 1's point behind Table 1).
	_, found, _ := esm.Find(lat.Base(), 0)
	if found {
		t.Fatalf("empty cache should not find")
	}
	baseVisits := esm.LastVisited()
	_, _, _ = esm.Find(lat.Top(), 0)
	topVisits := esm.LastVisited()
	if topVisits <= baseVisits*10 {
		t.Fatalf("top visits %d not ≫ base visits %d", topVisits, baseVisits)
	}
}
