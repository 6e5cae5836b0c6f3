package strategy

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"aggcache/internal/cache"
	"aggcache/internal/chunk"
	"aggcache/internal/lattice"
	"aggcache/internal/schema"
	"aggcache/internal/sizer"
)

// fig4Grid builds the paper's Figure 4 lattice: two dimensions with
// hierarchy size 1, two chunks each at the detailed level. Group-by (1,1)
// has 4 chunks, (1,0) and (0,1) have 2, (0,0) has 1.
func fig4Grid(t testing.TB) *chunk.Grid {
	t.Helper()
	a := schema.MustNewDimension("A", []schema.HierarchySpec{{Name: "a", Card: 4}})
	b := schema.MustNewDimension("B", []schema.HierarchySpec{{Name: "b", Card: 4}})
	return chunk.MustNewGrid(schema.MustNew("M", a, b), [][]int{{1, 2}, {1, 2}})
}

// apb3Grid is a 3-dimension grid with multi-level hierarchies, large enough
// for interesting lattice diamonds but small enough for exhaustive oracles.
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

// evicted wraps entry in a true-departure event, the shape stores deliver
// when a chunk leaves every tier.
func evicted(gb lattice.ID, num int) cache.Event {
	e := entry(gb, num)
	return cache.Event{Key: e.Key, Reason: cache.Evicted, Entry: e}
}

// oracle answers computability and least cost by exhaustive memoized search
// over the present set — the ground truth for Property 1 and for VCMC
// costs. Silent (recycled) residents answer lookups but never count, so the
// oracle keeps them apart and can search with or without them.
type oracle struct {
	grid    *chunk.Grid
	lat     *lattice.Lattice
	sizes   sizer.Sizer
	present map[cache.Key]bool
	silent  map[cache.Key]bool
	// memo[0] holds least costs over present, memo[1] over present ∪
	// silent; infCost = not computable.
	memo [2]map[cache.Key]int64
}

func newOracle(g *chunk.Grid, sizes sizer.Sizer) *oracle {
	o := &oracle{
		grid:    g,
		lat:     g.Lattice(),
		sizes:   sizes,
		present: make(map[cache.Key]bool),
		silent:  make(map[cache.Key]bool),
	}
	o.reset()
	return o
}

func (o *oracle) reset() {
	o.memo = [2]map[cache.Key]int64{make(map[cache.Key]int64), make(map[cache.Key]int64)}
}

func (o *oracle) insert(gb lattice.ID, num int) {
	o.present[cache.Key{GB: gb, Num: int32(num)}] = true
	o.reset()
}

func (o *oracle) insertSilent(gb lattice.ID, num int) {
	o.silent[cache.Key{GB: gb, Num: int32(num)}] = true
	o.reset()
}

func (o *oracle) evict(gb lattice.ID, num int) {
	delete(o.present, cache.Key{GB: gb, Num: int32(num)})
	delete(o.silent, cache.Key{GB: gb, Num: int32(num)})
	o.reset()
}

// resident reports whether the chunk is in the cache, silent or not.
func (o *oracle) resident(gb lattice.ID, num int) bool {
	k := cache.Key{GB: gb, Num: int32(num)}
	return o.present[k] || o.silent[k]
}

// cost returns the least cost of computing the chunk from the counted
// residents, or infCost.
func (o *oracle) cost(gb lattice.ID, num int) int64 { return o.costOver(gb, num, false) }

// costOver is cost, over present ∪ silent when withSilent is set.
func (o *oracle) costOver(gb lattice.ID, num int, withSilent bool) int64 {
	k := cache.Key{GB: gb, Num: int32(num)}
	memo := o.memo[0]
	if withSilent {
		memo = o.memo[1]
	}
	if c, ok := memo[k]; ok {
		return c
	}
	if o.present[k] || withSilent && o.silent[k] {
		memo[k] = 0
		return 0
	}
	best := int64(infCost)
	pdims := o.lat.ParentDims(gb)
	for i, parent := range o.lat.Parents(gb) {
		total := int64(0)
		ok := true
		r := o.grid.ParentRun(gb, num, int(pdims[i]))
		for j := 0; j < r.N; j++ {
			cn := r.At(j)
			c := o.costOver(parent, cn, withSilent)
			if c == infCost {
				ok = false
				break
			}
			total += c + o.sizes.ChunkCells(parent, cn)
		}
		if ok && total < best {
			best = total
		}
	}
	memo[k] = best
	return best
}

func (o *oracle) computable(gb lattice.ID, num int) bool { return o.cost(gb, num) != infCost }

// oracleCount recomputes a chunk's virtual count from scratch: presence plus
// the number of parents with a complete path (Definition 1).
func (o *oracle) count(gb lattice.ID, num int) int32 {
	n := int32(0)
	if o.present[cache.Key{GB: gb, Num: int32(num)}] {
		n++
	}
	pdims := o.lat.ParentDims(gb)
	for i, parent := range o.lat.Parents(gb) {
		complete := true
		r := o.grid.ParentRun(gb, num, int(pdims[i]))
		for j := 0; j < r.N; j++ {
			if !o.computable(parent, r.At(j)) {
				complete = false
				break
			}
		}
		if complete {
			n++
		}
	}
	return n
}

// checkPlan validates plan structure: leaves are present, Via is a lattice
// parent, inputs cover exactly the parent chunk set.
func checkPlan(t *testing.T, g *chunk.Grid, o *oracle, p *Plan) {
	t.Helper()
	if p.Present {
		if !o.resident(p.GB, p.Num) {
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
		checkPlan(t, g, o, in)
	}
}

// TestPropertyOneAndCosts drives random insert/evict sequences and checks,
// after every operation and for every chunk of every group-by:
//   - VCM and VCMC agree with the oracle on computability (Property 1);
//   - VCM and VCMC counts equal the from-scratch Definition 1 count;
//   - VCMC's O(1) cost and its plan's cost equal the oracle's least cost;
//   - all returned plans are structurally valid.
func TestPropertyOneAndCosts(t *testing.T) {
	g := apb3Grid(t)
	lat := g.Lattice()
	sizes := sizer.NewEstimate(g, 500)
	vcm, vcmc := NewVCM(g), NewVCMC(g, sizes)
	strategies := []Strategy{vcm, vcmc}
	o := newOracle(g, sizes)
	rng := rand.New(rand.NewSource(17))

	resident := map[cache.Key]bool{}
	for op := 0; op < 120; op++ {
		gb := lattice.ID(rng.Intn(lat.NumNodes()))
		num := rng.Intn(g.NumChunks(gb))
		k := cache.Key{GB: gb, Num: int32(num)}
		if resident[k] && rng.Intn(2) == 0 {
			delete(resident, k)
			o.evict(gb, num)
			for _, s := range strategies {
				s.OnEvent(evicted(gb, num))
			}
		} else if !resident[k] {
			resident[k] = true
			o.insert(gb, num)
			for _, s := range strategies {
				s.OnInsert(entry(gb, num))
			}
		}
		// Check a sample of chunks every op, everything every 20 ops.
		full := op%20 == 19
		for id := lattice.ID(0); int(id) < lat.NumNodes(); id++ {
			for n := 0; n < g.NumChunks(id); n++ {
				if !full && rng.Intn(8) != 0 {
					continue
				}
				want := o.computable(id, n)
				wantCost := o.cost(id, n)
				if got := vcm.Count(id, n); (got != 0) != want {
					t.Fatalf("op %d: VCM count %d for (%s,%d), oracle computable=%v",
						op, got, lat.LevelTupleString(id), n, want)
				}
				if got := vcm.Count(id, n); got != o.count(id, n) {
					t.Fatalf("op %d: VCM count %d for (%s,%d), Definition-1 count %d",
						op, got, lat.LevelTupleString(id), n, o.count(id, n))
				}
				if got := vcmc.Count(id, n); got != o.count(id, n) {
					t.Fatalf("op %d: VCMC count %d for (%s,%d), Definition-1 count %d",
						op, got, lat.LevelTupleString(id), n, o.count(id, n))
				}
				gotCost, gotOK := vcmc.CostEstimate(id, n)
				if gotOK != want {
					t.Fatalf("op %d: VCMC CostEstimate ok=%v for (%s,%d), oracle %v",
						op, gotOK, lat.LevelTupleString(id), n, want)
				}
				if want && gotCost != wantCost {
					t.Fatalf("op %d: VCMC cost %d for (%s,%d), oracle %d",
						op, gotCost, lat.LevelTupleString(id), n, wantCost)
				}
				for _, s := range strategies {
					plan, found, err := s.Find(id, n)
					if err != nil {
						t.Fatalf("op %d: %s.Find: %v", op, s.Name(), err)
					}
					if found != want {
						t.Fatalf("op %d: %s.Find(%s,%d) = %v, oracle %v",
							op, s.Name(), lat.LevelTupleString(id), n, found, want)
					}
					if found {
						checkPlan(t, g, o, plan)
					}
				}
				// The cost-based strategy must return minimum-cost plans.
				if want {
					if plan, _, _ := vcmc.Find(id, n); plan.Cost != wantCost {
						t.Fatalf("op %d: VCMC plan cost %d for (%s,%d), oracle %d",
							op, plan.Cost, lat.LevelTupleString(id), n, wantCost)
					}
				}
			}
		}
	}
}

// TestVCMExample4 walks the paper's Example 4 scenario on the Figure 4
// lattice: presence of both detail chunks covering a column makes the
// aggregated chunk computable with count 1; presence adds to the count.
func TestVCMExample4(t *testing.T) {
	g := fig4Grid(t)
	lat := g.Lattice()
	vcm := NewVCM(g)
	g11 := lat.MustID(1, 1)
	g10 := lat.MustID(1, 0)
	g01 := lat.MustID(0, 1)
	g00 := lat.MustID(0, 0)

	// Insert chunks 0 and 1 of (1,1): the full first row of the detail level
	// (dimension A chunk 0 crossed with both B chunks).
	vcm.OnInsert(entry(g11, 0))
	vcm.OnInsert(entry(g11, 1))
	if got := vcm.Count(g11, 0); got != 1 {
		t.Fatalf("count (1,1)#0 = %d, want 1 (present, no other path)", got)
	}
	if got := vcm.Count(g11, 3); got != 0 {
		t.Fatalf("count (1,1)#3 = %d, want 0", got)
	}
	// (1,0)#0 aggregates (1,1)#{0,1}: computable though absent.
	if got := vcm.Count(g10, 0); got != 1 {
		t.Fatalf("count (1,0)#0 = %d, want 1 (computable via one parent)", got)
	}
	if got := vcm.Count(g10, 1); got != 0 {
		t.Fatalf("count (1,0)#1 = %d, want 0", got)
	}
	// (0,1) chunks need both A-chunks: not computable.
	if got := vcm.Count(g01, 0); got != 0 {
		t.Fatalf("count (0,1)#0 = %d, want 0", got)
	}
	// (0,0) needs everything: not computable yet.
	if got := vcm.Count(g00, 0); got != 0 {
		t.Fatalf("count (0,0)#0 = %d, want 0", got)
	}
	// Complete the base level and insert (0,0) itself: count becomes
	// presence (1) + paths through both parents (2) = 3 — the paper's value.
	vcm.OnInsert(entry(g11, 2))
	vcm.OnInsert(entry(g11, 3))
	vcm.OnInsert(entry(g00, 0))
	if got := vcm.Count(g00, 0); got != 3 {
		t.Fatalf("count (0,0)#0 = %d, want 3", got)
	}
	// Evicting one base chunk breaks both aggregate paths again.
	vcm.OnEvent(evicted(g11, 0))
	if got := vcm.Count(g00, 0); got != 1 {
		t.Fatalf("after evict, count (0,0)#0 = %d, want 1 (present only)", got)
	}
}

// TestVCMEvictAllReturnsToZero inserts a random set, evicts it, and expects
// a pristine count table.
func TestVCMEvictAllReturnsToZero(t *testing.T) {
	f := func(seed int64) bool {
		g := apb3Grid(t)
		lat := g.Lattice()
		vcm := NewVCM(g)
		rng := rand.New(rand.NewSource(seed))
		var keys []cache.Key
		seen := map[cache.Key]bool{}
		for i := 0; i < 40; i++ {
			gb := lattice.ID(rng.Intn(lat.NumNodes()))
			num := rng.Intn(g.NumChunks(gb))
			k := cache.Key{GB: gb, Num: int32(num)}
			if seen[k] {
				continue
			}
			seen[k] = true
			keys = append(keys, k)
			vcm.OnInsert(entry(gb, num))
		}
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		for _, k := range keys {
			vcm.OnEvent(evicted(k.GB, int(k.Num)))
		}
		for id := lattice.ID(0); int(id) < lat.NumNodes(); id++ {
			for n := 0; n < g.NumChunks(id); n++ {
				if vcm.Count(id, n) != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestLemma2UpdateBound checks the paper's bound on VCM insert maintenance:
// inserting a chunk at level (l_1..l_n) updates at most n·Π(l_i+1) counts.
func TestLemma2UpdateBound(t *testing.T) {
	g := apb3Grid(t)
	lat := g.Lattice()
	vcm := NewVCM(g)
	rng := rand.New(rand.NewSource(5))
	n := int64(lat.NumDims())
	for i := 0; i < 200; i++ {
		gb := lattice.ID(rng.Intn(lat.NumNodes()))
		num := rng.Intn(g.NumChunks(gb))
		before := vcm.Maintenance().Updates
		vcm.OnInsert(entry(gb, num))
		updates := vcm.Maintenance().Updates - before
		bound := n * int64(lat.Descendants(gb))
		if updates > bound {
			t.Fatalf("insert at %s: %d updates > bound %d",
				lat.LevelTupleString(gb), updates, bound)
		}
	}
}

// TestAmortizedInsertCheap re-inserts chunks whose aggregates are already
// computable: updates must not propagate (the paper's Table 2 shows zeros
// when loading (6,2,3,0,0) after the base level).
func TestAmortizedInsertCheap(t *testing.T) {
	g := fig4Grid(t)
	lat := g.Lattice()
	vcm := NewVCM(g)
	base := lat.Base()
	for n := 0; n < g.NumChunks(base); n++ {
		vcm.OnInsert(entry(base, n))
	}
	// Everything is computable now; inserting aggregate chunks must cost
	// exactly one update each (their own count increment).
	for _, id := range []lattice.ID{lat.MustID(1, 0), lat.MustID(0, 1)} {
		for n := 0; n < g.NumChunks(id); n++ {
			before := vcm.Maintenance().Updates
			vcm.OnInsert(entry(id, n))
			if got := vcm.Maintenance().Updates - before; got != 1 {
				t.Fatalf("insert of already-computable (%s,%d) did %d updates, want 1",
					lat.LevelTupleString(id), n, got)
			}
		}
	}
}

func TestNoAgg(t *testing.T) {
	g := fig4Grid(t)
	lat := g.Lattice()
	s := NewNoAgg(g)
	base := lat.Base()
	for n := 0; n < g.NumChunks(base); n++ {
		s.OnInsert(entry(base, n))
	}
	// Exact hits work.
	if _, found, _ := s.Find(base, 0); !found {
		t.Fatalf("present chunk not found")
	}
	// Aggregates are never answered, even though they are computable.
	if _, found, _ := s.Find(lat.Top(), 0); found {
		t.Fatalf("NoAgg must not aggregate")
	}
	s.OnEvent(evicted(base, 0))
	if _, found, _ := s.Find(base, 0); found {
		t.Fatalf("evicted chunk still found")
	}
	if s.Overhead() != 0 || s.Name() != "NoAgg" {
		t.Fatalf("NoAgg metadata wrong")
	}
}

func TestOverheadAccounting(t *testing.T) {
	g := apb3Grid(t)
	total := g.TotalChunks()
	sizes := sizer.NewEstimate(g, 100)
	if got := NewVCM(g).Overhead(); got != total {
		t.Fatalf("VCM overhead = %d, want %d", got, total)
	}
	if got := NewVCMC(g, sizes).Overhead(); got != 6*total {
		t.Fatalf("VCMC overhead = %d, want %d", got, 6*total)
	}
}

func TestPlanLeavesAndNodes(t *testing.T) {
	g := fig4Grid(t)
	lat := g.Lattice()
	vcm := NewVCM(g)
	base := lat.Base()
	for n := 0; n < g.NumChunks(base); n++ {
		vcm.OnInsert(entry(base, n))
	}
	plan, found, err := vcm.Find(lat.Top(), 0)
	if !found || err != nil {
		t.Fatalf("Find: %v %v", found, err)
	}
	leaves := plan.Leaves(nil)
	if len(leaves) != 4 {
		t.Fatalf("plan leaves = %v, want the 4 base chunks", leaves)
	}
	// 1 root + 2 mid + 4 leaves = 7 nodes.
	if got := plan.Nodes(); got != 7 {
		t.Fatalf("plan nodes = %d, want 7", got)
	}
}

func TestMaintSub(t *testing.T) {
	a := Maint{Updates: 10, Time: 100}
	b := Maint{Updates: 4, Time: 30}
	d := a.Sub(b)
	if d.Updates != 6 || d.Time != 70 {
		t.Fatalf("Sub = %+v", d)
	}
}

// TestNewByName: every accepted name builds the strategy of that Name, and
// any other — the exhaustive baselines included — is an error naming the
// accepted ones.
func TestNewByName(t *testing.T) {
	g := fig4Grid(t)
	sizes := sizer.NewEstimate(g, 100)
	for _, name := range []string{"VCM", "VCMC", "NoAgg"} {
		s, err := New(name, g, sizes)
		if err != nil {
			t.Fatalf("New(%s): %v", name, err)
		}
		if s.Name() != name {
			t.Fatalf("New(%s) built %s", name, s.Name())
		}
	}
	for _, name := range []string{"bogus", "ESM", "ESMC"} {
		if _, err := New(name, g, sizes); err == nil || !strings.Contains(err.Error(), "VCM, VCMC or NoAgg") {
			t.Fatalf("New(%s): err %v, want one naming VCM, VCMC and NoAgg", name, err)
		}
	}
}
