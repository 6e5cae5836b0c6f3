package lattice

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"aggcache/internal/schema"
)

// paperSchema builds the 3-dimension schema of the paper's Example 2:
// dimensions A and C with single-level hierarchies, B with a two-level one.
func paperSchema(t *testing.T) *schema.Schema {
	t.Helper()
	a := schema.MustNewDimension("A", []schema.HierarchySpec{{Name: "A1", Card: 4}})
	b := schema.MustNewDimension("B", []schema.HierarchySpec{{Name: "B1", Card: 2}, {Name: "B2", Card: 4}})
	c := schema.MustNewDimension("C", []schema.HierarchySpec{{Name: "C1", Card: 4}})
	return schema.MustNew("M", a, b, c)
}

func TestLatticeExample2(t *testing.T) {
	l := New(paperSchema(t))
	// (1+1)*(2+1)*(1+1) = 12 nodes.
	if got := l.NumNodes(); got != 12 {
		t.Fatalf("NumNodes = %d, want 12", got)
	}
	base := l.Base()
	if got := l.Level(base); got[0] != 1 || got[1] != 2 || got[2] != 1 {
		t.Fatalf("base level = %v, want (1,2,1)", got)
	}
	if len(l.Parents(base)) != 0 {
		t.Fatalf("base has parents: %v", l.Parents(base))
	}
	top := l.Top()
	if got := l.Level(top); got[0] != 0 || got[1] != 0 || got[2] != 0 {
		t.Fatalf("top level = %v, want (0,0,0)", got)
	}
	if len(l.Children(top)) != 0 {
		t.Fatalf("top has children: %v", l.Children(top))
	}
	// From the paper's Figure 3 discussion: (0,2,0) can be computed from
	// (0,2,1) or (1,2,0).
	n020 := l.MustID(0, 2, 0)
	ps := l.Parents(n020)
	if len(ps) != 2 {
		t.Fatalf("parents of (0,2,0): got %d, want 2", len(ps))
	}
	want := map[ID]bool{l.MustID(1, 2, 0): true, l.MustID(0, 2, 1): true}
	for _, p := range ps {
		if !want[p] {
			t.Fatalf("unexpected parent %s of (0,2,0)", l.LevelTupleString(p))
		}
	}
	// Group-by (0,2,0) is computable from (0,2,1) and (1,2,1) but not (1,1,1).
	if !l.ComputableFrom(n020, l.MustID(0, 2, 1)) {
		t.Errorf("(0,2,0) should be computable from (0,2,1)")
	}
	if !l.ComputableFrom(n020, l.Base()) {
		t.Errorf("(0,2,0) should be computable from base")
	}
	if l.ComputableFrom(n020, l.MustID(1, 1, 1)) {
		t.Errorf("(0,2,0) should not be computable from (1,1,1)")
	}
}

func TestIDLevelRoundTrip(t *testing.T) {
	l := New(paperSchema(t))
	for id := ID(0); int(id) < l.NumNodes(); id++ {
		got, err := l.IDOf(l.Level(id))
		if err != nil {
			t.Fatalf("IDOf(%v): %v", l.Level(id), err)
		}
		if got != id {
			t.Fatalf("round trip %d -> %v -> %d", id, l.Level(id), got)
		}
	}
	if _, err := l.IDOf([]int{9, 9, 9}); err == nil {
		t.Fatalf("IDOf out of range: expected error")
	}
}

func TestParentChildSymmetry(t *testing.T) {
	l := New(paperSchema(t))
	for id := ID(0); int(id) < l.NumNodes(); id++ {
		for i, p := range l.Parents(id) {
			found := false
			for _, c := range l.Children(p) {
				if c == id {
					found = true
				}
			}
			if !found {
				t.Fatalf("node %d parent %d missing reverse child edge", id, p)
			}
			d := l.ParentDims(id)[i]
			if l.LevelAt(p, int(d)) != l.LevelAt(id, int(d))+1 {
				t.Fatalf("parent dim mismatch for %d->%d", id, p)
			}
			// The parent differs on its ParentDims dimension alone.
			for e := 0; e < l.NumDims(); e++ {
				if e != int(d) && l.LevelAt(p, e) != l.LevelAt(id, e) {
					t.Fatalf("parent %d of %d (dim %d) also differs on dim %d", p, id, d, e)
				}
			}
		}
		for i, c := range l.Children(id) {
			d := l.ChildDims(id)[i]
			if l.LevelAt(c, int(d)) != l.LevelAt(id, int(d))-1 {
				t.Fatalf("child dim mismatch for %d->%d", id, c)
			}
		}
	}
}

func TestDescendants(t *testing.T) {
	l := New(paperSchema(t))
	if got := l.Descendants(l.Base()); got != 12 {
		t.Fatalf("Descendants(base) = %d, want 12", got)
	}
	if got := l.Descendants(l.Top()); got != 1 {
		t.Fatalf("Descendants(top) = %d, want 1", got)
	}
	if got := l.Descendants(l.MustID(1, 1, 0)); got != 4 {
		t.Fatalf("Descendants((1,1,0)) = %d, want 4", got)
	}
}

// pathCountDP counts base-reaching paths by dynamic programming over parent
// edges — the oracle for Lemma 1.
func pathCountDP(l *Lattice, id ID) *big.Int {
	memo := make(map[ID]*big.Int)
	var rec func(ID) *big.Int
	rec = func(n ID) *big.Int {
		if v, ok := memo[n]; ok {
			return v
		}
		ps := l.Parents(n)
		if len(ps) == 0 {
			return big.NewInt(1)
		}
		sum := new(big.Int)
		for _, p := range ps {
			sum.Add(sum, rec(p))
		}
		memo[n] = sum
		return sum
	}
	return rec(id)
}

// TestLemma1 verifies the closed-form path count against the DP oracle on
// the paper's example schema and on random lattices.
func TestLemma1(t *testing.T) {
	l := New(paperSchema(t))
	for id := ID(0); int(id) < l.NumNodes(); id++ {
		want := pathCountDP(l, id)
		got := l.PathCount(id)
		if got.Cmp(want) != 0 {
			t.Fatalf("PathCount(%s) = %v, want %v", l.LevelTupleString(id), got, want)
		}
	}
}

func TestLemma1Property(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nd := 1 + rng.Intn(3)
		dims := make([]*schema.Dimension, nd)
		for d := range dims {
			nl := 1 + rng.Intn(3)
			specs := make([]schema.HierarchySpec, nl)
			card := 1
			for i := range specs {
				card *= 2
				specs[i] = schema.HierarchySpec{Name: string(rune('A' + i)), Card: card}
			}
			dims[d] = schema.MustNewDimension(string(rune('X'+d)), specs)
		}
		l := New(schema.MustNew("M", dims...))
		for id := ID(0); int(id) < l.NumNodes(); id++ {
			if l.PathCount(id).Cmp(pathCountDP(l, id)) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestAPBLatticeSize checks the paper's claim that the APB-1 lattice has
// (6+1)(2+1)(3+1)(1+1)(1+1) = 336 nodes and that the most aggregated node has
// 13!/(6!·2!·3!·1!·1!) paths to the base.
func TestAPBLatticeSize(t *testing.T) {
	mk := func(name string, cards ...int) *schema.Dimension {
		specs := make([]schema.HierarchySpec, len(cards))
		for i, c := range cards {
			specs[i] = schema.HierarchySpec{Name: string(rune('a' + i)), Card: c}
		}
		return schema.MustNewDimension(name, specs)
	}
	s := schema.MustNew("UnitSales",
		mk("Product", 2, 4, 8, 16, 32, 64),
		mk("Customer", 3, 9),
		mk("Time", 2, 8, 24),
		mk("Channel", 10),
		mk("Scenario", 2),
	)
	l := New(s)
	if got := l.NumNodes(); got != 336 {
		t.Fatalf("NumNodes = %d, want 336", got)
	}
	// 13! / (6! 2! 3!) = 5765760/ ... compute explicitly.
	want := new(big.Int).MulRange(1, 13)
	want.Div(want, new(big.Int).MulRange(1, 6))
	want.Div(want, new(big.Int).MulRange(1, 2))
	want.Div(want, new(big.Int).MulRange(1, 3))
	if got := l.PathCount(l.Top()); got.Cmp(want) != 0 {
		t.Fatalf("PathCount(top) = %v, want %v", got, want)
	}
	if got := l.PathCount(l.Base()); got.Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("PathCount(base) = %v, want 1", got)
	}
}

func TestStrings(t *testing.T) {
	l := New(paperSchema(t))
	if got := l.LevelTupleString(l.MustID(0, 2, 0)); got != "(0,2,0)" {
		t.Fatalf("LevelTupleString = %q", got)
	}
	if got := l.String(l.MustID(0, 2, 0)); got != "(A:ALL, B:B2, C:ALL)" {
		t.Fatalf("String = %q", got)
	}
}
