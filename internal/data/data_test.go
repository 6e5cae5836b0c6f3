package data

import (
	"testing"

	"aggcache/internal/schema"
)

func testSchema(t testing.TB) *schema.Schema {
	t.Helper()
	p := schema.MustNewDimension("Product", []schema.HierarchySpec{{Name: "Group", Card: 4}, {Name: "Code", Card: 16}})
	tm := schema.MustNewDimension("Time", []schema.HierarchySpec{{Name: "Year", Card: 2}, {Name: "Month", Card: 8}})
	c := schema.MustNewDimension("Channel", []schema.HierarchySpec{{Name: "Base", Card: 4}})
	return schema.MustNew("UnitSales", p, tm, c)
}

func TestTableAppendRow(t *testing.T) {
	tab := NewTable(testSchema(t))
	if tab.Len() != 0 {
		t.Fatalf("empty table Len = %d", tab.Len())
	}
	tab.Append([]int32{1, 2, 3}, 5.5)
	tab.Append([]int32{0, 0, 0}, 1.0)
	if tab.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tab.Len())
	}
	r := tab.Row(0)
	if r[0] != 1 || r[1] != 2 || r[2] != 3 {
		t.Fatalf("Row(0) = %v", r)
	}
	if tab.Value(1) != 1.0 {
		t.Fatalf("Value(1) = %v", tab.Value(1))
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("Append with wrong arity should panic")
		}
	}()
	tab.Append([]int32{1}, 0)
}

func TestGenerateDensityModel(t *testing.T) {
	s := testSchema(t)
	tab, err := Generate(s, Params{Rows: 300, Density: 0.7, TimeDim: 1, Seed: 1})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	n := tab.Len()
	if n < 210 || n > 420 {
		t.Fatalf("generated %d rows, want ~300", n)
	}
	// All members in range; all values positive.
	for i := 0; i < n; i++ {
		r := tab.Row(i)
		if r[0] < 0 || r[0] >= 16 || r[1] < 0 || r[1] >= 8 || r[2] < 0 || r[2] >= 4 {
			t.Fatalf("row %d out of range: %v", i, r)
		}
		if tab.Value(i) <= 0 {
			t.Fatalf("row %d non-positive value", i)
		}
	}
	// No duplicate cells.
	seen := make(map[[3]int32]bool, n)
	for i := 0; i < n; i++ {
		var k [3]int32
		copy(k[:], tab.Row(i))
		if seen[k] {
			t.Fatalf("duplicate cell %v", k)
		}
		seen[k] = true
	}
}

func TestGenerateDeterministic(t *testing.T) {
	s := testSchema(t)
	a, _ := Generate(s, Params{Rows: 200, Density: 0.5, TimeDim: 1, Seed: 9})
	b, _ := Generate(s, Params{Rows: 200, Density: 0.5, TimeDim: 1, Seed: 9})
	if a.Len() != b.Len() {
		t.Fatalf("non-deterministic row count: %d vs %d", a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		ra, rb := a.Row(i), b.Row(i)
		for d := range ra {
			if ra[d] != rb[d] {
				t.Fatalf("row %d differs", i)
			}
		}
		if a.Value(i) != b.Value(i) {
			t.Fatalf("value %d differs", i)
		}
	}
	c, _ := Generate(s, Params{Rows: 200, Density: 0.5, TimeDim: 1, Seed: 10})
	same := c.Len() == a.Len()
	if same {
		for i := 0; i < a.Len(); i++ {
			if a.Value(i) != c.Value(i) {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatalf("different seeds produced identical tables")
	}
}

func TestGenerateUniform(t *testing.T) {
	s := testSchema(t)
	tab, err := Generate(s, Params{Rows: 300, TimeDim: -1, Seed: 4})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if tab.Len() != 300 {
		t.Fatalf("uniform mode generated %d rows, want exactly 300", tab.Len())
	}
	seen := make(map[[3]int32]bool)
	for i := 0; i < tab.Len(); i++ {
		var k [3]int32
		copy(k[:], tab.Row(i))
		if seen[k] {
			t.Fatalf("duplicate cell %v", k)
		}
		seen[k] = true
	}
}

func TestGenerateClampsToCapacity(t *testing.T) {
	s := testSchema(t)
	// 16*4 = 64 distinct non-time combos, 8 months: at most 512 rows. A far
	// larger target must clamp rather than loop forever.
	tab, err := Generate(s, Params{Rows: 10_000, Density: 0.9, TimeDim: 1, Seed: 2})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if tab.Len() > 512 {
		t.Fatalf("generated %d rows, capacity is 512", tab.Len())
	}
	if tab.Len() < 300 {
		t.Fatalf("generated %d rows, expected near capacity", tab.Len())
	}
	// Uniform mode errors out instead.
	if _, err := Generate(s, Params{Rows: 1_000_000, TimeDim: -1, Seed: 2}); err == nil {
		t.Fatalf("uniform overflow: expected error")
	}
}

func TestGenerateErrors(t *testing.T) {
	s := testSchema(t)
	if _, err := Generate(s, Params{Rows: 0, Density: 0.5, TimeDim: 1}); err == nil {
		t.Errorf("Rows=0: expected error")
	}
	if _, err := Generate(s, Params{Rows: 10, Density: 0, TimeDim: 1}); err == nil {
		t.Errorf("Density=0: expected error")
	}
	if _, err := Generate(s, Params{Rows: 10, Density: 1.5, TimeDim: 1}); err == nil {
		t.Errorf("Density>1: expected error")
	}
	if _, err := Generate(s, Params{Rows: 10, Density: 0.5, TimeDim: 7}); err == nil {
		t.Errorf("TimeDim out of range: expected error")
	}
}
