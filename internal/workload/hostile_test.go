package workload

import (
	"testing"

	"aggcache/internal/mdq"
)

// FormatQuery must round-trip through the mdq compiler: the text form of a
// generated query compiles back to the same group-by and chunk region.
func TestFormatQueryRoundTrips(t *testing.T) {
	g := tinyGrid(t)
	gen, err := NewGenerator(g, DefaultMix, 2, 3)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	qs, _ := gen.Stream(300)
	for i, q := range qs {
		src := FormatQuery(g, q)
		got, _, err := mdq.Compile(src, g)
		if err != nil {
			t.Fatalf("query %d: Compile(%q): %v", i, src, err)
		}
		if got.GB != q.GB {
			t.Fatalf("query %d: %q compiled to GB %v, want %v", i, src, got.GB, q.GB)
		}
		for d := range q.Lo {
			if got.Lo[d] != q.Lo[d] || got.Hi[d] != q.Hi[d] {
				t.Fatalf("query %d: %q region dim %d = [%d,%d), want [%d,%d)",
					i, src, d, got.Lo[d], got.Hi[d], q.Lo[d], q.Hi[d])
			}
		}
	}
}

func TestZipfSkewsTowardFewQueries(t *testing.T) {
	g := tinyGrid(t)
	src, err := NewZipf(g, 64, 1.5, 5)
	if err != nil {
		t.Fatalf("NewZipf: %v", err)
	}
	counts := map[string]int{}
	const n = 2000
	for i := 0; i < n; i++ {
		counts[FormatQuery(g, src.Next())]++
	}
	if len(counts) < 2 {
		t.Fatalf("zipf stream produced %d distinct queries, want several", len(counts))
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	// Zipf(1.5) over 64 keys puts well over a quarter of the mass on the
	// hottest key; a uniform stream would put ~1.6% there.
	if frac := float64(max) / n; frac < 0.25 {
		t.Fatalf("hottest query fraction %.2f, want ≥ 0.25 (skew missing)", frac)
	}
}

func TestFlashCrowdRotatesHotspot(t *testing.T) {
	g := tinyGrid(t)
	src, err := NewFlashCrowd(g, 10, 9)
	if err != nil {
		t.Fatalf("NewFlashCrowd: %v", err)
	}
	var texts []string
	for i := 0; i < 30; i++ {
		texts = append(texts, FormatQuery(g, src.Next()))
	}
	for period := 0; period < 3; period++ {
		for i := 1; i < 10; i++ {
			if texts[period*10+i] != texts[period*10] {
				t.Fatalf("query %d differs within its crowd period", period*10+i)
			}
		}
	}
	if texts[0] == texts[10] && texts[10] == texts[20] {
		t.Fatalf("hotspot never rotated across periods")
	}
}

func TestScanFloodIsDetailedAndValid(t *testing.T) {
	g := tinyGrid(t)
	src, err := NewScanFlood(g, 4, 13)
	if err != nil {
		t.Fatalf("NewScanFlood: %v", err)
	}
	sch := g.Schema()
	for i := 0; i < 200; i++ {
		q := src.Next()
		if _, err := q.NumChunks(g); err != nil {
			t.Fatalf("query %d invalid: %v (%+v)", i, err, q)
		}
		lv := g.Lattice().Level(q.GB)
		for d := 0; d < sch.NumDims(); d++ {
			if lv[d] != sch.Dim(d).Hierarchy() {
				t.Fatalf("query %d groups dim %d at level %d, want most detailed %d",
					i, d, lv[d], sch.Dim(d).Hierarchy())
			}
		}
	}
}

func TestHostileConstructorValidation(t *testing.T) {
	g := tinyGrid(t)
	if _, err := NewZipf(g, 0, 1.5, 1); err == nil {
		t.Fatalf("NewZipf accepted empty pool")
	}
	if _, err := NewZipf(g, 8, 1.0, 1); err == nil {
		t.Fatalf("NewZipf accepted s=1")
	}
	if _, err := NewFlashCrowd(g, 0, 1); err == nil {
		t.Fatalf("NewFlashCrowd accepted period 0")
	}
	if _, err := NewScanFlood(g, 0, 1); err == nil {
		t.Fatalf("NewScanFlood accepted width 0")
	}
}
