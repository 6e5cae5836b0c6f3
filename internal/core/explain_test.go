package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"aggcache/internal/cache"
	"aggcache/internal/chunk"
	"aggcache/internal/lattice"
)

func TestExplainColdAndWarm(t *testing.T) {
	f := build(t, "VCMC", cache.NewTwoLevel(), 1<<20)
	lat := f.grid.Lattice()
	top := WholeGroupBy(lat.Top())

	out, err := f.engine.Explain(top)
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	if !strings.Contains(out, "not computable -> backend") {
		t.Fatalf("cold explain missing backend route:\n%s", out)
	}
	if !strings.Contains(out, "one batched request") {
		t.Fatalf("cold explain missing batch line:\n%s", out)
	}

	if _, err := f.engine.Execute(context.Background(), WholeGroupBy(lat.Base())); err != nil {
		t.Fatalf("warm: %v", err)
	}
	out, err = f.engine.Explain(top)
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	if !strings.Contains(out, "aggregate in cache") {
		t.Fatalf("warm explain missing aggregation plan:\n%s", out)
	}
	if !strings.Contains(out, "[cached]") {
		t.Fatalf("warm explain missing cached leaves:\n%s", out)
	}
	if !strings.Contains(out, "complete hit") {
		t.Fatalf("warm explain missing complete-hit line:\n%s", out)
	}
	// Explain must not execute: the top chunk is still not resident.
	if _, ok := f.engine.Cache().Peek(cache.Key{GB: lat.Top(), Num: 0}); ok {
		t.Fatalf("Explain materialized the chunk")
	}

	// A resident chunk explains as resident.
	if _, err := f.engine.Execute(context.Background(), top); err != nil {
		t.Fatalf("execute top: %v", err)
	}
	out, _ = f.engine.Explain(top)
	if !strings.Contains(out, "resident in cache") {
		t.Fatalf("resident explain wrong:\n%s", out)
	}

	// Invalid queries error.
	if _, err := f.engine.Explain(Query{GB: 9999}); err == nil {
		t.Fatalf("expected error")
	}
}

// TestExplainRecycleAnnotation: with recycling on, every interior plan node
// Explain prints carries the recycler's verdict and its benefit score; with
// recycling off, the node says so.
func TestExplainRecycleAnnotation(t *testing.T) {
	probe := func(t *testing.T, f *fixture) string {
		t.Helper()
		lat := f.grid.Lattice()
		if _, err := f.engine.Execute(context.Background(), WholeGroupBy(lat.Base())); err != nil {
			t.Fatalf("warm: %v", err)
		}
		out, err := f.engine.Explain(WholeGroupBy(lat.Top()))
		if err != nil {
			t.Fatalf("Explain: %v", err)
		}
		if !strings.Contains(out, "aggregate in cache") {
			t.Fatalf("explain has no aggregation plan:\n%s", out)
		}
		return out
	}

	// Admit-everything threshold: every interior node annotated as admitted,
	// with a benefit score.
	f := build(t, "VCMC", cache.NewTwoLevelPromote(), 1<<20,
		WithRecycling(true), WithRecycleMinBenefit(1e-9))
	out := probe(t, f)
	if !strings.Contains(out, "[recycle: admit, benefit ") {
		t.Fatalf("no admit annotation on interior nodes:\n%s", out)
	}
	if strings.Contains(out, "[recycle: reject") {
		t.Fatalf("unexpected reject at admit-everything threshold:\n%s", out)
	}

	if strings.Contains(out, "[inlined]") {
		t.Fatalf("admitted nodes are materialized, not inlined:\n%s", out)
	}

	// Prohibitive threshold: same plan, all interior nodes rejected — and a
	// rejected node is inlined, never built.
	f = build(t, "VCMC", cache.NewTwoLevelPromote(), 1<<20,
		WithRecycling(true), WithRecycleMinBenefit(1e12))
	out = probe(t, f)
	if !strings.Contains(out, "[recycle: reject, benefit ") {
		t.Fatalf("no reject annotation at prohibitive threshold:\n%s", out)
	}
	if strings.Count(out, "[inlined]") != strings.Count(out, "[recycle: reject") {
		t.Fatalf("every rejected interior node should read inlined:\n%s", out)
	}

	// Recycling off: interior nodes say so instead of carrying a verdict.
	f = build(t, "VCMC", cache.NewTwoLevel(), 1<<20)
	out = probe(t, f)
	if !strings.Contains(out, "[recycle: off] [inlined]") {
		t.Fatalf("no recycle-off, inlined annotation:\n%s", out)
	}
	if strings.Contains(out, "[recycle: admit") || strings.Contains(out, "[recycle: reject") {
		t.Fatalf("verdict printed with recycling off:\n%s", out)
	}
}

// TestExplainScanTotal: the "scans N tuples" figure Explain prints is what
// the executor then really scans. With every interior node inlined that is
// exactly the plan's leaf cells; an admitted node adds the re-scan of its
// own (sizer-estimated) cells.
func TestExplainScanTotal(t *testing.T) {
	scans := func(t *testing.T, out string) int64 {
		t.Helper()
		var total int64
		for _, line := range strings.Split(out, "\n") {
			if i := strings.Index(line, ", scans "); i >= 0 {
				var n int64
				if _, err := fmt.Sscanf(line[i:], ", scans %d tuples)", &n); err != nil {
					t.Fatalf("unparsable scan total in %q: %v", line, err)
				}
				total += n
			}
		}
		return total
	}
	run := func(t *testing.T, minBenefit float64, warm ...lattice.ID) (explained, executed int64, f *fixture) {
		t.Helper()
		f = build(t, "VCMC", cache.NewTwoLevelPromote(), 1<<20,
			WithRecycling(true), WithRecycleMinBenefit(minBenefit))
		lat := f.grid.Lattice()
		for _, gb := range append([]lattice.ID{lat.Base()}, warm...) {
			if _, err := f.engine.Execute(context.Background(), WholeGroupBy(gb)); err != nil {
				t.Fatalf("warm %v: %v", gb, err)
			}
		}
		out, err := f.engine.Explain(WholeGroupBy(lat.Top()))
		if err != nil {
			t.Fatalf("Explain: %v", err)
		}
		res, err := f.engine.Execute(context.Background(), WholeGroupBy(lat.Top()))
		if err != nil {
			t.Fatalf("Execute: %v", err)
		}
		return scans(t, out), res.AggregatedTuples, f
	}

	inlined, executed, f := run(t, 1e12)
	if inlined != executed {
		t.Fatalf("all-inlined plan: Explain says %d tuples, the executor scanned %d", inlined, executed)
	}
	var baseCells int64
	f.engine.Cache().Range(func(k cache.Key, data *chunk.Chunk, _ cache.Class, _ float64, _ bool) {
		if k.GB == f.grid.Lattice().Base() {
			baseCells += int64(data.Cells())
		}
	})
	if inlined != baseCells {
		t.Fatalf("all-inlined plan scans %d tuples, the base group-by holds %d cells", inlined, baseCells)
	}
	if st := f.engine.Stats(); st.Recycled != 0 || st.RecycleRejected == 0 {
		t.Fatalf("prohibitive threshold: recycled %d, rejected %d", st.Recycled, st.RecycleRejected)
	}

	// Admit-everything: an executed two-level roll-up of the base leaves its
	// result resident and recycles its interior node, so the plan for the top
	// starts there and is shorter and cheaper; the admitted nodes' own cells
	// come from the sizer, so allow it its error.
	lat := f.grid.Lattice()
	mid := lat.Children(lat.Children(lat.Base())[0])[0]
	admitted, executed, f := run(t, 1e-9, mid)
	if admitted >= inlined || executed >= inlined {
		t.Fatalf("plan over recycled intermediates should scan less than the base: Explain %d, executor %d, base %d", admitted, executed, inlined)
	}
	if d := admitted - executed; d < -executed/4 || d > executed/4 {
		t.Fatalf("all-admitted plan: Explain says %d tuples, the executor scanned %d", admitted, executed)
	}
	if st := f.engine.Stats(); st.Recycled == 0 {
		t.Fatalf("admit-everything threshold recycled nothing")
	}
}

// TestExplainPlanCostFallback: ESM plans carry no cost; Explain reports the
// leaves' cells, which is what the flattened roll-up scans.
func TestExplainPlanCostFallback(t *testing.T) {
	f := build(t, "ESM", cache.NewTwoLevel(), 1<<20)
	lat := f.grid.Lattice()
	if _, err := f.engine.Execute(context.Background(), WholeGroupBy(lat.Base())); err != nil {
		t.Fatalf("warm: %v", err)
	}
	out, err := f.engine.Explain(WholeGroupBy(lat.Top()))
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	if !strings.Contains(out, "aggregate in cache (cost") {
		t.Fatalf("ESM explain missing cost:\n%s", out)
	}
}
