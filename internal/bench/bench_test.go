package bench

import (
	"math"
	"strings"
	"testing"

	"aggcache/internal/apb"
	"aggcache/internal/backend"
	"aggcache/internal/core"
)

// tinyConfig keeps experiment tests fast.
func tinyConfig() Config {
	cfg := DefaultConfig(apb.ScaleTiny)
	cfg.Queries = 40
	cfg.LookupBudget = 200_000
	cfg.Latency = backend.LatencyModel{Connect: 100_000, PerTuple: 100} // ns values
	return cfg
}

func tinyEnv(t testing.TB) *Env {
	t.Helper()
	e, err := NewEnv(tinyConfig())
	if err != nil {
		t.Fatalf("NewEnv: %v", err)
	}
	return e
}

func TestRunAllExperiments(t *testing.T) {
	e := tinyEnv(t)
	reports, err := Run(e, "all")
	if err != nil {
		t.Fatalf("Run(all): %v", err)
	}
	if len(reports) < 12 {
		t.Fatalf("got %d reports, want ≥ 12", len(reports))
	}
	seen := map[string]bool{}
	gated := map[string]bool{"cluster": true, "overload": true, "recycle": true, "tiered": true}
	for _, r := range reports {
		if r.ID == "" || r.Title == "" {
			t.Fatalf("report missing metadata: %+v", r)
		}
		seen[r.ID] = true
		// Floors are calibrated for the make bench-* scales; at tiny scale
		// the verdicts are reported, not enforced.
		if gated[r.ID] != (len(r.Gates) > 0) {
			t.Fatalf("%s: %d gates, want gates only on %v", r.ID, len(r.Gates), gated)
		}
		for _, g := range r.Gates {
			t.Logf("%s %s", r.ID, g)
		}
		out := r.String()
		if !strings.Contains(out, r.ID) {
			t.Fatalf("String() does not include the id:\n%s", out)
		}
	}
	for _, id := range []string{"table1", "table2", "table3", "fig7", "fig8", "fig9", "fig10", "table4", "unit-aggbenefit", "unit-costvar", "lemma1", "lemma2", "ablate"} {
		if !seen[id] {
			t.Fatalf("missing report %s (have %v)", id, seen)
		}
	}
}

func TestRunSingleAndAliases(t *testing.T) {
	e := tinyEnv(t)
	rs, err := Run(e, "table3")
	if err != nil || len(rs) != 1 || rs[0].ID != "table3" {
		t.Fatalf("Run(table3) = %v, %v", rs, err)
	}
	rs, err = Run(e, "fig8")
	if err != nil || len(rs) != 2 {
		t.Fatalf("Run(fig8 alias) = %v, %v", rs, err)
	}
	if _, err := Run(e, "nope"); err == nil {
		t.Fatalf("unknown experiment: expected error")
	}
	ids := IDs()
	if len(ids) < 11 {
		t.Fatalf("IDs = %v", ids)
	}
}

// TestFig9ShapeHolds checks the paper's headline comparison on the tiny
// scale: the aggregate aware schemes achieve strictly more complete hits
// than the no-aggregation baseline.
func TestFig9ShapeHolds(t *testing.T) {
	e := tinyEnv(t)
	sizes := e.CacheSizes()
	bytes := sizes[len(sizes)-1]
	noagg, err := e.RunStream(core.Config{Strategy: "NoAgg", Policy: "benefit", HotBytes: bytes}, false)
	if err != nil {
		t.Fatalf("noagg: %v", err)
	}
	vcmc, err := e.RunStream(core.Config{Strategy: "VCMC", Policy: "two-level", HotBytes: bytes}, true)
	if err != nil {
		t.Fatalf("vcmc: %v", err)
	}
	if vcmc.CompleteHits <= noagg.CompleteHits {
		t.Fatalf("VCMC hits %d not above NoAgg hits %d", vcmc.CompleteHits, noagg.CompleteHits)
	}
	// With the largest cache the base table fits, so after preloading the
	// two-level VCMC system answers everything from the cache.
	if vcmc.HitRatio() != 100 {
		t.Fatalf("VCMC hit ratio %.0f%%, want 100%% with the base table cached", vcmc.HitRatio())
	}
}

// TestStreamDeterminism: identical specs produce identical hit counts.
func TestStreamDeterminism(t *testing.T) {
	e := tinyEnv(t)
	cfg := core.Config{Strategy: "VCM", Policy: "two-level", HotBytes: e.CacheSizes()[0]}
	a, err := e.RunStream(cfg, true)
	if err != nil {
		t.Fatalf("a: %v", err)
	}
	b, err := e.RunStream(cfg, true)
	if err != nil {
		t.Fatalf("b: %v", err)
	}
	if a.CompleteHits != b.CompleteHits || a.BudgetMisses != b.BudgetMisses {
		t.Fatalf("stream runs diverged: %+v vs %+v", a, b)
	}
}

func TestTable2LevelsAPBNotation(t *testing.T) {
	cfg := DefaultConfig(apb.ScaleSmall)
	cfg.Latency = backend.LatencyModel{}
	e, err := NewEnv(cfg)
	if err != nil {
		t.Fatalf("NewEnv: %v", err)
	}
	a, b, err := e.table2Levels()
	if err != nil {
		t.Fatalf("table2Levels: %v", err)
	}
	lat := e.Grid.Lattice()
	if got := lat.LevelTupleString(a); got != "(6,2,3,1,0)" {
		t.Fatalf("level A = %s, want (6,2,3,1,0)", got)
	}
	if got := lat.LevelTupleString(b); got != "(6,2,3,0,0)" {
		t.Fatalf("level B = %s, want (6,2,3,0,0)", got)
	}
}

func TestWriteCSV(t *testing.T) {
	r := &Report{ID: "x", Title: "t", Header: []string{"a", "b"}}
	r.AddRow("1", "2")
	r.AddRow("3", "4")
	var buf strings.Builder
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	if got := buf.String(); got != "a,b\n1,2\n3,4\n" {
		t.Fatalf("csv = %q", got)
	}
	// Tableless reports write nothing.
	empty := &Report{ID: "y", Title: "t"}
	buf.Reset()
	if err := empty.WriteCSV(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("tableless csv = %q, %v", buf.String(), err)
	}
}

func TestSizeLabel(t *testing.T) {
	if got := SizeLabel(25 << 20); got != "25.0MB" {
		t.Fatalf("SizeLabel = %q", got)
	}
	if got := SizeLabel(2048); got != "2KB" {
		t.Fatalf("SizeLabel = %q", got)
	}
	if got := SizeLabel(100); got != "100B" {
		t.Fatalf("SizeLabel = %q", got)
	}
}

func TestNewSystemErrors(t *testing.T) {
	e := tinyEnv(t)
	if _, err := e.NewSystem(core.Config{Strategy: "bogus", Policy: "benefit", HotBytes: 1000}, false); err == nil {
		t.Fatalf("bogus strategy: expected error")
	}
	if _, err := e.NewSystem(core.Config{Strategy: "VCM", Policy: "bogus", HotBytes: 1000}, false); err == nil {
		t.Fatalf("bogus policy: expected error")
	}
	if _, err := e.NewSystem(core.Config{Strategy: "VCM", Policy: "benefit", HotBytes: 0}, false); err == nil {
		t.Fatalf("zero capacity: expected error")
	}
}

func TestAccumulator(t *testing.T) {
	var a accumulator
	if a.Avg() != 0 {
		t.Fatalf("empty Avg = %v", a.Avg())
	}
	a.Observe(10)
	a.Observe(30)
	a.Observe(20)
	if a.Min != 10 || a.Max != 30 || a.Avg() != 20 || a.N != 3 {
		t.Fatalf("acc = %+v", a)
	}
}

// TestGatesFailOnABrokenFloor feeds each gated experiment's floors one
// passing metrics value and then one that breaks a single floor: the broken
// floor's verdict must fail, which is what makes cmd/aggbench exit non-zero.
func TestGatesFailOnABrokenFloor(t *testing.T) {
	cluster := func() []Gate {
		m := clusterMetrics{MonotonicQPS: true, MonotonicHit: true}
		return clusterGates(&m)
	}
	overload := func() *overloadMetrics {
		m := &overloadMetrics{GoodputRatio2x: 0.95, P99Bounded: true}
		m.Fairness.HitDropPoints = 1.5
		m.Fairness.FloodQuotaSheds = 12
		return m
	}
	recycle := func() *recycleMetrics {
		return &recycleMetrics{DrillQPSRatio: 1.2, DrillHitGain: 0.01, ProximityQPSRatio: 0.97}
	}
	tiered := func() *tieredMetrics {
		return &tieredMetrics{RAMHit: 0.4, TieredHit: 0.6, Recovery: 0.9, QPSRatio: 0.95}
	}
	cases := []struct {
		name string
		pass []Gate
		fail []Gate
		gate string
	}{
		{"cluster qps", cluster(), func() []Gate {
			m := clusterMetrics{MonotonicQPS: false, MonotonicHit: true}
			return clusterGates(&m)
		}(), "monotonic_qps"},
		{"cluster hit rate", cluster(), func() []Gate {
			m := clusterMetrics{MonotonicQPS: true, MonotonicHit: false}
			return clusterGates(&m)
		}(), "monotonic_hit_rate"},
		{"overload goodput", overloadGates(overload()), func() []Gate {
			m := overload()
			m.GoodputRatio2x = 0.79
			return overloadGates(m)
		}(), "goodput_ratio_2x"},
		{"overload p99", overloadGates(overload()), func() []Gate {
			m := overload()
			m.P99Bounded = false
			return overloadGates(m)
		}(), "p99_bounded"},
		{"overload fairness", overloadGates(overload()), func() []Gate {
			m := overload()
			m.Fairness.HitDropPoints = 5.1
			return overloadGates(m)
		}(), "fairness.hit_drop_points"},
		{"overload quota", overloadGates(overload()), func() []Gate {
			m := overload()
			m.Fairness.FloodQuotaSheds = 0
			return overloadGates(m)
		}(), "fairness.flood_quota_sheds"},
		{"recycle drill qps", recycleGates(recycle()), func() []Gate {
			m := recycle()
			m.DrillQPSRatio = 0.99
			return recycleGates(m)
		}(), "drill_qps_ratio"},
		{"recycle drill hit", recycleGates(recycle()), func() []Gate {
			m := recycle()
			m.DrillHitGain = -0.01
			return recycleGates(m)
		}(), "drill_hit_gain"},
		{"recycle proximity", recycleGates(recycle()), func() []Gate {
			m := recycle()
			m.ProximityQPSRatio = math.NaN()
			return recycleGates(m)
		}(), "proximity_qps_ratio"},
		{"tiered hit", tieredGates(tiered()), func() []Gate {
			m := tiered()
			m.TieredHit = 0.39
			return tieredGates(m)
		}(), "tiered_hit"},
		{"tiered recovery", tieredGates(tiered()), func() []Gate {
			m := tiered()
			m.Recovery = 0.79
			return tieredGates(m)
		}(), "warm_restart_recovery"},
		{"tiered qps", tieredGates(tiered()), func() []Gate {
			m := tiered()
			m.QPSRatio = 0.89
			return tieredGates(m)
		}(), "qps_ratio"},
	}
	for _, tc := range cases {
		if failed := FailedGates([]*Report{{Gates: tc.pass}}); len(failed) != 0 {
			t.Fatalf("%s: passing metrics failed %v", tc.name, failed)
		}
		failed := FailedGates([]*Report{{Gates: tc.pass}, {Gates: tc.fail}})
		if len(failed) != 1 || failed[0].Name != tc.gate {
			t.Fatalf("%s: failed gates %v, want exactly %s", tc.name, failed, tc.gate)
		}
		if !strings.Contains(failed[0].String(), "FAIL") {
			t.Fatalf("%s: verdict %q does not say FAIL", tc.name, failed[0])
		}
	}
}
