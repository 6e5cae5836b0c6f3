package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"aggcache/internal/apb"
	"aggcache/internal/cache"
	"aggcache/internal/core"
	"aggcache/internal/strategy"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatchesSpec pins BENCHMARK.json to spec.go: the same workloads
// with the same reasons, the same metric names, units, directions and bounds,
// and the same window length.
func TestManifestMatchesSpec(t *testing.T) {
	m := readManifest(t)
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, defaultSeconds = %d", m.RunSeconds, defaultSeconds)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.Name || m.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q/%q, spec.go %q/%q", i, m.Workloads[i].Name, m.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(m.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n spec %+v", m.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(m.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n spec %+v", m.PerLayer, perLayer)
	}
}

// TestSmoke runs every workload end to end at -scale tiny: both passes, every
// metric of BENCHMARK.json emitted and finite, shape guards holding, and the
// traced pass's counts repeating exactly on the closed-loop workloads.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole stack; skipped under -short")
	}
	m := readManifest(t)
	out := t.TempDir()
	const window = 300 * time.Millisecond
	for _, spec := range workloads {
		rep, err := measure(apb.ScaleTiny, spec, 1, window, 2, out)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		for _, p := range rep.Problems {
			t.Errorf("%s: %s", spec.Name, p)
		}
		if rep.Failed != 0 {
			t.Errorf("%s: %d of %d requests failed", spec.Name, rep.Failed, rep.Attempted)
		}
		check := func(kind string, defs []metricDef, vals map[string]float64) {
			for _, d := range defs {
				v, ok := vals[d.Name]
				if !ok {
					t.Errorf("%s: %s metric %s not emitted", spec.Name, kind, d.Name)
				} else if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s: %s = %v", spec.Name, d.Name, v)
				}
				if d.Unit == "" {
					t.Errorf("%s has no unit", d.Name)
				}
			}
			if len(vals) != len(defs) {
				t.Errorf("%s: %d %s metrics emitted, BENCHMARK.json names %d", spec.Name, len(vals), kind, len(defs))
			}
		}
		check("end-to-end", m.EndToEnd, rep.E2E)
		check("per-layer", m.PerLayer, rep.Layers)
		for _, d := range m.EndToEnd {
			if rep.E2E[d.Name] <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must be positive", spec.Name, d.Name, rep.E2E[d.Name])
			}
		}
		if got := rep.Layers["trace.accounted_ratio"]; math.Abs(got-1) > 0.01 {
			t.Errorf("%s: layers account for %.4f of the client-observed latency", spec.Name, got)
		}
		if _, err := os.Stat(out + "/trace_" + spec.Name + ".jsonl"); err != nil {
			t.Errorf("%s: %v", spec.Name, err)
		}
		if spec.Open {
			if rep.Layers["cache.peer_fills_per_query"] <= 0 {
				t.Errorf("%s: no peer fills on the two-node workload", spec.Name)
			}
			continue
		}
		if rep.Layers["cache.peer_fills_per_query"] != 0 {
			t.Errorf("%s: peer fills on a one-node workload", spec.Name)
		}
		// One node has no asynchronous work: every span nests in its request.
		// (On two nodes a replicated put lands on the owner whenever it lands,
		// and the owner's strategy spans may straddle a request boundary.)
		if n := rep.Counts["stray_spans"]; n != 0 {
			t.Errorf("%s: %d spans fell outside the request that caused them", spec.Name, n)
		}
		again, err := measure(apb.ScaleTiny, spec, 1, window, 1, "")
		if err != nil {
			t.Fatalf("%s again: %v", spec.Name, err)
		}
		if !reflect.DeepEqual(rep.Counts, again.Counts) {
			t.Errorf("%s: traced counts differ between two runs of seed 1:\n %v\n %v", spec.Name, rep.Counts, again.Counts)
		}
	}
}

// TestDecoratorsForward checks that the traced stack is still the production
// stack as far as the engine and the mtier server can tell: everything they
// discover by type assertion survives the decorators.
func TestDecoratorsForward(t *testing.T) {
	ds, err := buildDataset(apb.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := findWorkload("paper_mix_open")
	st, err := buildStack(ds, spec, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	eng := st.nodes[0].engine
	if _, ok := eng.Cache().(*tracedStore); !ok {
		t.Fatalf("engine store is %T, want the traced store", eng.Cache())
	}
	if _, ok := eng.Cache().(core.PeerFiller); !ok {
		t.Error("traced store does not forward PeerFill")
	}
	if l, ok := eng.Cache().(interface{ Local() cache.Store }); !ok || l.Local() == nil {
		t.Error("traced store does not forward Local (peer requests would be served from the peer tier)")
	}
	if _, ok := eng.TierStats(); !ok {
		t.Error("TierStats does not reach the tiered store through the traced store")
	}
	if _, ok := strategy.AsCostEstimator(eng.Strategy()); !ok {
		t.Error("traced strategy hides VCMC's CostEstimate from the recycler")
	}
}

// TestRecyclingThroughTracedStrategy runs rollup_hit's traced pass and checks
// the recycler still admits intermediates, which it can only price through
// the strategy's CostEstimate.
func TestRecyclingThroughTracedStrategy(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole stack; skipped under -short")
	}
	spec, _ := findWorkload("rollup_hit")
	rep, err := measure(apb.ScaleSmall, spec, 1, 200*time.Millisecond, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Counts["recycled"] == 0 {
		t.Errorf("no intermediate was recycled in the traced pass: %v", rep.Counts)
	}
}

func TestResolveSelfTimes(t *testing.T) {
	tr := newTracer()
	add := func(req int, op string, start, end int64) {
		tr.spans = append(tr.spans, span{Req: req, Op: op, Start: start, End: end})
	}
	// Request 0: an insert with a nested listener call, two overlapping peer
	// fills, and an asynchronous put that outlives the request.
	add(0, opClientQuery, 0, 100)
	add(0, opCacheInsert, 10, 30)
	add(0, opStratInsert, 15, 25)
	add(0, opCacheFill, 40, 60)
	add(0, opCacheFill, 50, 80)
	add(0, opPeerPut, 90, 140)
	// A call still running from before the request began: detached, and it
	// must not stop the request from being resolved.
	add(0, opPeerGet, -5, 50)
	// Outside any request.
	add(-1, opCacheInsert, 200, 210)
	spans := tr.resolve()

	byOp := map[string][]span{}
	for _, s := range spans {
		byOp[s.Op] = append(byOp[s.Op], s)
	}
	root := byOp[opClientQuery][0]
	var sum int64
	for _, s := range spans {
		if s.Self < 0 {
			t.Errorf("%s [%d,%d): self %d < 0", s.Op, s.Start, s.End, s.Self)
		}
		if s.Req == 0 && (s.Parent >= 0 || s.Op == opClientQuery) {
			sum += s.Self
		}
	}
	if want := root.End - root.Start; sum != want {
		t.Errorf("self times of request 0 sum to %d, root span is %d", sum, want)
	}
	if got := byOp[opStratInsert][0]; got.Self != 10 || spans[got.Parent].Op != opCacheInsert {
		t.Errorf("listener span: self %d parent %s, want 10 under %s", got.Self, spans[got.Parent].Op, opCacheInsert)
	}
	if got := byOp[opCacheInsert][0]; got.Self != 10 {
		t.Errorf("insert self = %d, want 20 - 10 nested", got.Self)
	}
	// Overlapping siblings share their overlap once: [40,50) to the first,
	// [50,80) to the second, which started later.
	if a, b := byOp[opCacheFill][0], byOp[opCacheFill][1]; a.Self != 10 || b.Self != 30 || a.Parent != root.ID || b.Parent != root.ID {
		t.Errorf("overlapping fills: self %d/%d parents %d/%d", a.Self, b.Self, a.Parent, b.Parent)
	}
	if got := byOp[opPeerPut][0]; got.Parent != -1 || got.Self != 50 {
		t.Errorf("detached put: parent %d self %d", got.Parent, got.Self)
	}
	if got := byOp[opPeerGet][0]; got.Parent != -1 || got.Self != 55 {
		t.Errorf("detached get: parent %d self %d", got.Parent, got.Self)
	}
	if root.Self != 100-10-10-10-30 {
		t.Errorf("root self = %d, want 40", root.Self)
	}
	if tot := sumByOp(spans); tot[opCacheInsert].Calls != 1 || tot[opPeerPut].Calls != 0 {
		t.Errorf("sumByOp counts detached spans: %+v", tot)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([...], n=4) in Python 3.
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{5, 1, 9, 3, 7}, 2, 5, 8},
	}
	for _, c := range cases {
		q := quartilesOf(c.xs)
		if q.Q1 != c.q1 || q.Median != c.q2 || q.Q3 != c.q3 {
			t.Errorf("%v: got %v/%v/%v, want %v/%v/%v", c.xs, q.Q1, q.Median, q.Q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	qps := metricDef{Name: "qps", Better: higher, Bound: 0.10}
	lat := metricDef{Name: "lat_p50_ms", Better: lower, Bound: 0.10}
	q := func(med, q1, q3 float64) quartiles { return quartiles{Median: med, Q1: q1, Q3: q3, N: 10} }
	cases := []struct {
		d          metricDef
		base, cand quartiles
		want       string
	}{
		{qps, q(100, 99, 101), q(100.5, 99, 102), "within bound"},
		{qps, q(100, 99, 101), q(85, 84, 86), "regressed"},
		{qps, q(100, 99, 101), q(110, 109, 111), "improved"},
		{qps, q(100, 90, 110), q(100, 90, 110), "unresolved"},
		{lat, q(10, 9.9, 10.1), q(12, 11.9, 12.1), "regressed"},
		{lat, q(10, 9.9, 10.1), q(8, 7.9, 8.1), "improved"},
		{lat, q(10, 9.9, 10.1), q(10.5, 10, 11), "within bound"},
	}
	for _, c := range cases {
		if got, _, _ := judge(c.d, c.base, c.cand); got != c.want {
			t.Errorf("%s base %v new %v: %s, want %s", c.d.Name, c.base.Median, c.cand.Median, got, c.want)
		}
	}
}
