package bench

import (
	"context"
	"fmt"
	"time"

	"aggcache/internal/cache"
	"aggcache/internal/core"
	"aggcache/internal/strategy/exhaustive"
	"aggcache/internal/workload"
)

// StreamResult aggregates one system's run over a query stream.
type StreamResult struct {
	Queries      int
	CompleteHits int
	BudgetMisses int
	// Sum of per-query breakdowns over all queries and over the complete-hit
	// subset.
	All  core.Breakdown
	Hits core.Breakdown
}

// HitRatio returns the complete-hit percentage (Figure 7, Table 4).
func (r *StreamResult) HitRatio() float64 {
	return 100 * float64(r.CompleteHits) / float64(r.Queries)
}

// AvgAll returns the mean response time over all queries (Figures 8, 9).
func (r *StreamResult) AvgAll() time.Duration {
	return r.All.Total() / time.Duration(r.Queries)
}

// AvgHits returns the mean breakdown over complete-hit queries (Figure 10).
func (r *StreamResult) AvgHits() core.Breakdown {
	if r.CompleteHits == 0 {
		return core.Breakdown{}
	}
	return r.Hits.Scale(r.CompleteHits)
}

// RunStream executes the paper's query stream (30% drill-down, 30% roll-up,
// 30% proximity, 10% random) against a fresh system built by NewSystem. The
// stream is a deterministic function of the environment seed, so every
// system under comparison answers exactly the same queries.
func (e *Env) RunStream(cfg core.Config, preload bool) (*StreamResult, error) {
	return e.runStreamMix(cfg, preload, workload.DefaultMix)
}

// RunESM executes the same query stream against ESM, each lookup bounded by
// Cfg.LookupBudget, on the paper's flat stack (one preloaded two-level store
// of hotBytes), composed here because core.Build serves only VCM/VCMC/NoAgg.
func (e *Env) RunESM(hotBytes int64) (*StreamResult, error) {
	store, err := cache.New(hotBytes, cache.NewTwoLevel())
	if err != nil {
		return nil, err
	}
	eng, err := core.New(e.Grid, store, exhaustive.NewESM(e.Grid, e.Cfg.LookupBudget), e.Backend, e.Sizer)
	if err != nil {
		return nil, err
	}
	if _, _, err := eng.Preload(context.Background()); err != nil {
		return nil, err
	}
	return e.stream(eng, workload.DefaultMix)
}

// runStreamMix is the generic stream runner with an explicit query mix.
func (e *Env) runStreamMix(cfg core.Config, preload bool, mix workload.Mix) (*StreamResult, error) {
	sys, err := e.NewSystem(cfg, preload)
	if err != nil {
		return nil, err
	}
	return e.stream(sys.Engine, mix)
}

// stream runs the seeded stream of mix against eng.
func (e *Env) stream(eng *core.Engine, mix workload.Mix) (*StreamResult, error) {
	gen, err := workload.NewGenerator(e.Grid, mix, e.Cfg.MaxQueryWidth, e.Cfg.Seed+1000)
	if err != nil {
		return nil, err
	}
	res := &StreamResult{Queries: e.Cfg.Queries}
	for i := 0; i < e.Cfg.Queries; i++ {
		q, _ := gen.Next()
		out, err := eng.Execute(context.Background(), q)
		if err != nil {
			return nil, fmt.Errorf("bench: query %d: %w", i, err)
		}
		res.All.Add(out.Breakdown)
		if out.CompleteHit {
			res.CompleteHits++
			res.Hits.Add(out.Breakdown)
		}
		if out.BudgetExceeded {
			res.BudgetMisses++
		}
	}
	return res, nil
}

// Fig7And8 runs the replacement-policy comparison: the two-level policy
// (with preloading) against the plain benefit policy, both under VCMC, over
// the configured cache sizes. It regenerates Figure 7 (complete-hit ratios)
// and Figure 8 (average execution times).
func Fig7And8(e *Env) (*Report, *Report, error) {
	f7 := &Report{ID: "fig7", Title: "Complete hit ratios vs cache size (two-level vs benefit policy)",
		Header: []string{"cache", "two-level %hits", "benefit %hits"}}
	f8 := &Report{ID: "fig8", Title: "Average execution times vs cache size (two-level vs benefit policy)",
		Header: []string{"cache", "two-level avg ms", "benefit avg ms"}}
	for _, bytes := range e.CacheSizes() {
		two, err := e.RunStream(core.Config{Strategy: "VCMC", Policy: "two-level", HotBytes: bytes}, true)
		if err != nil {
			return nil, nil, err
		}
		ben, err := e.RunStream(core.Config{Strategy: "VCMC", Policy: "benefit", HotBytes: bytes}, false)
		if err != nil {
			return nil, nil, err
		}
		label := SizeLabel(bytes)
		f7.AddRow(label, fmt.Sprintf("%.0f", two.HitRatio()), fmt.Sprintf("%.0f", ben.HitRatio()))
		f8.AddRow(label, msString(two.AvgAll()), msString(ben.AvgAll()))
	}
	f7.Addf("paper shape: the two-level policy dominates, reaching 100%% once the base table fits")
	return f7, f8, nil
}

// Fig9 compares caching schemes: no aggregation (benefit policy), ESM and
// VCMC (both with the two-level policy) over the cache sizes — the paper's
// Figure 9.
func Fig9(e *Env) (*Report, error) {
	r := &Report{ID: "fig9", Title: "Average execution times: NoAgg vs ESM vs VCMC",
		Header: []string{"cache", "NoAgg avg ms", "ESM avg ms", "VCMC avg ms", "NoAgg %hits", "ESM %hits", "VCMC %hits", "ESM budget misses"}}
	for _, bytes := range e.CacheSizes() {
		noagg, err := e.RunStream(core.Config{Strategy: "NoAgg", Policy: "benefit", HotBytes: bytes}, false)
		if err != nil {
			return nil, err
		}
		esm, err := e.RunESM(bytes)
		if err != nil {
			return nil, err
		}
		vcmc, err := e.RunStream(core.Config{Strategy: "VCMC", Policy: "two-level", HotBytes: bytes}, true)
		if err != nil {
			return nil, err
		}
		r.AddRow(SizeLabel(bytes),
			msString(noagg.AvgAll()), msString(esm.AvgAll()), msString(vcmc.AvgAll()),
			fmt.Sprintf("%.0f", noagg.HitRatio()), fmt.Sprintf("%.0f", esm.HitRatio()), fmt.Sprintf("%.0f", vcmc.HitRatio()),
			fmt.Sprintf("%d", esm.BudgetMisses))
	}
	r.Addf("paper shape: both aggregation schemes beat NoAgg by a wide margin; VCMC ≤ ESM")
	return r, nil
}

// Fig10AndTable4 regenerates Figure 10 (time breakup of complete-hit
// queries, ESM vs VCMC) and Table 4 (complete-hit percentage and the VCMC
// over ESM speedup on complete hits).
func Fig10AndTable4(e *Env) (*Report, *Report, error) {
	f10 := &Report{ID: "fig10", Title: "Time breakup for complete-hit queries (ESM | VCMC), ms",
		Header: []string{"cache", "ESM lookup", "ESM agg", "ESM update", "VCMC lookup", "VCMC agg", "VCMC update"}}
	t4 := &Report{ID: "table4", Title: "Speedup of VCMC over ESM on complete hits",
		Header: []string{"metric"}}
	type row struct {
		hits    float64
		speedup float64
	}
	var rows []row
	var labels []string
	for _, bytes := range e.CacheSizes() {
		esm, err := e.RunESM(bytes)
		if err != nil {
			return nil, nil, err
		}
		vcmc, err := e.RunStream(core.Config{Strategy: "VCMC", Policy: "two-level", HotBytes: bytes}, true)
		if err != nil {
			return nil, nil, err
		}
		eh, vh := esm.AvgHits(), vcmc.AvgHits()
		f10.AddRow(SizeLabel(bytes),
			msString(eh.Lookup), msString(eh.Aggregate), msString(eh.Update),
			msString(vh.Lookup), msString(vh.Aggregate), msString(vh.Update))
		speedup := 0.0
		if vt := vh.Total(); vt > 0 {
			speedup = float64(eh.Total()) / float64(vt)
		}
		rows = append(rows, row{hits: vcmc.HitRatio(), speedup: speedup})
		labels = append(labels, SizeLabel(bytes))
	}
	t4.Header = append(t4.Header, labels...)
	hitsRow := []string{"% of complete hits"}
	spRow := []string{"speedup (VCMC/ESM)"}
	for _, r := range rows {
		hitsRow = append(hitsRow, fmt.Sprintf("%.0f", r.hits))
		spRow = append(spRow, fmt.Sprintf("%.2f", r.speedup))
	}
	t4.Rows = append(t4.Rows, hitsRow, spRow)
	f10.Addf("paper shape: ESM lookup dominates at small caches and vanishes once the base table fits")
	t4.Addf("paper: speedups 5.8 / 4.11 / 3.17 / 1.11 for 10–25MB")
	return f10, t4, nil
}

// Ablations quantifies the two-level policy's design choices (§6.3): group
// reinforcement, preloading, and backend-priority admission, using VCMC at
// the middle cache size.
func Ablations(e *Env) (*Report, error) {
	sizes := e.CacheSizes()
	bytes := sizes[len(sizes)/2]
	r := &Report{ID: "ablate", Title: fmt.Sprintf("Two-level policy ablations (VCMC, cache %s)", SizeLabel(bytes)),
		Header: []string{"variant", "%hits", "avg ms"}}
	variants := []struct {
		name    string
		cfg     core.Config
		preload bool
	}{
		{"two-level (full)", core.Config{Strategy: "VCMC", Policy: "two-level", HotBytes: bytes}, true},
		{"- reinforcement", core.Config{Strategy: "VCMC", Policy: "two-level", HotBytes: bytes, Options: []core.Option{core.WithReinforce(false)}}, true},
		{"- preload", core.Config{Strategy: "VCMC", Policy: "two-level", HotBytes: bytes}, false},
		{"- admission (benefit rings)", core.Config{Strategy: "VCMC", Policy: "benefit", HotBytes: bytes}, true},
		{"plain LRU baseline", core.Config{Strategy: "VCMC", Policy: "lru", HotBytes: bytes}, true},
	}
	for _, v := range variants {
		res, err := e.RunStream(v.cfg, v.preload)
		if err != nil {
			return nil, err
		}
		r.AddRow(v.name, fmt.Sprintf("%.0f", res.HitRatio()), msString(res.AvgAll()))
	}
	return r, nil
}
