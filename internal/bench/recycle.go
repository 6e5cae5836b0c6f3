package bench

import (
	"context"
	"fmt"
	"time"

	"aggcache/internal/core"
	"aggcache/internal/workload"
)

// recycleJSONFile is the machine-readable artifact Recycle writes next to its
// report, with the verdicts of recycleGates.
const recycleJSONFile = "BENCH_9.json"

// recycleRow is one (mix, mode) cell of BENCH_9.json.
type recycleRow struct {
	Mix           string  `json:"mix"`
	Mode          string  `json:"mode"`
	Queries       int64   `json:"queries"`
	SimMs         float64 `json:"sim_ms"`
	QPS           float64 `json:"qps"`
	HitRate       float64 `json:"complete_hit_rate"`
	BackendTuples int64   `json:"backend_tuples"`
	AggTuples     int64   `json:"agg_tuples"`
	Recycled      int64   `json:"recycled"`
}

// recycleMetrics is the BENCH_9.json schema.
type recycleMetrics struct {
	artifact
	Rows []recycleRow `json:"rows"`
	// DrillQPSRatio is qps(on)/qps(off) on the drill mix — the headline
	// number for the recycler. QPS here is queries over simulated response
	// time (the repo's standard cost metric), so the ratio is deterministic
	// for a given seed and does not wobble with CI machine load.
	DrillQPSRatio float64 `json:"drill_qps_ratio"`
	// DrillAggRatio is agg_tuples(off)/agg_tuples(on) on the drill mix: the
	// detailed cost-savings view of the same gain (aggregation work avoided
	// by reusing recycled intermediates).
	DrillAggRatio float64 `json:"drill_agg_ratio"`
	// DrillHitGain is hit_rate(on) − hit_rate(off) on the drill mix.
	DrillHitGain float64 `json:"drill_hit_gain"`
	// ProximityQPSRatio is the no-regression check on the proximity mix.
	ProximityQPSRatio float64 `json:"proximity_qps_ratio"`
}

// recycleMixes are the two streams. Recycled intermediates pay off when a
// query jumps into a lattice level no earlier query paved: stepwise
// drill-down walks cache each step's root, so every level a walk passes
// through is already paved for its successors, and only multi-level jumps
// (the Random component — ad-hoc navigation in the paper's sense) reach for
// interiors. The drill mix therefore blends explicit drill/roll steps with a
// majority of ad-hoc jumps; the proximity mix is the regression guard —
// recycling admits little there, and what it admits must not cost
// throughput.
var recycleMixes = []struct {
	name string
	mix  workload.Mix
}{
	{"drill", workload.Mix{DrillDown: 0.25, RollUp: 0.15, Random: 0.60}},
	{"proximity", workload.Mix{Proximity: 0.75, Random: 0.25}},
}

// Recycle compares benefit-driven recycling against the plain engine on a
// drill/jump stream and on a proximity-heavy control stream. The cache gets
// 2.5× the base table: recycling is a speculation for spare capacity, and
// headroom is what keeps recycled chunks from displacing the proven working
// set. All modes replay the identical seeded stream on a preloaded cache, so
// the gain measures recycling's ability to turn one query's interior work
// into later queries' one-step roll-ups. Writes BENCH_9.json with the
// verdicts of recycleGates.
func Recycle(e *Env) (*Report, error) {
	bytes := int64(2.5 * float64(e.BaseBytes()))

	m := recycleMetrics{artifact: newArtifact(e, "recycle")}

	r := &Report{
		ID: "recycle",
		Title: fmt.Sprintf("Benefit-driven recycling (VCMC, cache %s, %d queries)",
			SizeLabel(bytes), e.Cfg.Queries),
		Header: []string{"mix", "mode", "queries", "sim ms", "queries/s (sim)", "hit rate", "backend tuples", "agg tuples", "recycled"},
	}

	modes := []struct {
		name    string
		cfg     core.Config
		preload bool
	}{
		{"off", core.Config{Strategy: "VCMC", Policy: "two-level", HotBytes: bytes}, true},
		{"on", core.Config{Strategy: "VCMC", Policy: "two-level-promote", HotBytes: bytes,
			Options: []core.Option{core.WithRecycling(true)}}, true},
	}

	// The first system built in a process pays the chunk-pool warmup; run a
	// throwaway replay so no measured mode carries that bias.
	warm, err := workload.NewGenerator(e.Grid, recycleMixes[0].mix, e.Cfg.MaxQueryWidth, e.Cfg.Seed+9000)
	if err != nil {
		return nil, err
	}
	warmQ, _ := warm.Stream(min(e.Cfg.Queries, 50))
	sys, err := e.NewSystem(modes[0].cfg, modes[0].preload)
	if err != nil {
		return nil, err
	}
	for _, q := range warmQ {
		if _, err := sys.Engine.Execute(context.Background(), q); err != nil {
			return nil, err
		}
	}

	// qps[mix][mode], hit[mix][mode], agg[mix][mode] for the headline ratios.
	qps := make([][]float64, len(recycleMixes))
	hit := make([][]float64, len(recycleMixes))
	agg := make([][]int64, len(recycleMixes))
	for mi, mx := range recycleMixes {
		qps[mi] = make([]float64, len(modes))
		hit[mi] = make([]float64, len(modes))
		agg[mi] = make([]int64, len(modes))
		gen, err := workload.NewGenerator(e.Grid, mx.mix, e.Cfg.MaxQueryWidth, e.Cfg.Seed+9000+int64(mi))
		if err != nil {
			return nil, err
		}
		queries, _ := gen.Stream(e.Cfg.Queries)
		for di, mode := range modes {
			sys, err := e.NewSystem(mode.cfg, mode.preload)
			if err != nil {
				return nil, err
			}
			for _, q := range queries {
				if _, err := sys.Engine.Execute(context.Background(), q); err != nil {
					return nil, err
				}
			}
			st := sys.Engine.Stats()
			sim := st.Breakdown.Total()
			rate := float64(st.Queries) / sim.Seconds()
			hr := float64(st.CompleteHits) / float64(st.Queries)
			qps[mi][di] = rate
			hit[mi][di] = hr
			agg[mi][di] = st.AggTuples
			m.Rows = append(m.Rows, recycleRow{
				Mix: mx.name, Mode: mode.name, Queries: st.Queries,
				SimMs: float64(sim) / float64(time.Millisecond), QPS: rate,
				HitRate: hr, BackendTuples: st.BackendTuples, AggTuples: st.AggTuples,
				Recycled: st.Recycled,
			})
			r.AddRow(mx.name, mode.name, fmt.Sprintf("%d", st.Queries), msString(sim),
				fmt.Sprintf("%.0f", rate), fmt.Sprintf("%.2f", hr),
				fmt.Sprintf("%d", st.BackendTuples), fmt.Sprintf("%d", st.AggTuples),
				fmt.Sprintf("%d", st.Recycled))
		}
	}
	m.DrillQPSRatio = qps[0][1] / qps[0][0]
	m.DrillAggRatio = float64(agg[0][0]) / float64(agg[0][1])
	m.DrillHitGain = hit[0][1] - hit[0][0]
	m.ProximityQPSRatio = qps[1][1] / qps[1][0]
	m.Gates = recycleGates(&m)
	r.Gates = m.Gates

	r.Addf("all modes replay the identical seeded stream preloaded; \"on\" adds recycling (threshold %.3g/B) and promote-on-reuse", core.DefaultRecycleMinBenefit)
	r.Addf("drill mix: %.2f× qps (sim), %.2f× less aggregation work, hit rate %+.2f; proximity mix: %.2f× qps", m.DrillQPSRatio, m.DrillAggRatio, m.DrillHitGain, m.ProximityQPSRatio)
	if err := writeArtifact(r, recycleJSONFile, &m); err != nil {
		return nil, err
	}
	return r, nil
}

// recycleGates are the recycler's floors: on the drill mix recycling is no
// slower and loses no hit rate; on the proximity mix it costs at most 10%
// qps.
func recycleGates(m *recycleMetrics) []Gate {
	return []Gate{
		atLeast("drill_qps_ratio", m.DrillQPSRatio, 1.0),
		atLeast("drill_hit_gain", m.DrillHitGain, 0),
		atLeast("proximity_qps_ratio", m.ProximityQPSRatio, 0.9),
	}
}
