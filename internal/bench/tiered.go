package bench

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"aggcache/internal/cache"
	"aggcache/internal/core"
	"aggcache/internal/workload"
)

// tieredJSONFile is the machine-readable artifact Tiered writes next to its
// report, with the verdicts of tieredGates.
const tieredJSONFile = "BENCH_10.json"

// tieredRow is one mode of BENCH_10.json.
type tieredRow struct {
	Mode          string  `json:"mode"`
	Queries       int64   `json:"queries"`
	SimMs         float64 `json:"sim_ms"`
	QPS           float64 `json:"qps"`
	HitRate       float64 `json:"complete_hit_rate"`
	BackendTuples int64   `json:"backend_tuples"`
	ColdHits      int64   `json:"cold_hits"`
	Demotes       int64   `json:"demotes"`
}

// tieredMetrics is the BENCH_10.json schema.
type tieredMetrics struct {
	artifact
	Rows []tieredRow `json:"rows"`
	// RAMHit and TieredHit are the steady-state complete-hit rates at equal
	// hot-tier RAM; the cold tier must not lose to the flat store.
	RAMHit    float64 `json:"ram_hit"`
	TieredHit float64 `json:"tiered_hit"`
	// QPSRatio is qps(tiered)/qps(ram) — the cost of codec work on the same
	// stream. QPS is queries over simulated response time, so the ratio is
	// deterministic for a given seed.
	QPSRatio float64 `json:"qps_ratio"`
	// CompressionRatio is raw bytes over encoded bytes across the cold
	// tier's final contents.
	CompressionRatio float64 `json:"compression_ratio"`
	// PreKillHit is the measured replay's hit rate right before the
	// simulated kill; RestartHit is the same replay on a fresh process
	// warm-restarted from the snapshot; Recovery is their ratio.
	PreKillHit float64 `json:"prekill_hit"`
	RestartHit float64 `json:"restart_hit"`
	Recovery   float64 `json:"warm_restart_recovery"`
	// SnapshotChunks is the record count of the kill/restart snapshot.
	SnapshotChunks int `json:"snapshot_chunks"`
}

// tieredDelta measures one stream segment as a stats diff.
type tieredDelta struct {
	queries, hits, backendTuples int64
	sim                          time.Duration
}

func (d tieredDelta) hitRate() float64 {
	if d.queries == 0 {
		return 0
	}
	return float64(d.hits) / float64(d.queries)
}

func (d tieredDelta) qps() float64 {
	if d.sim <= 0 {
		return 0
	}
	return float64(d.queries) / d.sim.Seconds()
}

// runSegment executes queries and returns the segment's stats delta.
func runSegment(sys *core.Stack, queries []core.Query) (tieredDelta, error) {
	before := sys.Engine.Stats()
	for _, q := range queries {
		if _, err := sys.Engine.Execute(context.Background(), q); err != nil {
			return tieredDelta{}, err
		}
	}
	after := sys.Engine.Stats()
	return tieredDelta{
		queries:       after.Queries - before.Queries,
		hits:          after.CompleteHits - before.CompleteHits,
		backendTuples: after.BackendTuples - before.BackendTuples,
		sim:           after.Breakdown.Total() - before.Breakdown.Total(),
	}, nil
}

// Tiered measures the tiered store against the flat store at equal hot-tier
// RAM: the hot tier gets well under the working set, and the tiered mode
// adds a compressed cold tier at 4× the hot bytes. Both modes run the
// identical seeded stream twice — the first pass fills the cache past its
// capacity, the measured second pass revisits everything (a rerun dashboard)
// — so the measured delta is exactly what demoting victims and answering
// from the cold tier buys over dropping them. The run then simulates a kill:
// the tiered cache is snapshotted, the process state discarded, and a fresh
// system warm-restarts from the snapshot file; the same replay on both sides
// yields the warm-restart recovery ratio. Writes BENCH_10.json with the
// verdicts of tieredGates.
func Tiered(e *Env) (*Report, error) {
	hot := int64(0.35 * float64(e.BaseBytes()))
	cold := 4 * hot

	m := tieredMetrics{artifact: newArtifact(e, "tiered")}

	r := &Report{
		ID: "tiered",
		Title: fmt.Sprintf("Tiered storage: hot %s vs hot %s + cold %s compressed (%d queries x2)",
			SizeLabel(hot), SizeLabel(hot), SizeLabel(cold), e.Cfg.Queries),
		Header: []string{"mode", "queries", "sim ms", "queries/s (sim)", "hit rate", "backend tuples", "cold hits", "demotes"},
	}

	gen, err := workload.NewGenerator(e.Grid, workload.Mix{Proximity: 0.6, Random: 0.4}, e.Cfg.MaxQueryWidth, e.Cfg.Seed+10_000)
	if err != nil {
		return nil, err
	}
	stream, _ := gen.Stream(e.Cfg.Queries)

	modes := []struct {
		name string
		cfg  core.Config
	}{
		{"ram", core.Config{Strategy: "VCMC", Policy: "two-level-promote", HotBytes: hot}},
		{"tiered", core.Config{Strategy: "VCMC", Policy: "two-level-promote", HotBytes: hot, ColdBytes: cold}},
	}

	// Throwaway replay so no measured mode pays the process-wide chunk-pool
	// warmup.
	warmSys, err := e.NewSystem(modes[0].cfg, false)
	if err != nil {
		return nil, err
	}
	if _, err := runSegment(warmSys, stream[:min(len(stream), 50)]); err != nil {
		return nil, err
	}

	var tieredSys *core.Stack
	var rates [2]float64
	for i, mode := range modes {
		sys, err := e.NewSystem(mode.cfg, false)
		if err != nil {
			return nil, err
		}
		if _, err := runSegment(sys, stream); err != nil { // fill pass
			return nil, err
		}
		replay, err := runSegment(sys, stream) // measured pass
		if err != nil {
			return nil, err
		}
		ts, _ := sys.Engine.TierStats()
		rates[i] = replay.qps()
		row := tieredRow{
			Mode: mode.name, Queries: replay.queries,
			SimMs: float64(replay.sim) / float64(time.Millisecond), QPS: replay.qps(),
			HitRate: replay.hitRate(), BackendTuples: replay.backendTuples,
			ColdHits: ts.ColdHits, Demotes: ts.Demotes,
		}
		m.Rows = append(m.Rows, row)
		r.AddRow(mode.name, fmt.Sprintf("%d", replay.queries), msString(replay.sim),
			fmt.Sprintf("%.0f", replay.qps()), fmt.Sprintf("%.2f", replay.hitRate()),
			fmt.Sprintf("%d", replay.backendTuples), fmt.Sprintf("%d", ts.ColdHits),
			fmt.Sprintf("%d", ts.Demotes))
		switch mode.name {
		case "ram":
			m.RAMHit = replay.hitRate()
		case "tiered":
			m.TieredHit = replay.hitRate()
			m.PreKillHit = replay.hitRate()
			tieredSys = sys
			if ts.ColdUsed > 0 {
				m.CompressionRatio = float64(ts.ColdRawBytes) / float64(ts.ColdUsed)
			}
		}
	}
	m.QPSRatio = rates[1] / rates[0]

	// Kill/restart: snapshot the tiered cache, throw the system away, and
	// warm-restart a fresh one from the file. The snapshot spans both tiers,
	// so the restarted hot tier refills benefit-first and the overflow
	// demotes back to cold through the normal admission path.
	dir, err := os.MkdirTemp("", "aggcache-tiered-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	snapPath := filepath.Join(dir, "cache.snap")
	n, err := cache.SaveSnapshotFile(snapPath, tieredSys.Engine.Cache(), e.Grid)
	if err != nil {
		return nil, err
	}
	m.SnapshotChunks = n
	restart, err := e.NewSystem(modes[1].cfg, false)
	if err != nil {
		return nil, err
	}
	if _, err := cache.LoadSnapshotFile(snapPath, e.Grid, restart.Engine.Cache()); err != nil {
		return nil, err
	}
	restartDelta, err := runSegment(restart, stream)
	if err != nil {
		return nil, err
	}
	m.RestartHit = restartDelta.hitRate()
	if m.PreKillHit > 0 {
		m.Recovery = m.RestartHit / m.PreKillHit
	}
	m.Gates = tieredGates(&m)
	r.Gates = m.Gates

	r.Addf("both modes replay the identical seeded stream; tiered adds a %s compressed cold tier (%.1fx compression at end of run)",
		SizeLabel(cold), m.CompressionRatio)
	r.Addf("hit rate %.2f (ram) vs %.2f (tiered), qps ratio %.2f", m.RAMHit, m.TieredHit, m.QPSRatio)
	r.Addf("kill/restart: %d chunks snapshotted; replay hit rate %.2f pre-kill vs %.2f after warm restart (recovery %.2f)",
		m.SnapshotChunks, m.PreKillHit, m.RestartHit, m.Recovery)
	if err := writeArtifact(r, tieredJSONFile, &m); err != nil {
		return nil, err
	}
	return r, nil
}

// tieredGates are the cold tier's floors: it never loses hit rate to the
// flat store, costs at most 10% qps, and a warm restart recovers at least
// 80% of the pre-kill hit rate.
func tieredGates(m *tieredMetrics) []Gate {
	return []Gate{
		atLeast("tiered_hit", m.TieredHit, m.RAMHit),
		atLeast("warm_restart_recovery", m.Recovery, 0.8),
		atLeast("qps_ratio", m.QPSRatio, 0.9),
	}
}
