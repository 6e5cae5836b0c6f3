// The configuration product lives in the external test package so it can
// replay a workload stream (package workload imports core).
package core_test

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"aggcache/internal/apb"
	"aggcache/internal/backend"
	"aggcache/internal/cache"
	"aggcache/internal/chunk"
	"aggcache/internal/core"
	"aggcache/internal/obs"
	"aggcache/internal/workload"
)

// productConfig is one point of the configuration product.
type productConfig struct {
	strategy, policy string
	cold, peers      bool
	recycle          bool
}

func (c productConfig) String() string {
	return fmt.Sprintf("%s/%s/cold=%v/peers=%v/recycle=%v",
		c.strategy, c.policy, c.cold, c.peers, c.recycle)
}

// TestBuildConfigurationProduct replays one seeded tiny-scale DefaultMix
// stream through every stack Build composes from strategy {VCM, VCMC,
// NoAgg} × policy {two-level, two-level-promote, benefit, lru} × cold tier
// {none, a quarter of hot} × peers {none, a two-node ring} × recycling
// {off, on}. Every answer must equal the NoAgg oracle's cell for cell, and
// afterwards every hot store must charge exactly the bytes of the residents
// it reports, within its capacity. The hot store holds a third of the base
// group-by, so every configuration evicts (and, with a cold tier, demotes).
func TestBuildConfigurationProduct(t *testing.T) {
	g, tab, err := apb.New(apb.ScaleTiny).Build(29)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	be, err := backend.NewEngine(g, tab, backend.LatencyModel{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	base := core.Config{Grid: g, Backend: be, Rows: int64(tab.Len())}
	baseBytes := chunk.Footprint(int64(tab.Len()), int64(g.NumChunks(g.Lattice().Base())))

	gen, err := workload.NewGenerator(g, workload.DefaultMix, 2, 5)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	queries, _ := gen.Stream(40)
	oracleCfg := base
	oracleCfg.Strategy, oracleCfg.HotBytes = "NoAgg", 4*baseBytes
	oracle, err := core.Build(oracleCfg)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	want := make([]*core.Result, len(queries))
	for i, q := range queries {
		if want[i], err = oracle.Engine.Execute(context.Background(), q); err != nil {
			t.Fatalf("oracle query %d: %v", i, err)
		}
	}

	var product []productConfig
	for _, s := range []string{"VCM", "VCMC", "NoAgg"} {
		for _, p := range []string{"two-level", "two-level-promote", "benefit", "lru"} {
			for bits := 0; bits < 8; bits++ {
				product = append(product, productConfig{
					strategy: s, policy: p,
					cold: bits&1 != 0, peers: bits&2 != 0, recycle: bits&4 != 0,
				})
			}
		}
	}
	for _, pc := range product {
		cfg := base
		cfg.Strategy, cfg.Policy, cfg.HotBytes = pc.strategy, pc.policy, baseBytes/3
		if pc.cold {
			cfg.ColdBytes = cfg.HotBytes / 4
		}
		cfg.Options = []core.Option{core.WithRecycling(pc.recycle)}
		if err := runProductConfig(cfg, pc.peers, queries, want); err != nil {
			t.Errorf("%s: %v", pc, err)
		}
	}
}

// TestBuildServesOnlyMiddleTierStrategies: Build composes the middle tier's
// strategies only. The exhaustive paper baselines (package exhaustive) are
// refused with an error naming the ones it accepts.
func TestBuildServesOnlyMiddleTierStrategies(t *testing.T) {
	g, tab, err := apb.New(apb.ScaleTiny).Build(29)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	be, err := backend.NewEngine(g, tab, backend.LatencyModel{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	for _, name := range []string{"ESM", "ESMC"} {
		_, err := core.Build(core.Config{Grid: g, Backend: be, Rows: int64(tab.Len()), Strategy: name, HotBytes: 1 << 20})
		if err == nil {
			t.Fatalf("Build(%s) built a stack", name)
		}
		for _, want := range []string{"VCM", "VCMC", "NoAgg"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("Build(%s): error %q does not name %s", name, err, want)
			}
		}
	}
}

// TestBuildStatsMatchMetrics: Stats and /metrics are one set of counters. A
// Build stack with a registry and a cold tier preloads, then replays a
// seeded stream; every Engine.Stats, hot-store Stats and TierStats field
// must then equal the registered series it is read from, as rendered.
func TestBuildStatsMatchMetrics(t *testing.T) {
	g, tab, err := apb.New(apb.ScaleTiny).Build(29)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	be, err := backend.NewEngine(g, tab, backend.LatencyModel{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	baseBytes := chunk.Footprint(int64(tab.Len()), int64(g.NumChunks(g.Lattice().Base())))
	reg := obs.NewRegistry()
	st, err := core.Build(core.Config{
		Grid: g, Backend: be, Rows: int64(tab.Len()), Strategy: "VCMC",
		HotBytes: baseBytes / 3, ColdBytes: baseBytes / 12, Metrics: reg,
		Options: []core.Option{core.WithRecycling(true)},
	})
	if err != nil {
		t.Fatalf("core.Build: %v", err)
	}
	if _, ok, err := st.Engine.Preload(context.Background()); err != nil || !ok {
		t.Fatalf("Preload: ok=%v err=%v", ok, err)
	}
	gen, err := workload.NewGenerator(g, workload.DefaultMix, 2, 7)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	queries, _ := gen.Stream(200)
	for i, q := range queries {
		if _, err := st.Engine.Execute(context.Background(), q); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	series := make(map[string]string)
	for _, line := range strings.Split(b.String(), "\n") {
		if i := strings.LastIndexByte(line, ' '); i > 0 && !strings.HasPrefix(line, "#") {
			series[line[:i]] = line[i+1:]
		}
	}
	es, hs := st.Engine.Stats(), st.Hot.Stats()
	// One hit/miss ledger: the engine's store and the series below count
	// every lookup once, a cold-served one as a hit.
	if cs := st.Engine.Cache().Stats(); cs != hs {
		t.Errorf("engine store Stats %+v, but the local store reads %+v", cs, hs)
	}
	ts, ok := st.Engine.TierStats()
	if !ok {
		t.Fatalf("no TierStats on a stack with a cold tier")
	}
	n := func(v int64) string { return strconv.FormatInt(v, 10) }
	sec := func(d time.Duration) string { return strconv.FormatFloat(d.Seconds(), 'g', -1, 64) }
	for _, c := range []struct{ field, series, want string }{
		{"Engine.Queries", "aggcache_engine_queries_total", n(es.Queries)},
		{"Engine.CompleteHits", "aggcache_engine_complete_hits_total", n(es.CompleteHits)},
		{"Engine.BackendQueries", "aggcache_engine_backend_requests_total", n(es.BackendQueries)},
		{"Engine.BackendTuples", "aggcache_engine_backend_tuples_total", n(es.BackendTuples)},
		{"Engine.AggTuples", "aggcache_engine_aggregated_tuples_total", n(es.AggTuples)},
		{"Engine.BudgetMisses", "aggcache_engine_budget_misses_total", n(es.BudgetMisses)},
		{"Engine.PeerChunks", "aggcache_engine_chunks_peer_filled_total", n(es.PeerChunks)},
		{"Engine.DegradedHits", "aggcache_engine_degraded_answers_total", n(es.DegradedHits)},
		{"Engine.Unavailable", "aggcache_engine_backend_unavailable_total", n(es.Unavailable)},
		{"Engine.Recycled", "aggcache_engine_recycled_chunks_total", n(es.Recycled)},
		{"Engine.RecycleRejected", "aggcache_engine_recycle_rejected_total", n(es.RecycleRejected)},
		{"Engine.Breakdown.Lookup", "aggcache_engine_lookup_seconds_sum", sec(es.Breakdown.Lookup)},
		{"Engine.Breakdown.Aggregate", "aggcache_engine_aggregate_seconds_sum", sec(es.Breakdown.Aggregate)},
		{"Engine.Breakdown.Update", "aggcache_engine_update_seconds_sum", sec(es.Breakdown.Update)},
		{"Engine.Breakdown.Backend", "aggcache_engine_backend_seconds_sum", sec(es.Breakdown.Backend)},
		{"Hot.Hits", "aggcache_cache_hits_total", n(hs.Hits)},
		{"Hot.Misses", "aggcache_cache_misses_total", n(hs.Misses)},
		{"Hot.Inserts", "aggcache_cache_inserts_total", n(hs.Inserts)},
		{"Hot.Evictions", `aggcache_cache_evictions_total{cause="policy"}`, n(hs.Evictions)},
		{"Hot.Denied", "aggcache_cache_admission_denied_total", n(hs.Denied)},
		{"Tier.ColdHits", "aggcache_cold_hits_total", n(ts.ColdHits)},
		{"Tier.ColdMisses", "aggcache_cold_misses_total", n(ts.ColdMisses)},
		{"Tier.Demotes", "aggcache_tier_demotes_total", n(ts.Demotes)},
		{"Tier.DemoteDenied", "aggcache_tier_demote_denied_total", n(ts.DemoteDenied)},
		{"Tier.ColdEvicts", "aggcache_cold_evictions_total", n(ts.ColdEvicts)},
		{"Tier.ColdCapacity", "aggcache_cold_capacity_bytes", n(ts.ColdCapacity)},
		{"Tier.ColdUsed", "aggcache_cold_occupancy_bytes", n(ts.ColdUsed)},
		{"Tier.ColdRawBytes", "aggcache_cold_raw_bytes", n(ts.ColdRawBytes)},
		{"Tier.ColdChunks", "aggcache_cold_resident_chunks", n(ts.ColdChunks)},
		{"Tier.HotCapacity", "aggcache_cache_capacity_bytes", n(ts.HotCapacity)},
		{"Tier.HotGhostHits", `aggcache_tier_ghost_hits_total{tier="hot"}`, n(ts.HotGhostHits)},
		{"Tier.ColdGhostHits", `aggcache_tier_ghost_hits_total{tier="cold"}`, n(ts.ColdGhostHits)},
	} {
		if got, ok := series[c.series]; !ok || got != c.want {
			t.Errorf("%s = %s, but %s reads %q", c.field, c.want, c.series, got)
		}
	}
	// The comparison is only worth something if every layer was busy; the
	// cold tier shows up as cold hits.
	if es.BackendQueries < 2 || es.RecycleRejected == 0 ||
		hs.Evictions == 0 || ts.Demotes == 0 || ts.ColdHits == 0 {
		t.Fatalf("stream too quiet: engine %+v, hot %+v, tier %+v", es, hs, ts)
	}
}

// runProductConfig builds cfg — twice, as a two-node ring, when peered —
// replays queries round-robin across the nodes and checks every answer and
// the hot stores' byte accounting.
func runProductConfig(cfg core.Config, peered bool, queries []core.Query, want []*core.Result) error {
	var stacks []*core.Stack
	if !peered {
		st, err := core.Build(cfg)
		if err != nil {
			return err
		}
		stacks = append(stacks, st)
	} else {
		// Each node's peer serves from the other node's local tiers. Rings
		// start as singletons and take the full membership once both nodes
		// exist, as a membership reload would.
		names := []string{"a", "b"}
		stacks = make([]*core.Stack, len(names))
		for i, name := range names {
			c := cfg
			c.Peers = &cache.PeeredConfig{Self: name, Members: []string{name},
				Dial: func(string) cache.Peer { return core.NewStorePeer(stacks[1-i].Peered.Local()) }}
			st, err := core.Build(c)
			if err != nil {
				return err
			}
			defer st.Peered.Close()
			stacks[i] = st
		}
		for _, st := range stacks {
			if err := st.Peered.Rebuild(names); err != nil {
				return err
			}
		}
	}
	for i, q := range queries {
		res, err := stacks[i%len(stacks)].Engine.Execute(context.Background(), q)
		if err != nil {
			return fmt.Errorf("query %d: %w", i, err)
		}
		if err := sameAnswer(res, want[i]); err != nil {
			return fmt.Errorf("query %d: %w", i, err)
		}
	}
	// Per tier: Range reports cold residents at their raw size, so the hot
	// tier charges Range's bytes less the cold raw bytes.
	for i, st := range stacks {
		var charged int64
		st.Hot.Range(func(_ cache.Key, data *chunk.Chunk, _ cache.Class, _ float64, _ bool) {
			charged += data.Bytes()
		})
		ts := st.Hot.TierStats()
		if hot := st.Hot.Used() - ts.ColdUsed; hot != charged-ts.ColdRawBytes || st.Hot.Used() > st.Hot.Capacity() {
			return fmt.Errorf("node %d: hot tier charges %d bytes for %d resident, %d in all (capacity %d)",
				i, hot, charged-ts.ColdRawBytes, st.Hot.Used(), st.Hot.Capacity())
		}
	}
	return nil
}

// sameAnswer compares two results chunk by chunk and cell by cell: keys and
// fact-row counts exactly, sums within 1e-9 relative.
func sameAnswer(got, want *core.Result) error {
	if len(got.Chunks) != len(want.Chunks) {
		return fmt.Errorf("%d chunks, oracle has %d", len(got.Chunks), len(want.Chunks))
	}
	for j, wc := range want.Chunks {
		gc := got.Chunks[j]
		if gc.Cells() != wc.Cells() {
			return fmt.Errorf("chunk %d: %d cells, oracle has %d", j, gc.Cells(), wc.Cells())
		}
		for k, key := range wc.Keys {
			sum, count, ok := gc.Cell(key)
			if !ok || count != wc.Counts[k] || math.Abs(sum-wc.Vals[k]) > 1e-9*math.Max(1, math.Abs(wc.Vals[k])) {
				return fmt.Errorf("chunk %d cell %d: (%v, %d, %v), oracle (%v, %d)", j, key, sum, count, ok, wc.Vals[k], wc.Counts[k])
			}
		}
	}
	return nil
}
