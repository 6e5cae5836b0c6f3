package main

import (
	"time"

	"aggcache/internal/apb"
	"aggcache/internal/backend"
	"aggcache/internal/workload"
)

// Frozen constants of the benchmark. They were calibrated once on the seed
// commit on the 2-CPU reference box (README.md, "Calibration") and are part
// of the yardstick: a PR that claims a gain may not edit them.
const (
	// tracedQueries is the length of the one-client traced pass.
	tracedQueries = 2000
	// sampleEvery is the untraced run's oracle sampling stride: one in
	// sampleEvery responses is kept and re-checked after the window closes.
	sampleEvery = 64
	// subWindows is the number of equal slices of the timed window. qps,
	// median latency and CPU per query are computed per slice, p99 per pair
	// of slices, and each is reported as the median over the window.
	subWindows = 10
	// setupRepeats is how many times a driver-mode run builds the whole
	// stack; setup_s is the median of them.
	setupRepeats = 3
	// openLoopRate is paper_mix_open's arrival rate in queries/s: a quarter
	// of the 860 queries/s `-calibrate` measured as the closed-loop capacity
	// of the same two-node composition on the reference box. At half (430/s)
	// one run in three sheds a burst of 20-odd requests when four heavy scans
	// hold all four admission slots, and the tail swings between 28 and 110
	// ms from seed to seed; at 300/s one run in ten still sheds. At 215/s
	// nothing is shed, p99 is still 3x p50, and it repeats within a few
	// percent.
	openLoopRate = 215.0
	// usersPerConn is how many independent user sessions (streams seed+u)
	// each connection multiplexes, taking them in turn, in the untimed and
	// timed loops alike. A stream is one user's random walk over the lattice;
	// with one walk per connection a run's cost depends on where those two
	// walks happened to dwell, and between seeds paper_mix_open's p99 swung
	// 2x and rollup_hit's median latency 19 %. Sixteen walks average that out
	// (8 % and under) without adding a connection or a request in flight.
	usersPerConn = 8
	// lagLimit and lagInvalidShare decide when the open-loop generator was
	// starved: a send counts as late when it left more than lagLimit (one Go
	// preemption quantum) after its slot, and a run with more than
	// lagInvalidShare of its sends late measured the generator, not the
	// server, and is invalid.
	lagLimit        = 10 * time.Millisecond
	lagInvalidShare = 0.05
	// zipfPool and zipfS shape point_hit's hot-key stream; poolSeed draws the
	// pool, which like the fact table is the same for every run. 128 random
	// width-2 queries hold 13-21 MB of chunks at full scale, so the pool fits
	// the 1.14x-base hot store (27.6 MB) with room; 512 would not.
	zipfPool = 128
	zipfS    = 1.1
	poolSeed = 1
	// queryWidth bounds generated regions per dimension, in chunks.
	queryWidth = 2
	// resultCacheEntries is aggcached's -result-cache default.
	resultCacheEntries = 256
)

// workloadSpec describes one named workload: the stream, the composition it
// runs on, and the shape guard that proves the run exercised what its "why"
// says it does.
type workloadSpec struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json "why").
	Why string
	// Open selects the open-loop generator at openLoopRate; otherwise nproc
	// closed-loop clients.
	Open bool
	// Nodes is the number of in-process cluster members.
	Nodes int
	// HotFrac and ColdFrac size each node's hot store and cold tier as a
	// fraction of the base group-by's bytes.
	HotFrac, ColdFrac float64
	// Preload loads the best-fitting group-by before serving.
	Preload bool
	// Zipf selects workload.NewZipf(zipfPool, zipfS) instead of Mix.
	Zipf bool
	Mix  workload.Mix
	// Latency is the backend's latency model.
	Latency backend.LatencyModel
	// Admission turns the server-wide admission queue on.
	Admission bool
	// Warmup is the number of untimed queries each connection sends before
	// the window opens (for Zipf streams the whole pool is replayed instead).
	Warmup int
}

// sizing holds the counts that shrink at the tiny smoke scale, whose whole
// lattice is 84 chunks: warm-up per connection, Zipf pool, traced queries.
type sizing struct{ warmup, pool, traced int }

func sizingFor(scale apb.Scale, spec workloadSpec) sizing {
	if scale == apb.ScaleTiny {
		return sizing{spec.Warmup / 10, 8, 300}
	}
	return sizing{spec.Warmup, zipfPool, tracedQueries}
}

// noCold is the cold tier of the two hit workloads: Tiered stays in the
// path, because it is part of the production composition, but its one-byte
// tier admits nothing. With a cold tier worth the name, VCMC plans roll-ups
// through demoted chunks whose promotion the full hot tier then refuses, the
// query falls through to the backend, and backend-class fills evict the
// preloaded base group-by: on the seed commit the hit ratio erodes from 1.0
// to 0.7 within twenty seconds. That is a finding (README.md), but it is not
// a hit workload.
const noCold = 0

// rollupHotFrac sizes rollup_hit's hot store. The paper's 25 MB point is
// 1.14x base, but on the seed commit that is not a stable hit workload: with
// two clients a plan leaf is now and then evicted between Find and Pin, the
// query falls through to the backend, and under the two-level-promote policy
// the backend-class fill may evict a preloaded base chunk, which makes more
// roll-ups miss. At 1.14x the base group-by erodes within seconds, at 1.5x in
// one run of ten (hit ratio 0.69, qps tripled: a different regime); at 3x the
// ring holds enough promoted computed chunks to absorb the rare fill, and 30
// runs kept every base chunk. README.md records this as a finding.
const rollupHotFrac = 3.0

// sleptRTT is the miss workloads' backend: a real 1 ms round trip per request
// on top of scan CPU that is paid for real.
var sleptRTT = backend.LatencyModel{Connect: time.Millisecond, Sleep: true}

var workloads = []workloadSpec{
	{
		Name:    "rollup_hit",
		Why:     "preloaded base group-by: ~every query is a complete hit answered by in-cache aggregation (Find, roll-up kernel, Get/Pin, recycler); backend ~0",
		Nodes:   1,
		HotFrac: rollupHotFrac, ColdFrac: noCold,
		Preload: true,
		Mix:     workload.Mix{RollUp: .6, Proximity: .2, DrillDown: .1, Random: .1},
		Warmup:  400,
	},
	{
		Name:    "point_hit",
		Why:     "hot Zipf pool replayed: chunks are present verbatim, so time is mdq compile + wire + mtier dispatch + encode; bypasses kernel, strategy maintenance and backend",
		Nodes:   1,
		HotFrac: 1.14, ColdFrac: noCold,
		Zipf: true,
	},
	{
		Name:    "churn_miss",
		Why:     "store a tenth of base, drill-down heavy, 1 ms backend: the write side - backend trips, decode, Insert, evict, demote, VCMC cost propagation, cold promotes",
		Nodes:   1,
		HotFrac: 0.10, ColdFrac: 0.15,
		Mix:     workload.Mix{DrillDown: .4, RollUp: .2, Proximity: .3, Random: .1},
		Latency: sleptRTT,
		Warmup:  300,
	},
	{
		Name:    "paper_mix_open",
		Why:     "the paper's 30/30/30/10 stream, open loop at 25% of capacity on two peered nodes with admission: every layer takes a share, queueing and peer fills make the tail",
		Open:    true,
		Nodes:   2,
		HotFrac: 0.34, ColdFrac: 0.10,
		Mix:       workload.DefaultMix,
		Latency:   sleptRTT,
		Admission: true,
		Warmup:    300,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// metricDef names one metric as BENCHMARK.json does. Bound is the share of
// the baseline median by which an end-to-end metric may worsen before it is a
// regression; per-layer metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	higher = "higher"
	lower  = "lower"
)

// endToEnd lists what a client of the middle tier sees. Every metric is
// reported for every workload and is never zero, so a ratio to a baseline
// always exists; that is why the error ratio is reported as its complement
// ok_ratio, and why backend tuples per query - zero on the hit workloads -
// is a per-layer metric (core.backend_tuples_per_query), not one of these.
//
// A bound is one number per metric for all four workloads, and the driver
// accepts the benchmark only while the spread of ten runs on ten seeds (the
// distance between their quartiles over their median) stays inside it. Each
// bound is therefore about three times the widest spread measured on the
// reference box (README.md, "Calibration") - for the latency percentiles the
// largest the driver allows - not the tighter figure one workload alone
// would allow; the shape guards hold the hit workloads to
// their absolute hit ratios.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"qps", "queries/s", higher, 0.20},
	{"lat_p50_ms", "ms", lower, 0.25},
	{"lat_p99_ms", "ms", lower, 0.25},
	{"complete_hit_ratio", "ratio", higher, 0.20},
	{"cpu_ms_per_query", "ms", lower, 0.25},
	{"peak_rss_mb", "MB", lower, 0.20},
	{"ok_ratio", "ratio", higher, 0.01},
}

// perLayer lists the traced pass's metrics (and the untraced run's runtime.*
// and client.* ones), in the order README.md's layer table gives them.
var perLayer = []metricDef{
	{Name: "mdq.compile_us_per_query", Unit: "us", Better: lower},
	{Name: "mtier.front_us_per_query", Unit: "us", Better: lower},
	{Name: "wire.bytes_in_per_query", Unit: "bytes", Better: lower},
	{Name: "wire.bytes_out_per_query", Unit: "bytes", Better: lower},
	{Name: "wire.frames_per_query", Unit: "count", Better: lower},
	{Name: "wire.chunk_codec_ns_per_cell", Unit: "ns", Better: lower},
	{Name: "mtier.admitted_per_query", Unit: "count", Better: higher},
	{Name: "mtier.shed_ratio", Unit: "ratio", Better: lower},
	{Name: "core.lookup_us_per_query", Unit: "us", Better: lower},
	{Name: "core.aggregate_us_per_query", Unit: "us", Better: lower},
	{Name: "core.update_us_per_query", Unit: "us", Better: lower},
	{Name: "core.backend_us_per_query", Unit: "us", Better: lower},
	{Name: "core.self_us_per_query", Unit: "us", Better: lower},
	{Name: "core.chunks_aggregated_per_query", Unit: "count", Better: lower},
	{Name: "core.recycled_per_query", Unit: "count", Better: higher},
	{Name: "core.recycle_rejected_per_query", Unit: "count", Better: lower},
	{Name: "core.result_cache_hit_ratio", Unit: "ratio", Better: higher},
	{Name: "core.peer_chunks_per_query", Unit: "count", Better: higher},
	{Name: "core.backend_tuples_per_query", Unit: "tuples", Better: lower},
	{Name: "strategy.find_calls_per_query", Unit: "count", Better: lower},
	{Name: "strategy.find_us_per_query", Unit: "us", Better: lower},
	{Name: "strategy.find_hit_ratio", Unit: "ratio", Better: higher},
	{Name: "strategy.maint_calls_per_query", Unit: "count", Better: lower},
	{Name: "strategy.maint_us_per_query", Unit: "us", Better: lower},
	{Name: "strategy.maint_updates_per_insert", Unit: "count", Better: lower},
	{Name: "strategy.overhead_bytes", Unit: "bytes", Better: lower},
	{Name: "chunk.rollup_tuples_per_query", Unit: "tuples", Better: lower},
	{Name: "chunk.rollup_ns_per_tuple", Unit: "ns", Better: lower},
	{Name: "cache.get_calls_per_query", Unit: "count", Better: lower},
	{Name: "cache.get_us_per_query", Unit: "us", Better: lower},
	{Name: "cache.pin_us_per_query", Unit: "us", Better: lower},
	{Name: "cache.reinforce_us_per_query", Unit: "us", Better: lower},
	{Name: "cache.hit_ratio", Unit: "ratio", Better: higher},
	{Name: "cache.insert_calls_per_query", Unit: "count", Better: lower},
	{Name: "cache.insert_us_per_query", Unit: "us", Better: lower},
	{Name: "cache.evictions_per_query", Unit: "count", Better: lower},
	{Name: "cache.admit_denied_ratio", Unit: "ratio", Better: lower},
	{Name: "cache.demotes_per_query", Unit: "count", Better: lower},
	{Name: "cache.promotes_per_query", Unit: "count", Better: higher},
	{Name: "cache.cold_hits_per_query", Unit: "count", Better: higher},
	{Name: "cache.cold_compression_ratio", Unit: "ratio", Better: higher},
	{Name: "cache.resident_bytes", Unit: "bytes", Better: lower},
	{Name: "cache.peer_fills_per_query", Unit: "count", Better: higher},
	{Name: "cache.peer_fill_us", Unit: "us", Better: lower},
	{Name: "cache.peer_fill_hit_ratio", Unit: "ratio", Better: higher},
	{Name: "cache.peer_puts_per_query", Unit: "count", Better: lower},
	{Name: "cache.peer_puts_dropped", Unit: "count", Better: lower},
	{Name: "backend.requests_per_query", Unit: "count", Better: lower},
	{Name: "backend.chunks_per_request", Unit: "count", Better: higher},
	{Name: "backend.tuples_per_query", Unit: "tuples", Better: lower},
	{Name: "backend.rtt_us_per_request", Unit: "us", Better: lower},
	{Name: "backend.compute_us_per_request", Unit: "us", Better: lower},
	{Name: "backend.errors", Unit: "count", Better: lower},
	{Name: "runtime.mutex_wait_us_per_query", Unit: "us", Better: lower},
	{Name: "runtime.alloc_kb_per_query", Unit: "KB", Better: lower},
	{Name: "runtime.gc_pause_ms_total", Unit: "ms", Better: lower},
	{Name: "runtime.heap_peak_mb", Unit: "MB", Better: lower},
	{Name: "runtime.scaling_ratio", Unit: "ratio", Better: higher},
	{Name: "client.sent", Unit: "count", Better: higher},
	{Name: "client.ok", Unit: "count", Better: higher},
	{Name: "client.busy", Unit: "count", Better: lower},
	{Name: "client.failed", Unit: "count", Better: lower},
	{Name: "client.wrong_answers", Unit: "count", Better: lower},
	{Name: "client.cells_per_query", Unit: "count", Better: lower},
	{Name: "client.sched_lag_p99_ms", Unit: "ms", Better: lower},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: higher},
	{Name: "trace.accounted_ratio", Unit: "ratio", Better: higher},
	{Name: "trace.spans", Unit: "count", Better: lower},
}
