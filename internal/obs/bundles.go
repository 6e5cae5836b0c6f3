package obs

import "fmt"

// This file defines the metric bundles the instrumented components record
// into. Each bundle is a plain struct of metric handles; the zero value
// (all-nil handles) is valid and records nothing, so components hold a
// bundle by value and stay dependency-free of the registry itself. Built
// from a nil registry, a bundle's handles are live but exported nowhere: the
// engine, the local store and its cold tier always count into such a bundle
// and read their Stats back from it, so /metrics and Stats are one set of
// counters. The exported metric names below are the observability contract
// documented in DESIGN.md §7.

// EngineMetrics instruments core.Engine: query counts and outcomes, chunk
// provenance, singleflight behavior, and the Figure-10 phase latencies.
type EngineMetrics struct {
	Queries      *Counter
	QueryErrors  *Counter
	CompleteHits *Counter
	BudgetMisses *Counter

	ChunksHit        *Counter
	ChunksAggregated *Counter
	ChunksFetched    *Counter
	ChunksPeerFilled *Counter
	PeerFillPanics   *Counter

	AggregatedTuples *Counter
	BackendTuples    *Counter
	BackendRequests  *Counter

	FlightLeaderChunks   *Counter
	FlightFollowerChunks *Counter

	DegradedAnswers    *Counter
	BackendUnavailable *Counter
	DeadlineExceeded   *Counter

	RecycledChunks  *Counter
	RecycleRejected *Counter

	Lookup    *Histogram
	Aggregate *Histogram
	Update    *Histogram
	Backend   *Histogram
	Query     *Histogram
}

// NewEngineMetrics registers the engine metric set on r.
func NewEngineMetrics(r *Registry) EngineMetrics {
	return EngineMetrics{
		Queries:      r.Counter("aggcache_engine_queries_total", "Queries executed by the cache engine."),
		QueryErrors:  r.Counter("aggcache_engine_query_errors_total", "Queries that failed inside the engine."),
		CompleteHits: r.Counter("aggcache_engine_complete_hits_total", "Queries answered without any backend access."),
		BudgetMisses: r.Counter("aggcache_engine_budget_misses_total", "Chunk lookups abandoned because the strategy exhausted its node budget."),

		ChunksHit:        r.Counter("aggcache_engine_chunks_hit_total", "Chunks answered directly by a resident cache entry."),
		ChunksAggregated: r.Counter("aggcache_engine_chunks_aggregated_total", "Chunks computed by aggregating other cached chunks."),
		ChunksFetched:    r.Counter("aggcache_engine_chunks_fetched_total", "Chunks fetched from the backend (cache misses)."),
		ChunksPeerFilled: r.Counter("aggcache_engine_chunks_peer_filled_total", "Missing chunks served by a cluster peer instead of the backend."),
		PeerFillPanics:   r.Counter("aggcache_engine_peer_fill_panics_total", "Peer fills that panicked; each fell through to the backend as a failed fill."),

		AggregatedTuples: r.Counter("aggcache_engine_aggregated_tuples_total", "Tuples scanned by in-cache aggregation."),
		BackendTuples:    r.Counter("aggcache_engine_backend_tuples_total", "Tuples scanned at the backend on behalf of this engine."),
		BackendRequests:  r.Counter("aggcache_engine_backend_requests_total", "Batched backend requests issued."),

		FlightLeaderChunks:   r.Counter("aggcache_engine_flight_leader_chunks_total", "Missing chunks this engine fetched as singleflight leader."),
		FlightFollowerChunks: r.Counter("aggcache_engine_flight_follower_chunks_total", "Missing chunks satisfied by waiting on another query's in-flight fetch."),

		DegradedAnswers:    r.Counter("aggcache_engine_degraded_answers_total", "Queries answered from the cache alone while the backend circuit breaker was not closed."),
		BackendUnavailable: r.Counter("aggcache_engine_backend_unavailable_total", "Queries failed fast with ErrBackendUnavailable (circuit open or retry budget exhausted)."),
		DeadlineExceeded:   r.Counter("aggcache_engine_deadline_exceeded_total", "Queries that failed because their context deadline expired."),

		RecycledChunks:  r.Counter("aggcache_engine_recycled_chunks_total", "Intermediate aggregates admitted to the cache by the benefit-driven recycler."),
		RecycleRejected: r.Counter("aggcache_engine_recycle_rejected_total", "Interior plan nodes the recycler priced and declined to cache."),

		Lookup:    r.Histogram("aggcache_engine_lookup_seconds", "Per-query cache lookup (strategy Find) phase latency."),
		Aggregate: r.Histogram("aggcache_engine_aggregate_seconds", "Per-query in-cache aggregation phase latency."),
		Update:    r.Histogram("aggcache_engine_update_seconds", "Per-query strategy maintenance (virtual count/cost update) latency."),
		Backend:   r.Histogram("aggcache_engine_backend_seconds", "Per-query backend phase latency (compute plus simulated network)."),
		Query:     r.Histogram("aggcache_engine_query_seconds", "Whole-query latency as the sum of the phase breakdown."),
	}
}

// CacheMetrics instruments the hot chunk store: occupancy, traffic, and the
// replacement behavior split by cause.
type CacheMetrics struct {
	CapacityBytes  *Gauge
	OccupancyBytes *Gauge
	ResidentChunks *Gauge

	Hits         *Counter
	Misses       *Counter
	Inserts      *Counter
	Replacements *Counter

	EvictionsPolicy *Counter
	Denied          *Counter
	PinFailures     *Counter
}

// NewCacheMetrics registers the cache metric set on r.
func NewCacheMetrics(r *Registry) CacheMetrics {
	return CacheMetrics{
		CapacityBytes:  r.Gauge("aggcache_cache_capacity_bytes", "Byte bound of the hot tier: the whole cache without a cold tier, else its live share of the hot + cold budget."),
		OccupancyBytes: r.Gauge("aggcache_cache_occupancy_bytes", "Bytes currently charged to resident chunks."),
		ResidentChunks: r.Gauge("aggcache_cache_resident_chunks", "Number of resident chunks."),

		Hits:         r.Counter("aggcache_cache_hits_total", "Cache lookups that found the chunk resident."),
		Misses:       r.Counter("aggcache_cache_misses_total", "Cache lookups that missed."),
		Inserts:      r.Counter("aggcache_cache_inserts_total", "Chunks newly admitted to the cache."),
		Replacements: r.Counter("aggcache_cache_replacements_total", "Resident chunks whose payload was replaced in place."),

		EvictionsPolicy: r.Counter(`aggcache_cache_evictions_total{cause="policy"}`, "Chunks the replacement policy chose as victims."),
		Denied:          r.Counter("aggcache_cache_admission_denied_total", "Insertions denied by the replacement policy or the size bound."),
		PinFailures:     r.Counter("aggcache_cache_pin_failures_total", "Pin attempts on chunks that were not resident."),
	}
}

// TierMetrics instruments the cold tier of a cache.Sharded store (see
// cache.NewTiered): compressed occupancy against the raw footprint of the
// same residents (their ratio is the effective compression), the demote
// traffic into the cold tier, its hits and misses, and the ghost hits that
// move the boundary between the tiers' shares of one byte budget. A lookup
// the cold tier serves is also one hit in the store's CacheMetrics.
type TierMetrics struct {
	ColdCapacityBytes  *Gauge
	ColdOccupancyBytes *Gauge
	ColdRawBytes       *Gauge
	ColdChunks         *Gauge

	ColdHits      *Counter
	ColdMisses    *Counter
	Demotes       *Counter
	DemoteDenied  *Counter
	ColdEvictions *Counter

	HotGhostHits    *Counter
	ColdGhostHits   *Counter
	MovesTowardHot  *Counter
	MovesTowardCold *Counter
}

// NewTierMetrics registers the cold-tier metric set on r.
func NewTierMetrics(r *Registry) TierMetrics {
	return TierMetrics{
		ColdCapacityBytes:  r.Gauge("aggcache_cold_capacity_bytes", "Byte bound of the cold tier: its live share of the hot + cold budget."),
		ColdOccupancyBytes: r.Gauge("aggcache_cold_occupancy_bytes", "Compressed bytes charged to cold residents."),
		ColdRawBytes:       r.Gauge("aggcache_cold_raw_bytes", "Uncompressed footprint of the cold residents (raw/occupancy = compression ratio)."),
		ColdChunks:         r.Gauge("aggcache_cold_resident_chunks", "Number of cold-tier residents."),

		ColdHits:      r.Counter("aggcache_cold_hits_total", "Pins and lookups a cold resident served."),
		ColdMisses:    r.Counter("aggcache_cold_misses_total", "Lookups that missed both tiers."),
		Demotes:       r.Counter("aggcache_tier_demotes_total", "Hot-tier victims re-admitted to the cold tier compressed."),
		DemoteDenied:  r.Counter("aggcache_tier_demote_denied_total", "Hot-tier victims the cold tier refused."),
		ColdEvictions: r.Counter("aggcache_cold_evictions_total", "Cold residents dropped for cold-tier space, or because they no longer decoded."),

		HotGhostHits:    r.Counter(`aggcache_tier_ghost_hits_total{tier="hot"}`, "Cold decodes of recently demoted chunks: a larger hot share would have kept them hot."),
		ColdGhostHits:   r.Counter(`aggcache_tier_ghost_hits_total{tier="cold"}`, "Fresh inserts of chunks the cold tier dropped: a larger cold share would have kept them."),
		MovesTowardHot:  r.Counter(`aggcache_tier_boundary_moves_total{toward="hot"}`, "Moves of the hot/cold boundary that grew the hot share."),
		MovesTowardCold: r.Counter(`aggcache_tier_boundary_moves_total{toward="cold"}`, "Moves of the hot/cold boundary that grew the cold share."),
	}
}

// StrategyMetrics instruments a lookup strategy through strategy.Instrument.
// All series carry a strategy=… label so several strategies can share a
// registry.
type StrategyMetrics struct {
	Finds        *Counter
	FindHits     *Counter
	NodesVisited *Counter
	FindLatency  *Histogram
}

// NewStrategyMetrics registers the strategy metric set on r, labeled with
// the strategy name.
func NewStrategyMetrics(r *Registry, strategy string) StrategyMetrics {
	l := fmt.Sprintf("{strategy=%q}", strategy)
	return StrategyMetrics{
		Finds:        r.Counter("aggcache_strategy_find_total"+l, "Cache lookup (Find) calls per strategy."),
		FindHits:     r.Counter("aggcache_strategy_find_hits_total"+l, "Find calls that produced an executable plan."),
		NodesVisited: r.Counter("aggcache_strategy_nodes_visited_total"+l, "Lattice nodes visited across all Find calls."),
		FindLatency:  r.Histogram("aggcache_strategy_find_seconds"+l, "Single Find call latency per strategy."),
	}
}

// WireMetrics is the wire-level bundle one framed endpoint records into:
// frame and byte traffic both ways and requests in flight, plus — on a
// serving endpoint — connections torn down by the stream, idle connections
// reaped, and handler panics recovered into an error reply. It is declared
// once here and embedded in each endpoint's bundle (BackendMetrics,
// ServerMetrics, RemoteMetrics), which hands it to package wire as is.
// Handles a bundle does not export stay nil.
type WireMetrics struct {
	WireBytesIn  *Counter
	WireBytesOut *Counter
	FramesIn     *Counter
	FramesOut    *Counter
	InFlight     *Gauge

	Conns      *Gauge
	WireErrors *Counter
	IdleCloses *Counter
	Panics     *Counter
}

// newWireMetrics registers the traffic half of a WireMetrics as
// aggcache_<sub>_…; peer names the other end of the connection for the help
// text.
func newWireMetrics(r *Registry, sub, peer string) WireMetrics {
	p := "aggcache_" + sub + "_"
	return WireMetrics{
		WireBytesIn:  r.Counter(p+"wire_bytes_in_total", "Frame bytes received from "+peer+"."),
		WireBytesOut: r.Counter(p+"wire_bytes_out_total", "Frame bytes sent to "+peer+"."),
		FramesIn:     r.Counter(p+"wire_frames_in_total", "Frames received from "+peer+"."),
		FramesOut:    r.Counter(p+"wire_frames_out_total", "Frames sent to "+peer+"."),
		InFlight:     r.Gauge(p+"requests_in_flight", "Requests currently in flight with "+peer+"."),
	}
}

// newServingMetrics is newWireMetrics plus the serving side's failure
// counters.
func newServingMetrics(r *Registry, sub, peer string) WireMetrics {
	m := newWireMetrics(r, sub, peer)
	p := "aggcache_" + sub + "_"
	m.WireErrors = r.Counter(p+"wire_errors_total", "Connections from "+peer+" torn down by malformed frames, resets or write failures.")
	m.IdleCloses = r.Counter(p+"idle_closes_total", "Idle connections from "+peer+" reaped by the read deadline (not errors).")
	m.Panics = r.Counter(p+"request_panics_total", "Requests whose handler panicked and was recovered into an error reply.")
	return m
}

// BackendMetrics instruments backend.Engine and backend.Server: request
// traffic, the split between real compute and the simulated network/DBMS
// latency, and the server's wire-level accounting.
type BackendMetrics struct {
	WireMetrics
	Requests      *Counter
	Chunks        *Counter
	TuplesScanned *Counter
	ResultCells   *Counter
	Wall          *Histogram
	Sim           *Histogram
}

// NewBackendMetrics registers the backend metric set on r.
func NewBackendMetrics(r *Registry) BackendMetrics {
	return BackendMetrics{
		WireMetrics:   newServingMetrics(r, "backend", "middle tiers"),
		Requests:      r.Counter("aggcache_backend_requests_total", "ComputeChunks requests served."),
		Chunks:        r.Counter("aggcache_backend_chunks_computed_total", "Chunks computed at the backend."),
		TuplesScanned: r.Counter("aggcache_backend_tuples_scanned_total", "Fact/aggregate tuples scanned."),
		ResultCells:   r.Counter("aggcache_backend_result_cells_total", "Result cells produced."),
		Wall:          r.Histogram("aggcache_backend_request_seconds", "Real compute time per backend request."),
		Sim:           r.Histogram("aggcache_backend_sim_seconds", "Simulated network/DBMS latency charged per backend request."),
	}
}

// ServerMetrics instruments mtier.Server: connection and request traffic
// with failures counted by kind.
type ServerMetrics struct {
	WireMetrics
	Requests          *Counter
	CompileErrors     *Counter
	ExecuteErrors     *Counter
	TimeoutErrors     *Counter
	UnavailableErrors *Counter
	Latency           *Histogram
}

// NewServerMetrics registers the middle-tier server metric set on r.
func NewServerMetrics(r *Registry) ServerMetrics {
	m := ServerMetrics{
		WireMetrics:       newServingMetrics(r, "server", "clients"),
		Requests:          r.Counter("aggcache_server_requests_total", "Requests received."),
		CompileErrors:     r.Counter(`aggcache_server_request_errors_total{kind="compile"}`, "Failed requests, by failure kind."),
		ExecuteErrors:     r.Counter(`aggcache_server_request_errors_total{kind="execute"}`, ""),
		TimeoutErrors:     r.Counter(`aggcache_server_request_errors_total{kind="timeout"}`, ""),
		UnavailableErrors: r.Counter(`aggcache_server_request_errors_total{kind="unavailable"}`, ""),
		Latency:           r.Histogram("aggcache_server_request_seconds", "Server-side wall time per request."),
	}
	m.Conns = r.Gauge("aggcache_server_connections_open", "Client connections currently served.")
	return m
}

// RemoteMetrics instruments the self-healing backend.Remote client: retry
// and redial churn, requests abandoned as unavailable, and the multiplexed
// wire traffic.
type RemoteMetrics struct {
	WireMetrics
	Requests    *Counter
	Retries     *Counter
	Redials     *Counter
	Unavailable *Counter
	Busy        *Counter
}

// NewRemoteMetrics registers the remote-client metric set on r.
func NewRemoteMetrics(r *Registry) RemoteMetrics {
	return RemoteMetrics{
		WireMetrics: newWireMetrics(r, "remote", "the backend"),
		Requests:    r.Counter("aggcache_remote_requests_total", "Backend wire requests issued by the remote client."),
		Retries:     r.Counter("aggcache_remote_retries_total", "Attempts beyond the first, after a transient failure."),
		Redials:     r.Counter("aggcache_remote_redials_total", "Reconnects after a torn-down backend connection."),
		Unavailable: r.Counter("aggcache_remote_unavailable_total", "Requests abandoned after exhausting the retry budget."),
		Busy:        r.Counter("aggcache_remote_busy_total", "Busy (shed) replies received from the server."),
	}
}

// PeerMetrics instruments one remote member of the peered cache tier. All
// series carry a peer=… label so every cluster member shares a registry.
type PeerMetrics struct {
	Hits   *Counter
	Misses *Counter
	Errors *Counter
	Skips  *Counter

	BreakerState *Gauge
	Latency      *Histogram
}

// NewPeerMetrics registers the per-peer metric set on r, labeled with the
// peer's address.
func NewPeerMetrics(r *Registry, peer string) PeerMetrics {
	l := fmt.Sprintf("{peer=%q}", peer)
	return PeerMetrics{
		Hits:   r.Counter("aggcache_peer_fill_hits_total"+l, "Peer-fill exchanges that returned the chunk."),
		Misses: r.Counter("aggcache_peer_fill_misses_total"+l, "Peer-fill exchanges the peer answered without the chunk."),
		Errors: r.Counter("aggcache_peer_fill_errors_total"+l, "Peer-fill exchanges that failed (timeout, connection or protocol error)."),
		Skips:  r.Counter("aggcache_peer_fill_skips_total"+l, "Peer-fill attempts suppressed by the peer's open circuit breaker."),

		BreakerState: r.Gauge("aggcache_peer_breaker_state"+l, "Per-peer breaker state: 0 closed, 1 probing, 2 open."),
		Latency:      r.Histogram("aggcache_peer_fill_seconds"+l, "Peer-fill exchange latency."),
	}
}

// AdmissionMetrics instruments the middle-tier admission controller: the
// queue's live depth, admitted traffic, queue-wait latency, and sheds split
// by cause so a flash crowd (queue_full) reads differently from a scan
// flood of unmeetable deadlines (deadline) or a quota-capped tenant (quota).
type AdmissionMetrics struct {
	Admitted *Counter

	ShedQueueFull *Counter
	ShedDeadline  *Counter
	ShedExpired   *Counter
	ShedQuota     *Counter

	QueueDepth *Gauge
	QueueWait  *Histogram
}

// NewAdmissionMetrics registers the admission metric set on r.
func NewAdmissionMetrics(r *Registry) AdmissionMetrics {
	return AdmissionMetrics{
		Admitted: r.Counter("aggcache_admission_admitted_total", "Requests admitted past the admission queue to the engine."),

		ShedQueueFull: r.Counter(`aggcache_admission_sheds_total{reason="queue_full"}`, "Requests shed before execution, by cause: admission queue full, deadline unmeetable at enqueue, deadline expired while queued, or tenant quota exhausted."),
		ShedDeadline:  r.Counter(`aggcache_admission_sheds_total{reason="deadline"}`, ""),
		ShedExpired:   r.Counter(`aggcache_admission_sheds_total{reason="expired"}`, ""),
		ShedQuota:     r.Counter(`aggcache_admission_sheds_total{reason="quota"}`, ""),

		QueueDepth: r.Gauge("aggcache_admission_queue_depth", "Requests currently waiting for an execution slot."),
		QueueWait:  r.Histogram("aggcache_admission_queue_wait_seconds", "Time admitted requests spent waiting for an execution slot."),
	}
}

// BreakerMetrics instruments backend.Breaker: live state plus transition
// and fail-fast traffic.
type BreakerMetrics struct {
	State     *Gauge
	Opens     *Counter
	FastFails *Counter
	Probes    *Counter
}

// NewBreakerMetrics registers the circuit-breaker metric set on r.
func NewBreakerMetrics(r *Registry) BreakerMetrics {
	return BreakerMetrics{
		State:     r.Gauge("aggcache_breaker_state", "Circuit breaker state: 0 closed, 1 half-open, 2 open."),
		Opens:     r.Counter("aggcache_breaker_opens_total", "Times the breaker tripped open."),
		FastFails: r.Counter("aggcache_breaker_fast_fails_total", "Requests failed fast while the breaker was open."),
		Probes:    r.Counter("aggcache_breaker_probes_total", "Half-open probe requests admitted."),
	}
}
