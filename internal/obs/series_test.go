package obs

import (
	"slices"
	"strings"
	"testing"
)

// seriesGolden is every series the metric bundles register, sorted. It
// is the exported observability contract (DESIGN.md §7): a change here is
// a change operators' dashboards and alerts see.
const seriesGolden = `
aggcache_admission_admitted_total
aggcache_admission_queue_depth
aggcache_admission_queue_wait_seconds
aggcache_admission_sheds_total{reason="deadline"}
aggcache_admission_sheds_total{reason="expired"}
aggcache_admission_sheds_total{reason="queue_full"}
aggcache_admission_sheds_total{reason="quota"}
aggcache_backend_chunks_computed_total
aggcache_backend_idle_closes_total
aggcache_backend_request_panics_total
aggcache_backend_request_seconds
aggcache_backend_requests_in_flight
aggcache_backend_requests_total
aggcache_backend_result_cells_total
aggcache_backend_sim_seconds
aggcache_backend_tuples_scanned_total
aggcache_backend_wire_bytes_in_total
aggcache_backend_wire_bytes_out_total
aggcache_backend_wire_errors_total
aggcache_backend_wire_frames_in_total
aggcache_backend_wire_frames_out_total
aggcache_breaker_fast_fails_total
aggcache_breaker_opens_total
aggcache_breaker_probes_total
aggcache_breaker_state
aggcache_cache_admission_denied_total
aggcache_cache_capacity_bytes
aggcache_cache_evictions_total{cause="policy"}
aggcache_cache_hits_total
aggcache_cache_inserts_total
aggcache_cache_misses_total
aggcache_cache_occupancy_bytes
aggcache_cache_pin_failures_total
aggcache_cache_replacements_total
aggcache_cache_resident_chunks
aggcache_cold_capacity_bytes
aggcache_cold_evictions_total
aggcache_cold_hits_total
aggcache_cold_misses_total
aggcache_cold_occupancy_bytes
aggcache_cold_raw_bytes
aggcache_cold_resident_chunks
aggcache_engine_aggregate_seconds
aggcache_engine_aggregated_tuples_total
aggcache_engine_backend_requests_total
aggcache_engine_backend_seconds
aggcache_engine_backend_tuples_total
aggcache_engine_backend_unavailable_total
aggcache_engine_budget_misses_total
aggcache_engine_chunks_aggregated_total
aggcache_engine_chunks_fetched_total
aggcache_engine_chunks_hit_total
aggcache_engine_chunks_peer_filled_total
aggcache_engine_complete_hits_total
aggcache_engine_deadline_exceeded_total
aggcache_engine_degraded_answers_total
aggcache_engine_flight_follower_chunks_total
aggcache_engine_flight_leader_chunks_total
aggcache_engine_lookup_seconds
aggcache_engine_peer_fill_panics_total
aggcache_engine_queries_total
aggcache_engine_query_errors_total
aggcache_engine_query_seconds
aggcache_engine_recycle_rejected_total
aggcache_engine_recycled_chunks_total
aggcache_engine_update_seconds
aggcache_peer_breaker_state{peer="node1"}
aggcache_peer_fill_errors_total{peer="node1"}
aggcache_peer_fill_hits_total{peer="node1"}
aggcache_peer_fill_misses_total{peer="node1"}
aggcache_peer_fill_seconds{peer="node1"}
aggcache_peer_fill_skips_total{peer="node1"}
aggcache_remote_busy_total
aggcache_remote_redials_total
aggcache_remote_requests_in_flight
aggcache_remote_requests_total
aggcache_remote_retries_total
aggcache_remote_unavailable_total
aggcache_remote_wire_bytes_in_total
aggcache_remote_wire_bytes_out_total
aggcache_remote_wire_frames_in_total
aggcache_remote_wire_frames_out_total
aggcache_server_connections_open
aggcache_server_idle_closes_total
aggcache_server_request_errors_total{kind="compile"}
aggcache_server_request_errors_total{kind="execute"}
aggcache_server_request_errors_total{kind="timeout"}
aggcache_server_request_errors_total{kind="unavailable"}
aggcache_server_request_panics_total
aggcache_server_request_seconds
aggcache_server_requests_in_flight
aggcache_server_requests_total
aggcache_server_wire_bytes_in_total
aggcache_server_wire_bytes_out_total
aggcache_server_wire_errors_total
aggcache_server_wire_frames_in_total
aggcache_server_wire_frames_out_total
aggcache_strategy_find_hits_total{strategy="VCMC"}
aggcache_strategy_find_seconds{strategy="VCMC"}
aggcache_strategy_find_total{strategy="VCMC"}
aggcache_strategy_nodes_visited_total{strategy="VCMC"}
aggcache_tier_boundary_moves_total{toward="cold"}
aggcache_tier_boundary_moves_total{toward="hot"}
aggcache_tier_demote_denied_total
aggcache_tier_demotes_total
aggcache_tier_ghost_hits_total{tier="cold"}
aggcache_tier_ghost_hits_total{tier="hot"}
`

// TestRegisteredSeriesGolden pins the series names the bundles register.
func TestRegisteredSeriesGolden(t *testing.T) {
	r := NewRegistry()
	NewEngineMetrics(r)
	NewCacheMetrics(r)
	NewTierMetrics(r)
	NewStrategyMetrics(r, "VCMC")
	NewBackendMetrics(r)
	NewServerMetrics(r)
	NewRemoteMetrics(r)
	NewPeerMetrics(r, "node1")
	NewAdmissionMetrics(r)
	NewBreakerMetrics(r)
	var got []string
	for _, m := range r.snapshot() {
		got = append(got, m.name)
	}
	slices.Sort(got)
	want := strings.Fields(seriesGolden)
	for _, n := range got {
		if !slices.Contains(want, n) {
			t.Errorf("series %s registered but not in the golden list", n)
		}
	}
	for _, n := range want {
		if !slices.Contains(got, n) {
			t.Errorf("series %s in the golden list but not registered", n)
		}
	}
}
