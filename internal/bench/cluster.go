package bench

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aggcache/internal/backend"
	"aggcache/internal/cache"
	"aggcache/internal/core"
	"aggcache/internal/mtier"
	"aggcache/internal/workload"
)

// clusterJSONFile is the machine-readable artifact Cluster writes next to
// its report, so the scale-out trajectory can be compared across commits
// without parsing report text.
const clusterJSONFile = "BENCH_7.json"

// Axes of the cluster sweep: node counts with a fixed number of clients per
// node, the standard scale-out methodology — per-node resources (capacity,
// client load) are pinned and the offered load grows with the group, so the
// curve answers "does adding a node increase the queries/sec the group
// sustains", which is aggregate capacity plus peer-fill reuse.
var clusterNodeCounts = []int{1, 2, 3, 4}

const clusterClientsPerNode = 4

// clusterMeasurePasses is how many concurrent replays the timed window
// spans; one untimed replay converges the group first, so the measurement
// is steady state, and a multi-pass window damps scheduler noise.
const clusterMeasurePasses = 2

// clusterMix is the APB-1 proximity-heavy stream: neighbors of recently
// asked regions dominate, so a chunk fetched by any node is soon wanted
// again somewhere in the group — the access pattern the peer tier targets.
var clusterMix = workload.Mix{DrillDown: 0.1, RollUp: 0.1, Proximity: 0.7, Random: 0.1}

// clusterMetrics is the BENCH_7.json schema.
type clusterMetrics struct {
	artifact
	// ClientsPerNode is the offered load per member: total clients for a row
	// are nodes × this, so the sweep measures sustained group throughput.
	ClientsPerNode int `json:"clients_per_node"`
	// PerNodeBytes is each node's local capacity — fixed across the sweep,
	// so aggregate capacity grows linearly with the node count.
	PerNodeBytes int64        `json:"per_node_bytes"`
	Rows         []clusterRow `json:"rows"`
	Speedup4v1   float64      `json:"speedup_4v1"`
	MonotonicQPS bool         `json:"monotonic_qps"`
	MonotonicHit bool         `json:"monotonic_hit_rate"`
}

type clusterRow struct {
	Nodes   int     `json:"nodes"`
	Queries int64   `json:"queries"`
	WallMs  float64 `json:"wall_ms"`
	QPS     float64 `json:"qps"`
	// GroupHitRate is the fraction of chunks the cluster answered without
	// the backend: local hits, in-cache aggregation and peer fills.
	GroupHitRate float64 `json:"group_hit_rate"`
	// LocalHitRate excludes peer fills — the single-node baseline metric.
	LocalHitRate  float64 `json:"local_hit_rate"`
	PeerFills     int64   `json:"peer_fills"`
	PeerFillMiss  int64   `json:"peer_fill_misses"`
	PeerFillErrs  int64   `json:"peer_fill_errors"`
	PeerPuts      int64   `json:"peer_puts"`
	BackendChunks int64   `json:"backend_chunks"`
}

// clusterNode is one in-process cluster member: a stack whose local store is
// wrapped in the peer tier, and the mtier server carrying peer traffic.
type clusterNode struct {
	stack  *core.Stack
	server *mtier.Server
}

// buildCluster assembles n nodes over a shared slept backend. Ring members
// are logical names resolved to TCP addresses by the dialer, so the ring can
// be constructed before any listener is bound: each node starts as a
// singleton ring and is rebuilt to full membership once every server has a
// port — the same two-step a SIGHUP membership reload performs.
func buildCluster(e *Env, n int, be backend.Backend, perNode int64) ([]*clusterNode, error) {
	addrOf := make(map[string]string, n)
	var mu sync.Mutex
	dial := func(name string) cache.Peer {
		mu.Lock()
		addr := addrOf[name]
		mu.Unlock()
		return mtier.NewPeerClient(addr, 0)
	}
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("node%d", i)
	}
	nodes := make([]*clusterNode, 0, n)
	fail := func(err error) ([]*clusterNode, error) {
		closeCluster(nodes)
		return nil, err
	}
	for i := 0; i < n; i++ {
		st, err := e.NewSystem(core.Config{
			Strategy: "VCMC", Policy: "two-level", HotBytes: perNode, Backend: be,
			Peers: &cache.PeeredConfig{Self: names[i], Members: []string{names[i]}, Dial: dial},
		}, false)
		if err != nil {
			return fail(err)
		}
		srv := mtier.NewServer(st.Engine)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			st.Peered.Close()
			return fail(err)
		}
		mu.Lock()
		addrOf[names[i]] = addr
		mu.Unlock()
		nodes = append(nodes, &clusterNode{stack: st, server: srv})
	}
	for _, nd := range nodes {
		if err := nd.stack.Peered.Rebuild(names); err != nil {
			return fail(err)
		}
	}
	return nodes, nil
}

func closeCluster(nodes []*clusterNode) {
	for _, nd := range nodes {
		nd.server.Close()
		nd.stack.Peered.Close()
	}
}

// Cluster measures the distributed cache tier's scaling curve: aggregate
// hit rate and sustained throughput for 1–4 cooperating nodes on the
// proximity-heavy APB-1 mix, with a fixed number of clients per node so the
// offered load grows with the group. Per-node capacity is pinned, so adding
// a node adds both service parallelism and a slice of aggregate capacity the
// group shares via peer fills. The backend sleeps its simulated latency, so
// a peer fill (a sub-millisecond wire exchange) beats a backend trip by an
// order of magnitude and the hit-rate gain shows up as throughput.
func Cluster(e *Env) (*Report, error) {
	gen, err := workload.NewGenerator(e.Grid, clusterMix, e.Cfg.MaxQueryWidth, e.Cfg.Seed+7000)
	if err != nil {
		return nil, err
	}
	queries, _ := gen.Stream(e.Cfg.Queries)
	// A sixth of the base table each: the 1-node baseline is genuinely
	// capacity-starved, and even the 4-node group (two thirds of the base
	// table in aggregate, minus duplication and computed-chunk overhead)
	// still has backend traffic left to convert, so every added node moves
	// both the hit rate and the throughput.
	perNode := e.BaseBytes() / 6

	// A dedicated backend whose simulated latency is genuinely slept: the
	// wall-clock cost of a miss is real, so hit-rate improvements translate
	// into measured throughput exactly as they would in the three-tier
	// deployment.
	be, err := backend.NewEngine(e.Grid, e.Table, backend.LatencyModel{
		Connect: 10 * time.Millisecond, PerTuple: 200 * time.Nanosecond, Sleep: true,
	})
	if err != nil {
		return nil, err
	}
	defer be.Close()

	m := clusterMetrics{artifact: newArtifact(e, "cluster")}
	m.ClientsPerNode = clusterClientsPerNode
	m.PerNodeBytes = perNode

	r := &Report{
		ID: "cluster",
		Title: fmt.Sprintf("Distributed cache tier scaling, proximity mix (VCMC/two-level, %s per node, %d clients/node)",
			SizeLabel(perNode), clusterClientsPerNode),
		Header: []string{"nodes", "queries", "wall ms", "queries/sec", "group hit", "local hit", "peer fills", "backend chunks"},
	}

	for _, n := range clusterNodeCounts {
		nodes, err := buildCluster(e, n, be, perNode)
		if err != nil {
			return nil, err
		}
		// Warm pass: one sequential round-robin replay populates the group
		// and lets replication spread each backend fill to its ring owner.
		for i, q := range queries {
			if _, err := nodes[i%n].stack.Engine.Execute(context.Background(), q); err != nil {
				closeCluster(nodes)
				return nil, err
			}
		}
		// Let the asynchronous replication queues drain before measuring.
		time.Sleep(200 * time.Millisecond)

		// Two concurrent passes: the first converges the group — every node
		// pulls the chunks its pinned clients will keep asking for — and the
		// second is the measured steady state, the regime a long-lived tier
		// actually serves.
		clients := clusterClientsPerNode * n
		var hit, miss, peer atomic.Int64
		var elapsed time.Duration
		replay := func(measure bool) error {
			errs := make(chan error, clients)
			var wg sync.WaitGroup
			start := time.Now()
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					eng := nodes[c%n].stack.Engine
					off := c * len(queries) / clients
					for i := range queries {
						res, err := eng.Execute(context.Background(), queries[(off+i)%len(queries)])
						if err != nil {
							errs <- fmt.Errorf("bench: cluster client %d: %w", c, err)
							return
						}
						if measure {
							hit.Add(int64(res.HitChunks))
							miss.Add(int64(res.MissChunks))
							peer.Add(int64(res.PeerChunks))
						}
					}
				}(c)
			}
			wg.Wait()
			if measure {
				elapsed += time.Since(start)
			}
			close(errs)
			for err := range errs {
				return err
			}
			return nil
		}
		if err := replay(false); err != nil {
			closeCluster(nodes)
			return nil, err
		}
		sum := func() cache.PeerStats {
			var ps cache.PeerStats
			for _, nd := range nodes {
				s := nd.stack.Peered.PeerStats()
				ps.Fills += s.Fills
				ps.FillMisses += s.FillMisses
				ps.FillErrors += s.FillErrors
				ps.Puts += s.Puts
			}
			return ps
		}
		before := sum()
		for pass := 0; pass < clusterMeasurePasses; pass++ {
			if err := replay(true); err != nil {
				closeCluster(nodes)
				return nil, err
			}
		}
		after := sum()
		// Peer counters for the row are the measured pass only.
		ps := cache.PeerStats{
			Fills:      after.Fills - before.Fills,
			FillMisses: after.FillMisses - before.FillMisses,
			FillErrors: after.FillErrors - before.FillErrors,
			Puts:       after.Puts - before.Puts,
		}
		closeCluster(nodes)

		total := hit.Load() + miss.Load()
		row := clusterRow{
			Nodes:         n,
			Queries:       int64(clusterMeasurePasses * clients * len(queries)),
			WallMs:        float64(elapsed) / float64(time.Millisecond),
			QPS:           float64(clusterMeasurePasses*clients*len(queries)) / elapsed.Seconds(),
			GroupHitRate:  float64(hit.Load()+peer.Load()) / float64(total),
			LocalHitRate:  float64(hit.Load()) / float64(total),
			PeerFills:     ps.Fills,
			PeerFillMiss:  ps.FillMisses,
			PeerFillErrs:  ps.FillErrors,
			PeerPuts:      ps.Puts,
			BackendChunks: miss.Load() - peer.Load(),
		}
		m.Rows = append(m.Rows, row)
		r.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%d", row.Queries), msString(elapsed),
			fmt.Sprintf("%.0f", row.QPS),
			fmt.Sprintf("%.1f%%", row.GroupHitRate*100), fmt.Sprintf("%.1f%%", row.LocalHitRate*100),
			fmt.Sprintf("%d", row.PeerFills), fmt.Sprintf("%d", row.BackendChunks))
	}

	m.Speedup4v1 = m.Rows[len(m.Rows)-1].QPS / m.Rows[0].QPS
	m.MonotonicQPS, m.MonotonicHit = true, true
	for i := 1; i < len(m.Rows); i++ {
		if m.Rows[i].QPS < m.Rows[i-1].QPS {
			m.MonotonicQPS = false
		}
		if m.Rows[i].GroupHitRate < m.Rows[i-1].GroupHitRate {
			m.MonotonicHit = false
		}
	}
	m.Gates = clusterGates(&m)
	r.Gates = m.Gates

	r.Addf("each row rebuilds an n-node cluster (%s local tier each), warms with one round-robin replay of the %d-query stream, converges with one untimed concurrent pass, then measures %d clients per node replaying it",
		SizeLabel(perNode), len(queries), clusterClientsPerNode)
	r.Addf("4-node vs 1-node throughput: %.2f× (qps monotonic: %v, group hit rate monotonic: %v)",
		m.Speedup4v1, m.MonotonicQPS, m.MonotonicHit)
	if err := writeArtifact(r, clusterJSONFile, &m); err != nil {
		return nil, err
	}
	return r, nil
}

// clusterGates are the scale-out floors: adding a node must never lower the
// group's throughput or its hit rate.
func clusterGates(m *clusterMetrics) []Gate {
	var qps, hit []string
	for _, row := range m.Rows {
		qps = append(qps, fmt.Sprintf("%.0f", row.QPS))
		hit = append(hit, fmt.Sprintf("%.3f", row.GroupHitRate))
	}
	return []Gate{
		holds("monotonic_qps", m.MonotonicQPS, "qps by node count "+strings.Join(qps, ", ")),
		holds("monotonic_hit_rate", m.MonotonicHit, "group hit rate by node count "+strings.Join(hit, ", ")),
	}
}
