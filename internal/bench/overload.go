package bench

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"aggcache/internal/backend"
	"aggcache/internal/core"
	"aggcache/internal/mtier"
	"aggcache/internal/wire"
	"aggcache/internal/workload"
)

// overloadJSONFile is the machine-readable artifact Overload writes next to
// its report, with the verdicts of overloadGates: a regression that makes
// the server collapse under overload fails the run instead of shipping.
const overloadJSONFile = "BENCH_8.json"

// Admission configuration for the sweep server: few slots over a backend
// that really sleeps, so capacity is small, predictable, and cheap to
// exceed from a single process.
const (
	overloadSlots          = 4
	overloadQueue          = 4
	overloadMaxWait        = 20 * time.Millisecond
	overloadConnect        = 10 * time.Millisecond
	overloadWorkers        = 96
	overloadWorkersPerConn = 8
	overloadWarm           = 200 * time.Millisecond
	overloadMeasure        = 1200 * time.Millisecond
)

// overloadMultiples is the offered-load sweep, as multiples of the measured
// closed-loop capacity. The interesting rows are past 1×: a server without
// admission control sees goodput collapse there; a shedding server holds it
// near capacity.
var overloadMultiples = []float64{0.5, 1, 2, 4}

// Fairness stage: the polite tenant is paced inside the quota, the flood
// is not, and the quota is what keeps the flood from dragging the polite
// tenant's hit rate down.
const (
	overloadTenantQPS   = 50
	overloadPoliteRate  = 40 // paced offered qps, inside the quota
	overloadFairMeasure = 1500 * time.Millisecond
)

// overloadMetrics is the BENCH_8.json schema.
type overloadMetrics struct {
	artifact
	// Admission configuration of the server under test.
	MaxConcurrent int     `json:"max_concurrent"`
	MaxQueue      int     `json:"max_queue"`
	MaxWaitMs     float64 `json:"max_wait_ms"`
	// CapacityQPS is the closed-loop completion rate with exactly
	// MaxConcurrent clients — the denominator for the sweep's multiples.
	CapacityQPS float64       `json:"capacity_qps"`
	Rows        []overloadRow `json:"rows"`
	// GoodputRatio2x is goodput at 2× offered load over goodput at 1× — the
	// collapse detector overloadGates checks (≥ 0.8 means shedding works).
	GoodputRatio2x float64 `json:"goodput_ratio_2x"`
	// P99BoundMs is 3× the uncontended (0.5× offered load) p99 — the
	// acceptance bound; P99Bounded reports the 4× row stayed inside it:
	// shedding keeps the tail of what IS admitted near its uncontended
	// shape instead of letting the queue stretch it without limit.
	P99BoundMs float64          `json:"p99_bound_ms"`
	P99Bounded bool             `json:"p99_bounded"`
	Fairness   overloadFairness `json:"fairness"`
}

type overloadRow struct {
	Multiple   float64 `json:"multiple"`
	TargetQPS  float64 `json:"target_qps"`
	OfferedQPS float64 `json:"offered_qps"`
	Offered    int64   `json:"offered"`
	Admitted   int64   `json:"admitted"`
	GoodputQPS float64 `json:"goodput_qps"`
	Sheds      int64   `json:"sheds"`
	// P50/P99 are client-observed latencies of admitted queries only; sheds
	// answer in microseconds and would flatter the numbers.
	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`
}

// overloadFairness records the noisy-neighbor demonstration: the polite
// tenant's hit rate alone vs with an unpaced scan flood sharing the server
// under per-tenant quotas.
type overloadFairness struct {
	TenantQPS          float64 `json:"tenant_qps"`
	PoliteHitAlone     float64 `json:"polite_hit_alone"`
	PoliteHitWithFlood float64 `json:"polite_hit_with_flood"`
	HitDropPoints      float64 `json:"hit_drop_points"`
	FloodOffered       int64   `json:"flood_offered"`
	FloodAdmitted      int64   `json:"flood_admitted"`
	FloodQuotaSheds    int64   `json:"flood_quota_sheds"`
}

// overloadServer builds a fresh system (own cache) over a really-sleeping
// backend and serves it with the given admission config.
func overloadServer(e *Env, be backend.Backend, bytes int64, cfg mtier.AdmissionConfig) (*mtier.Server, string, error) {
	sys, err := e.NewSystem(core.Config{
		Strategy: "VCMC", Policy: "two-level",
		HotBytes: bytes, Backend: be,
	}, false)
	if err != nil {
		return nil, "", err
	}
	srv := mtier.NewServer(sys.Engine)
	srv.SetAdmission(cfg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return srv, addr, nil
}

// overloadClients opens one connection per overloadWorkersPerConn workers so
// no connection's in-flight count brushes the per-connection wire cap — the
// experiment measures the admission queue, not wire backpressure.
func overloadClients(addr, tenant string, workers int) ([]*mtier.Client, error) {
	n := (workers + overloadWorkersPerConn - 1) / overloadWorkersPerConn
	clients := make([]*mtier.Client, 0, n)
	for i := 0; i < n; i++ {
		cl, err := mtier.Dial(addr)
		if err != nil {
			for _, c := range clients {
				c.Close()
			}
			return nil, err
		}
		if tenant != "" {
			cl.SetTenant(tenant)
		}
		clients = append(clients, cl)
	}
	return clients, nil
}

func closeClients(clients []*mtier.Client) {
	for _, c := range clients {
		c.Close()
	}
}

// overloadCounts is one worker pool's tally over a measured window.
type overloadCounts struct {
	offered, ok, sheds, hits atomic.Int64
	quota, other             atomic.Int64

	mu   sync.Mutex
	lats []time.Duration
}

func (c *overloadCounts) observe(d time.Duration) {
	c.mu.Lock()
	c.lats = append(c.lats, d)
	c.mu.Unlock()
}

func (c *overloadCounts) quantile(q float64) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.lats) == 0 {
		return 0
	}
	sort.Slice(c.lats, func(i, j int) bool { return c.lats[i] < c.lats[j] })
	i := int(q * float64(len(c.lats)-1))
	return c.lats[i]
}

// overloadIssue sends one query and classifies the outcome. It returns an
// error only for failures that are neither success nor an in-band shed —
// under overload those are collapse, and the experiment aborts on them.
func overloadIssue(cl *mtier.Client, src string, measure bool, c *overloadCounts) error {
	start := time.Now()
	resp, err := cl.Query(src)
	if !measure {
		if err != nil {
			if _, ok := wire.AsBusy(err); ok {
				return nil
			}
			return err
		}
		return nil
	}
	c.offered.Add(1)
	if err == nil {
		c.ok.Add(1)
		c.observe(time.Since(start))
		if resp.CompleteHit {
			c.hits.Add(1)
		}
		return nil
	}
	be, isBusy := wire.AsBusy(err)
	if !isBusy {
		c.other.Add(1)
		return fmt.Errorf("bench: overload: unclassified error under load: %w", err)
	}
	if !backend.IsTransient(err) {
		return fmt.Errorf("bench: overload: busy shed not transient: %w", err)
	}
	c.sheds.Add(1)
	if be.Reason == "quota" {
		c.quota.Add(1)
	}
	return nil
}

// Overload measures graceful load shedding: a small-capacity server (few
// execution slots over a backend whose latency is genuinely slept) is swept
// with offered load from half to four times its measured closed-loop
// capacity, using the scan-flood stream so every admitted query really
// costs a backend trip. The contract under test: goodput stays near
// capacity past saturation instead of collapsing (the excess is shed with
// in-band Busy replies), the p99 of admitted queries stays bounded by the
// queue-wait cap, and — in a second stage — per-tenant quotas keep an
// unpaced scan flood from dragging a polite tenant's hit rate down.
func Overload(e *Env) (*Report, error) {
	be, err := backend.NewEngine(e.Grid, e.Table, backend.LatencyModel{
		Connect: overloadConnect, PerTuple: 200 * time.Nanosecond, Sleep: true,
	})
	if err != nil {
		return nil, err
	}
	defer be.Close()

	m := overloadMetrics{artifact: newArtifact(e, "overload")}
	m.MaxConcurrent = overloadSlots
	m.MaxQueue = overloadQueue
	m.MaxWaitMs = float64(overloadMaxWait) / float64(time.Millisecond)

	r := &Report{
		ID: "overload",
		Title: fmt.Sprintf("Admission control under overload (%d slots, queue %d, max wait %v, backend connect %v slept)",
			overloadSlots, overloadQueue, overloadMaxWait, overloadConnect),
		Header: []string{"offered ×cap", "offered qps", "goodput qps", "admitted", "sheds", "p50 ms", "p99 ms"},
	}

	srv, addr, err := overloadServer(e, be, e.BaseBytes()/4, mtier.AdmissionConfig{
		MaxConcurrent: overloadSlots, MaxQueue: overloadQueue, MaxWait: overloadMaxWait,
	})
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	// Stage 1: capacity. Exactly MaxConcurrent closed-loop clients keep
	// every slot busy with zero queueing — the completion rate is the
	// service capacity the sweep's multiples are relative to.
	capQPS, err := overloadCapacity(e, addr)
	if err != nil {
		return nil, err
	}
	m.CapacityQPS = capQPS
	r.Addf("closed-loop capacity with %d clients: %.0f queries/sec", overloadSlots, capQPS)

	// Stage 2: the offered-load sweep.
	for _, mult := range overloadMultiples {
		row, err := overloadSweepPoint(e, addr, mult, capQPS)
		if err != nil {
			return nil, err
		}
		m.Rows = append(m.Rows, row)
		r.AddRow(fmt.Sprintf("%.1f×", mult), fmt.Sprintf("%.0f", row.OfferedQPS),
			fmt.Sprintf("%.0f", row.GoodputQPS), fmt.Sprintf("%d", row.Admitted),
			fmt.Sprintf("%d", row.Sheds), fmt.Sprintf("%.1f", row.P50Ms), fmt.Sprintf("%.1f", row.P99Ms))
	}

	var at1x, at2x float64
	for _, row := range m.Rows {
		if row.Multiple == 1 {
			at1x = row.GoodputQPS
		}
		if row.Multiple == 2 {
			at2x = row.GoodputQPS
		}
	}
	if at1x > 0 {
		m.GoodputRatio2x = at2x / at1x
	}
	var p99Base, p99Peak float64
	for _, row := range m.Rows {
		if row.Multiple == overloadMultiples[0] {
			p99Base = row.P99Ms
		}
		if row.Multiple == overloadMultiples[len(overloadMultiples)-1] {
			p99Peak = row.P99Ms
		}
	}
	m.P99BoundMs = 3 * p99Base
	m.P99Bounded = p99Peak <= m.P99BoundMs

	// Stage 3: tenant fairness under quotas, on a fresh server and cache.
	fair, err := overloadFairnessStage(e, be)
	if err != nil {
		return nil, err
	}
	m.Fairness = fair
	m.Gates = overloadGates(&m)
	r.Gates = m.Gates

	r.Addf("goodput at 2× offered load is %.0f%% of goodput at 1×", m.GoodputRatio2x*100)
	r.Addf("p99 of admitted queries at 4× load within 3× the uncontended p99 (%.1fms bound): %v", m.P99BoundMs, m.P99Bounded)
	r.Addf("fairness: polite tenant hit rate %.1f%% alone, %.1f%% beside an unpaced scan flood (%d quota sheds) — drop %.1f points",
		fair.PoliteHitAlone*100, fair.PoliteHitWithFlood*100, fair.FloodQuotaSheds, fair.HitDropPoints)
	if err := writeArtifact(r, overloadJSONFile, &m); err != nil {
		return nil, err
	}
	return r, nil
}

// overloadGates are the admission floors: goodput holds past saturation,
// the admitted tail stays bounded, and the tenant quota both fires on the
// flood and keeps it from costing the polite tenant more than 5 hit-rate
// points.
func overloadGates(m *overloadMetrics) []Gate {
	var peak float64 // admitted p99 at the heaviest offered load
	if n := len(m.Rows); n > 0 {
		peak = m.Rows[n-1].P99Ms
	}
	return []Gate{
		atLeast("goodput_ratio_2x", m.GoodputRatio2x, 0.8),
		holds("p99_bounded", m.P99Bounded, fmt.Sprintf("peak-load p99 %.1fms, bound %.1fms", peak, m.P99BoundMs)),
		atMost("fairness.hit_drop_points", m.Fairness.HitDropPoints, 5),
		atLeast("fairness.flood_quota_sheds", float64(m.Fairness.FloodQuotaSheds), 1),
	}
}

// overloadCapacity measures the closed-loop completion rate with exactly
// one client per execution slot.
func overloadCapacity(e *Env, addr string) (float64, error) {
	clients, err := overloadClients(addr, "", overloadSlots)
	if err != nil {
		return 0, err
	}
	defer closeClients(clients)

	var c overloadCounts
	var firstErr atomic.Value
	run := func(measure bool, dur time.Duration) {
		end := time.Now().Add(dur)
		var wg sync.WaitGroup
		for w := 0; w < overloadSlots; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				src, err := workload.NewScanFlood(e.Grid, 2, e.Cfg.Seed+int64(8000+w))
				if err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				cl := clients[w/overloadWorkersPerConn]
				for time.Now().Before(end) {
					q := workload.FormatQuery(e.Grid, src.Next())
					if err := overloadIssue(cl, q, measure, &c); err != nil {
						firstErr.CompareAndSwap(nil, err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}
	run(false, overloadWarm)
	start := time.Now()
	run(true, overloadMeasure)
	elapsed := time.Since(start)
	if err, ok := firstErr.Load().(error); ok && err != nil {
		return 0, err
	}
	if c.ok.Load() == 0 {
		return 0, fmt.Errorf("bench: overload: capacity stage completed nothing")
	}
	return float64(c.ok.Load()) / elapsed.Seconds(), nil
}

// overloadSweepPoint offers mult × capacity for the measurement window and
// tallies what came back. Workers pace on a fixed schedule and catch up
// without sleeping when a slow reply puts them behind, so the offered rate
// tracks the target even while the server sheds.
func overloadSweepPoint(e *Env, addr string, mult, capQPS float64) (overloadRow, error) {
	target := mult * capQPS
	clients, err := overloadClients(addr, "", overloadWorkers)
	if err != nil {
		return overloadRow{}, err
	}
	defer closeClients(clients)

	interval := time.Duration(float64(overloadWorkers) / target * float64(time.Second))
	var c overloadCounts
	var firstErr atomic.Value
	start := time.Now()
	end := start.Add(overloadMeasure)
	var wg sync.WaitGroup
	for w := 0; w < overloadWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src, err := workload.NewScanFlood(e.Grid, 2, e.Cfg.Seed+int64(9000+w))
			if err != nil {
				firstErr.CompareAndSwap(nil, err)
				return
			}
			cl := clients[w/overloadWorkersPerConn]
			// Stagger the first issue across the interval so the sweep
			// offers a stream, not one synchronized stampede per tick.
			next := start.Add(time.Duration(float64(w) / float64(overloadWorkers) * float64(interval)))
			for {
				// Scheduling stops at the window edge, not after one more
				// sleep past it — otherwise the stragglers' idle tails
				// inflate the elapsed time and deflate every rate.
				if next.After(end) {
					return
				}
				if d := time.Until(next); d > 0 {
					time.Sleep(d)
				}
				next = next.Add(interval)
				q := workload.FormatQuery(e.Grid, src.Next())
				if err := overloadIssue(cl, q, true, &c); err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err, ok := firstErr.Load().(error); ok && err != nil {
		return overloadRow{}, err
	}
	return overloadRow{
		Multiple:   mult,
		TargetQPS:  target,
		OfferedQPS: float64(c.offered.Load()) / elapsed.Seconds(),
		Offered:    c.offered.Load(),
		Admitted:   c.ok.Load(),
		GoodputQPS: float64(c.ok.Load()) / elapsed.Seconds(),
		Sheds:      c.sheds.Load(),
		P50Ms:      float64(c.quantile(0.50)) / float64(time.Millisecond),
		P99Ms:      float64(c.quantile(0.99)) / float64(time.Millisecond),
	}, nil
}

// overloadFairnessStage measures the polite tenant's hit rate alone and
// then beside an unpaced scan flood, on a quota-enforcing server.
func overloadFairnessStage(e *Env, be backend.Backend) (overloadFairness, error) {
	fail := func(err error) (overloadFairness, error) { return overloadFairness{}, err }
	// A full-size cache: the quota bounds how fast the flood may churn it,
	// and the polite hot set has to survive that churn — the interference
	// contract under test. A capacity-starved cache would conflate quota
	// fairness with pure eviction pressure.
	srv, addr, err := overloadServer(e, be, e.BaseBytes(), mtier.AdmissionConfig{
		MaxConcurrent: overloadSlots, MaxQueue: overloadQueue, MaxWait: overloadMaxWait,
		TenantQPS: overloadTenantQPS,
	})
	if err != nil {
		return fail(err)
	}
	defer srv.Close()

	const politeWorkers = 2
	politeClients, err := overloadClients(addr, "polite", politeWorkers)
	if err != nil {
		return fail(err)
	}
	defer closeClients(politeClients)

	var firstErr atomic.Value
	politePass := func(measure bool, dur time.Duration, c *overloadCounts) {
		interval := time.Duration(float64(politeWorkers) / overloadPoliteRate * float64(time.Second))
		end := time.Now().Add(dur)
		var wg sync.WaitGroup
		for w := 0; w < politeWorkers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// A fixed seed per worker replays the same Zipf hot set in
				// both passes, so the two hit rates compare like for like.
				src, err := workload.NewZipf(e.Grid, 48, 1.4, e.Cfg.Seed+int64(100+w))
				if err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				cl := politeClients[w/overloadWorkersPerConn]
				for time.Now().Before(end) {
					time.Sleep(interval)
					q := workload.FormatQuery(e.Grid, src.Next())
					if err := overloadIssue(cl, q, measure, c); err != nil {
						firstErr.CompareAndSwap(nil, err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}

	// Pass A: the polite tenant alone — warm its hot set, then measure.
	var alone overloadCounts
	politePass(false, overloadFairMeasure, nil)
	politePass(true, overloadFairMeasure, &alone)
	if err, ok := firstErr.Load().(error); ok && err != nil {
		return fail(err)
	}
	if alone.ok.Load() == 0 {
		return fail(fmt.Errorf("bench: overload: polite tenant alone completed nothing"))
	}

	// Pass B: the same stream beside an unpaced scan flood. The flood's
	// admitted rate is quota-capped; everything above it is shed with
	// reason "quota" before touching a slot or the cache.
	const floodWorkers = 8
	floodClients, err := overloadClients(addr, "flood", floodWorkers)
	if err != nil {
		return fail(err)
	}
	defer closeClients(floodClients)

	var together, flood overloadCounts
	stop := make(chan struct{})
	var fwg sync.WaitGroup
	for w := 0; w < floodWorkers; w++ {
		fwg.Add(1)
		go func(w int) {
			defer fwg.Done()
			src, err := workload.NewScanFlood(e.Grid, 2, e.Cfg.Seed+int64(200+w))
			if err != nil {
				firstErr.CompareAndSwap(nil, err)
				return
			}
			cl := floodClients[w/overloadWorkersPerConn]
			for {
				select {
				case <-stop:
					return
				default:
				}
				// A breath per iteration: the flood stays far over quota
				// without spinning a core per worker on shed replies.
				time.Sleep(time.Millisecond)
				q := workload.FormatQuery(e.Grid, src.Next())
				if err := overloadIssue(cl, q, true, &flood); err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
			}
		}(w)
	}
	politePass(true, overloadFairMeasure, &together)
	close(stop)
	fwg.Wait()
	if err, ok := firstErr.Load().(error); ok && err != nil {
		return fail(err)
	}
	if together.ok.Load() == 0 {
		return fail(fmt.Errorf("bench: overload: polite tenant starved beside the flood"))
	}

	hitAlone := float64(alone.hits.Load()) / float64(alone.ok.Load())
	hitTogether := float64(together.hits.Load()) / float64(together.ok.Load())
	return overloadFairness{
		TenantQPS:          overloadTenantQPS,
		PoliteHitAlone:     hitAlone,
		PoliteHitWithFlood: hitTogether,
		HitDropPoints:      (hitAlone - hitTogether) * 100,
		FloodOffered:       flood.offered.Load(),
		FloodAdmitted:      flood.ok.Load(),
		FloodQuotaSheds:    flood.quota.Load(),
	}, nil
}
