package bench

import (
	"context"
	"errors"
	"fmt"
	"time"

	"aggcache/internal/backend"
	"aggcache/internal/core"
	"aggcache/internal/workload"
)

// Chaos measures the fault-tolerant backend path's availability: the same
// query stream replayed through three phases — a flaky backend (injected
// transient errors and disconnects), a hard outage (cache-only degraded
// mode behind an open circuit breaker), and recovery — reporting the
// fraction of queries answered, the degraded-mode hit rate, and the
// fail-fast latency while the breaker is open.
func Chaos(e *Env) (*Report, error) {
	plan := backend.FaultPlan{
		Seed:           e.Cfg.Seed + 4000,
		ErrorRate:      0.10,
		DisconnectRate: 0.05,
	}
	bcfg := backend.BreakerConfig{FailureThreshold: 5, Cooldown: 50 * time.Millisecond}
	faulty := backend.NewFaulty(e.Backend, plan)
	breaker := backend.NewBreaker(faulty, bcfg)

	// Half the base table: preloading fills the cache with a high aggregate
	// whose descendants stay cache-computable, while detail queries must
	// reach the (faulty) backend — so the outage phase splits into degraded
	// answers and fast-fails instead of being trivially all-hit.
	sys, err := e.NewSystem(core.Config{
		Strategy: "VCMC",
		Policy:   "two-level",
		HotBytes: e.BaseBytes() / 2,
		Backend:  breaker,
	}, true)
	if err != nil {
		return nil, err
	}

	gen, err := workload.NewGenerator(e.Grid, workload.DefaultMix, e.Cfg.MaxQueryWidth, e.Cfg.Seed+4000)
	if err != nil {
		return nil, err
	}
	queries, _ := gen.Stream(e.Cfg.Queries * 3)
	third := len(queries) / 3

	type phaseStats struct {
		ok, failed, degraded, unavailable int
		maxFailFast                       time.Duration
	}
	runPhase := func(qs []core.Query) phaseStats {
		var ps phaseStats
		for _, q := range qs {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			start := time.Now()
			res, err := sys.Engine.Execute(ctx, q)
			elapsed := time.Since(start)
			cancel()
			if err != nil {
				ps.failed++
				if errors.Is(err, core.ErrBackendUnavailable) {
					ps.unavailable++
					if elapsed > ps.maxFailFast {
						ps.maxFailFast = elapsed
					}
				}
				continue
			}
			ps.ok++
			if res.Degraded {
				ps.degraded++
			}
		}
		return ps
	}

	flaky := runPhase(queries[:third])

	faulty.SetDown(true)
	outage := runPhase(queries[third : 2*third])

	faulty.SetDown(false)
	time.Sleep(bcfg.Cooldown + 20*time.Millisecond)
	recovered := runPhase(queries[2*third:])

	avail := func(ps phaseStats) string {
		n := ps.ok + ps.failed
		if n == 0 {
			return "n/a"
		}
		return fmt.Sprintf("%.0f%%", 100*float64(ps.ok)/float64(n))
	}

	r := &Report{ID: "chaos", Title: "Availability under backend faults: flaky, hard outage, recovery",
		Header: []string{"phase", "answered", "degraded answers", "fail-fast errors", "max fail-fast latency"}}
	r.AddRow("flaky backend", avail(flaky), fmt.Sprintf("%d", flaky.degraded),
		fmt.Sprintf("%d", flaky.unavailable), msString(flaky.maxFailFast)+"ms")
	r.AddRow("hard outage", avail(outage), fmt.Sprintf("%d", outage.degraded),
		fmt.Sprintf("%d", outage.unavailable), msString(outage.maxFailFast)+"ms")
	r.AddRow("recovered", avail(recovered), fmt.Sprintf("%d", recovered.degraded),
		fmt.Sprintf("%d", recovered.unavailable), msString(recovered.maxFailFast)+"ms")

	counts := faulty.Counts()
	r.Addf("injected faults: %d errors, %d disconnects, %d outage rejections",
		counts.Errors, counts.Disconnects, counts.Outages)
	r.Addf("breaker after recovery: %v; engine degraded: %v", breaker.State(), sys.Engine.Degraded())
	st := sys.Engine.Stats()
	r.Addf("engine: %d degraded hits, %d unavailable fast-fails across the run", st.DegradedHits, st.Unavailable)
	if recovered.ok == 0 {
		return nil, fmt.Errorf("bench: chaos: no query succeeded after recovery")
	}
	return r, nil
}
