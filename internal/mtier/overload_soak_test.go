package mtier

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aggcache/internal/backend"
	"aggcache/internal/obs"
	"aggcache/internal/wire"
	"aggcache/internal/workload"
)

// TestOverloadSoak drives a deliberately under-provisioned server (few
// execution slots, a really-sleeping backend) with hostile traffic — a
// Zipf hot-key stream, a flash crowd under tight deadlines, and a
// quota-capped scan flood — all at once, under the race detector via
// `make soak-overload`. The overload contract:
//
//   - the server never collapses: every failure is an in-band Busy shed
//     (classified transient by the backend taxonomy) or a deadline expiry,
//     never a torn connection or an unclassified error;
//   - no query executes past its deadline: a budgeted query either sheds,
//     times out, or completes with its engine time inside the budget;
//   - the quota-capped flood tenant is shed with reason "quota" while the
//     polite tenants keep being served;
//   - once the storm passes, the very same server serves again.
func TestOverloadSoak(t *testing.T) {
	srv := newSlowServer(t, 10*time.Millisecond)
	reg := obs.NewRegistry()
	srv.SetObs(reg, obs.NewTraceRing(64))
	// Two slots against twelve unpaced workers: the queue must fill (450
	// burst tokens, 2×75 per tenant, arrive at t=0 against 6 spots of
	// capacity), deadlines must expire in it, and the quota must bind each
	// tenant's sustained rate — all three shed paths exercised in one storm.
	srv.SetAdmission(AdmissionConfig{
		MaxConcurrent: 2,
		MaxQueue:      4,
		MaxWait:       15 * time.Millisecond,
		TenantQPS:     75,
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()

	g := srv.grid
	zipf, err := workload.NewZipf(g, 32, 1.4, 1)
	if err != nil {
		t.Fatalf("NewZipf: %v", err)
	}
	crowd, err := workload.NewFlashCrowd(g, 40, 2)
	if err != nil {
		t.Fatalf("NewFlashCrowd: %v", err)
	}
	flood, err := workload.NewScanFlood(g, 2, 3)
	if err != nil {
		t.Fatalf("NewScanFlood: %v", err)
	}

	type tenantRun struct {
		name   string
		src    workload.Source
		budget time.Duration // 0 = no deadline
		// counters
		ok, busy, quota, expired, timeout atomic.Int64
	}
	// The crowd's budget is meetable (5× the service time) but real: under
	// contention it can still expire in the queue, and a success must show
	// engine time inside it. The deterministic "deadline"/"expired" paths
	// are pinned by the unit tests above; the soak checks the storm mix.
	runs := []*tenantRun{
		{name: "zipf", src: zipf},
		{name: "crowd", src: crowd, budget: 50 * time.Millisecond},
		{name: "flood", src: flood},
	}

	const (
		workersPerTenant = 4
		queriesPerWorker = 80
	)
	var wg sync.WaitGroup
	for _, run := range runs {
		run := run
		cl, err := Dial(addr)
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		defer cl.Close()
		cl.SetTenant(run.name)
		var srcMu sync.Mutex
		for w := 0; w < workersPerTenant; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < queriesPerWorker; i++ {
					// Light pacing stretches the storm past the initial
					// burst-token window, so quota refills race real queue
					// pressure instead of one t=0 stampede deciding it all.
					time.Sleep(time.Millisecond)
					srcMu.Lock()
					q := run.src.Next()
					srcMu.Unlock()
					src := workload.FormatQuery(g, q)
					ctx := context.Background()
					cancel := context.CancelFunc(func() {})
					if run.budget > 0 {
						ctx, cancel = context.WithTimeout(ctx, run.budget)
					}
					resp, err := cl.QueryContext(ctx, src)
					cancel()
					switch {
					case err == nil:
						run.ok.Add(1)
						if run.budget > 0 {
							// "Zero queries execute past their deadline":
							// the engine ran under the remaining budget, so
							// its own time must fit the budget (plus the
							// slack of one phase that cannot observe the
							// context between checks).
							if resp.Total() > run.budget+30*time.Millisecond {
								t.Errorf("%s: success with engine time %v over budget %v", run.name, resp.Total(), run.budget)
							}
						}
					case errors.Is(err, context.DeadlineExceeded):
						run.timeout.Add(1)
					default:
						be, isBusy := wire.AsBusy(err)
						if !isBusy {
							t.Errorf("%s: unclassified overload error: %v", run.name, err)
							return
						}
						if !backend.IsTransient(err) {
							t.Errorf("%s: busy shed not transient: %v", run.name, err)
							return
						}
						run.busy.Add(1)
						switch be.Reason {
						case "quota":
							run.quota.Add(1)
						case "expired":
							run.expired.Add(1)
						}
					}
				}
			}()
		}
	}
	wg.Wait()

	for _, run := range runs {
		t.Logf("%s: ok=%d busy=%d (quota=%d expired=%d) timeout=%d",
			run.name, run.ok.Load(), run.busy.Load(), run.quota.Load(), run.expired.Load(), run.timeout.Load())
	}
	var totalOK, totalBusy int64
	for _, run := range runs {
		totalOK += run.ok.Load()
		totalBusy += run.busy.Load()
	}
	if totalOK == 0 {
		t.Fatalf("overloaded server served nothing at all — shedding everything is collapse too")
	}
	if totalBusy == 0 {
		t.Fatalf("12 workers against 2 slots produced zero sheds — admission control inert")
	}
	var totalQuota int64
	for _, run := range runs {
		totalQuota += run.quota.Load()
	}
	if totalQuota == 0 {
		t.Fatalf("unpaced tenants well past %v qps saw no quota sheds", 75)
	}
	if totalBusy == totalQuota {
		t.Fatalf("every shed was a quota shed — the admission queue never filled")
	}
	// The polite tenants must keep being served through the flood. The
	// flood itself is the aggressor — ending the storm fully shed is a
	// legitimate outcome for it, so it is logged, not asserted.
	for _, run := range runs {
		if run.name != "flood" && run.ok.Load() == 0 {
			t.Errorf("tenant %s was starved outright", run.name)
		}
	}
	// The storm is over: the same server answers a plain query promptly.
	cl, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial after storm: %v", err)
	}
	defer cl.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err = cl.Query("SUM(UnitSales) BY Time:Year"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server did not recover after the storm: %v", err)
		}
		if be, ok := wire.AsBusy(err); ok {
			time.Sleep(be.RetryAfter)
			continue
		}
		t.Fatalf("post-storm query failed hard: %v", err)
	}
	if !srv.Healthy() {
		t.Fatalf("server reports unhealthy after the storm")
	}
}
