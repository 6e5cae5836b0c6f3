package mtier

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"aggcache/internal/obs"
	"aggcache/internal/wire"
)

// AdmissionConfig tunes the server-wide admission controller: a bounded
// queue of execution slots in front of the engine, deadline-aware shedding,
// and a per-tenant query-rate quota. The zero value disables admission entirely
// (every query executes immediately, the pre-admission behavior).
type AdmissionConfig struct {
	// MaxConcurrent is the number of queries executing at once, server-wide
	// (not per connection — a flash crowd of connections shares one pool).
	// <= 0 disables admission control.
	MaxConcurrent int
	// MaxQueue bounds how many queries may wait for a slot; arrivals beyond
	// it are shed immediately with a Busy reply instead of growing an
	// unbounded backlog. <= 0 means 4×MaxConcurrent.
	MaxQueue int
	// MaxWait bounds how long one query may wait in the queue before being
	// shed; it is also the ceiling on retry-after hints. <= 0 means 250ms.
	MaxWait time.Duration
	// TenantQPS caps admitted queries per second per tenant (token bucket,
	// burst max(1, ceil(2×TenantQPS))). 0 means unlimited.
	TenantQPS float64
}

func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxConcurrent
	}
	if c.MaxWait <= 0 {
		c.MaxWait = 250 * time.Millisecond
	}
	return c
}

// admission is the server-wide admission controller. Admit gates every
// client query (peer cache frames bypass it — they are cheap memory
// operations, and shedding them would only push load back to the backend);
// the decision to shed is made before any engine work happens, so a Busy
// reply costs microseconds while an admitted query may cost milliseconds —
// the asymmetry that keeps goodput flat when offered load exceeds capacity.
type admission struct {
	cfg AdmissionConfig
	met obs.AdmissionMetrics

	slots  chan struct{} // execution slots; buffered to MaxConcurrent
	queued atomic.Int64  // queries waiting for a slot right now

	// svc is the live service-time histogram (admitted execute latency,
	// queue wait excluded). Its p95 feeds the deadline-aware shed: a query
	// whose remaining budget is below the p95 would very likely expire
	// mid-execution, so refusing it up front converts a wasted execution
	// into a cheap Busy reply. Standalone (not registry-owned): the zero
	// value records and quantiles without registration.
	svc obs.Histogram

	sheds shedWindow // sheds/sec over a sliding window, for /healthz

	mu      sync.Mutex
	tenants map[string]*tenantState
}

func newAdmission(cfg AdmissionConfig) *admission {
	cfg = cfg.withDefaults()
	return &admission{
		cfg:     cfg,
		slots:   make(chan struct{}, cfg.MaxConcurrent),
		tenants: make(map[string]*tenantState),
	}
}

// Admit gates one query. On admission it returns a release closure the
// caller must invoke exactly once when the response is written — release
// frees the execution slot and feeds the service-time histogram. On shed it
// returns the BusyError to reply with (reason + retry-after hint) and a nil
// release.
func (a *admission) Admit(tenant string, budget time.Duration) (release func(), busy *wire.BusyError) {
	start := time.Now()
	if ts := a.tenant(tenant); ts != nil {
		if be := ts.admit(start); be != nil {
			a.shed(a.met.ShedQuota, start)
			return nil, be
		}
	}
	est := a.svc.Quantile(0.95)
	if budget > 0 && est > 0 && budget < est {
		// The deadline is unmeetable before any queueing: executing would
		// almost certainly blow the budget, so the work would be wasted.
		a.shed(a.met.ShedDeadline, start)
		return nil, &wire.BusyError{RetryAfter: a.cfg.MaxWait, Reason: "deadline"}
	}
	if a.queued.Add(1) > int64(a.cfg.MaxQueue) {
		a.queued.Add(-1)
		a.shed(a.met.ShedQueueFull, start)
		return nil, &wire.BusyError{RetryAfter: a.drainHint(est), Reason: "queue_full"}
	}
	a.met.QueueDepth.Add(1)
	// Wait for a slot, bounded by MaxWait — or by the query's own remaining
	// budget when that is tighter, so a deadline can only ever expire in the
	// queue, never silently mid-execution after queueing ate the budget.
	wait, timedOutReason := a.cfg.MaxWait, "queue_full"
	if budget > 0 && budget < wait {
		wait, timedOutReason = budget, "expired"
	}
	t := time.NewTimer(wait)
	select {
	case a.slots <- struct{}{}:
		t.Stop()
	case <-t.C:
		a.queued.Add(-1)
		a.met.QueueDepth.Add(-1)
		if timedOutReason == "expired" {
			a.shed(a.met.ShedExpired, start)
		} else {
			a.shed(a.met.ShedQueueFull, start)
		}
		return nil, &wire.BusyError{RetryAfter: a.drainHint(est), Reason: timedOutReason}
	}
	a.queued.Add(-1)
	a.met.QueueDepth.Add(-1)
	waited := time.Since(start)
	if budget > 0 && waited >= budget {
		// Belt-and-braces: the slot arrived in the same instant the deadline
		// passed. Shedding here is what makes "zero queries execute after
		// their deadline" structural rather than probabilistic.
		<-a.slots
		a.shed(a.met.ShedExpired, start)
		return nil, &wire.BusyError{RetryAfter: a.drainHint(est), Reason: "expired"}
	}
	a.met.QueueWait.Observe(waited)
	a.met.Admitted.Inc()
	admitted := time.Now()
	return func() {
		<-a.slots
		a.svc.Observe(time.Since(admitted))
	}, nil
}

// shed counts one shed on its per-reason counter and the healthz rate
// window.
func (a *admission) shed(c *obs.Counter, now time.Time) {
	c.Inc()
	a.sheds.note(now)
}

// drainHint estimates how long until the queue has drained enough for a
// retry to be admitted: the current backlog served MaxConcurrent-wide at
// the p95 service time, clamped to [1ms, MaxWait] so clients neither
// hammer instantly nor stall on a wild estimate.
func (a *admission) drainHint(est time.Duration) time.Duration {
	if est <= 0 {
		est = 5 * time.Millisecond
	}
	h := time.Duration(float64(est) * float64(a.queued.Load()+1) / float64(a.cfg.MaxConcurrent))
	if h < time.Millisecond {
		h = time.Millisecond
	}
	if h > a.cfg.MaxWait {
		h = a.cfg.MaxWait
	}
	return h
}

// Depth returns the number of queries waiting for a slot right now.
func (a *admission) Depth() int {
	if a == nil {
		return 0
	}
	return int(a.queued.Load())
}

// ShedsPerSec returns the shed rate over the sliding window.
func (a *admission) ShedsPerSec() float64 {
	if a == nil {
		return 0
	}
	return a.sheds.rate(time.Now())
}

// tenant returns the quota state for a tenant id, creating it on first
// sight. Nil when the id is empty or no tenant quota is configured —
// quota-free tenants skip the lock entirely.
func (a *admission) tenant(id string) *tenantState {
	if id == "" || a.cfg.TenantQPS <= 0 {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	ts := a.tenants[id]
	if ts == nil {
		burst := math.Max(1, math.Ceil(2*a.cfg.TenantQPS))
		ts = &tenantState{qps: bucket{rate: a.cfg.TenantQPS, burst: burst, tokens: burst, last: time.Now()}}
		a.tenants[id] = ts
	}
	return ts
}

// tenantState is one tenant's query-rate bucket.
type tenantState struct {
	mu  sync.Mutex
	qps bucket // admitted queries per second
}

// admit takes one token from the tenant's qps bucket, returning the quota
// shed to reply with when it is empty, or nil.
func (ts *tenantState) admit(now time.Time) *wire.BusyError {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if !ts.qps.take(now, 1) {
		return &wire.BusyError{RetryAfter: ts.qps.delay(1), Reason: "quota"}
	}
	return nil
}

// bucket is a token bucket refilled by wall clock. Callers hold the owning
// tenantState's lock.
type bucket struct {
	rate   float64 // tokens per second
	burst  float64 // capacity
	tokens float64
	last   time.Time
}

func (b *bucket) refill(now time.Time) {
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens = math.Min(b.burst, b.tokens+dt*b.rate)
		b.last = now
	}
}

func (b *bucket) take(now time.Time, n float64) bool {
	b.refill(now)
	if b.tokens >= n {
		b.tokens -= n
		return true
	}
	return false
}

// delay returns how long until the bucket holds n tokens — the honest
// retry-after hint for a quota shed.
func (b *bucket) delay(n float64) time.Duration {
	need := n - b.tokens
	if need <= 0 || b.rate <= 0 {
		return time.Millisecond
	}
	return time.Duration(need / b.rate * float64(time.Second))
}

// shedWindowSecs is the sliding window the /healthz sheds/sec rate averages
// over.
const shedWindowSecs = 10

// shedWindow is a ring of per-second shed counts: each slot is stamped with
// the unix second it counts, so stale slots age out by being overwritten or
// skipped rather than needing a ticker goroutine.
type shedWindow struct {
	mu     sync.Mutex
	secs   [shedWindowSecs]int64
	counts [shedWindowSecs]int64
}

func (w *shedWindow) note(now time.Time) {
	s := now.Unix()
	i := int(s % shedWindowSecs)
	w.mu.Lock()
	if w.secs[i] != s {
		w.secs[i] = s
		w.counts[i] = 0
	}
	w.counts[i]++
	w.mu.Unlock()
}

func (w *shedWindow) rate(now time.Time) float64 {
	s := now.Unix()
	var total int64
	w.mu.Lock()
	for i := range w.secs {
		if s-w.secs[i] < shedWindowSecs {
			total += w.counts[i]
		}
	}
	w.mu.Unlock()
	return float64(total) / shedWindowSecs
}
