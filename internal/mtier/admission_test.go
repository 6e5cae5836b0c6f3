package mtier

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"aggcache/internal/apb"
	"aggcache/internal/backend"
	"aggcache/internal/cache"
	"aggcache/internal/core"
	"aggcache/internal/sizer"
	"aggcache/internal/strategy"
	"aggcache/internal/wire"
)

// --- admission controller unit tests ---

func TestAdmissionAdmitReleaseCycle(t *testing.T) {
	a := newAdmission(AdmissionConfig{MaxConcurrent: 2, MaxWait: 50 * time.Millisecond})
	r1, busy := a.Admit("", 0)
	if busy != nil {
		t.Fatalf("first admit shed: %v", busy)
	}
	r2, busy := a.Admit("", 0)
	if busy != nil {
		t.Fatalf("second admit shed: %v", busy)
	}
	r1(100)
	r3, busy := a.Admit("", 0)
	if busy != nil {
		t.Fatalf("admit after release shed: %v", busy)
	}
	r2(100)
	r3(100)
	if a.Depth() != 0 {
		t.Fatalf("queue depth %d after all released", a.Depth())
	}
}

func TestAdmissionQueueFullSheds(t *testing.T) {
	a := newAdmission(AdmissionConfig{MaxConcurrent: 1, MaxQueue: 1, MaxWait: 200 * time.Millisecond})
	release, busy := a.Admit("", 0)
	if busy != nil {
		t.Fatalf("first admit shed: %v", busy)
	}
	// Occupy the single queue spot with a waiter.
	queued := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		close(queued)
		r, busy := a.Admit("", 0)
		if busy != nil {
			t.Errorf("queued admit shed: %v", busy)
			return
		}
		r(0)
	}()
	<-queued
	// Wait until the waiter is actually counted in the queue.
	for i := 0; a.Depth() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	_, busy = a.Admit("", 0)
	if busy == nil {
		t.Fatalf("admit past a full queue was not shed")
	}
	if busy.Reason != "queue_full" {
		t.Fatalf("shed reason %q, want queue_full", busy.Reason)
	}
	if busy.RetryAfter <= 0 {
		t.Fatalf("queue_full shed carries no retry-after hint")
	}
	release(0) // hands the slot to the waiter
	wg.Wait()
}

func TestAdmissionDeadlineUnmeetableSheds(t *testing.T) {
	a := newAdmission(AdmissionConfig{MaxConcurrent: 4})
	// Teach the service-time histogram that queries take ~40ms.
	for i := 0; i < 100; i++ {
		a.svc.Observe(40 * time.Millisecond)
	}
	if _, busy := a.Admit("", time.Second); busy != nil {
		t.Fatalf("roomy budget shed: %v", busy)
	}
	_, busy := a.Admit("", 2*time.Millisecond)
	if busy == nil {
		t.Fatalf("unmeetable budget was admitted")
	}
	if busy.Reason != "deadline" {
		t.Fatalf("shed reason %q, want deadline", busy.Reason)
	}
}

func TestAdmissionExpiresWhileQueued(t *testing.T) {
	a := newAdmission(AdmissionConfig{MaxConcurrent: 1, MaxQueue: 4, MaxWait: time.Second})
	release, busy := a.Admit("", 0)
	if busy != nil {
		t.Fatalf("first admit shed: %v", busy)
	}
	defer release(0)
	start := time.Now()
	_, busy = a.Admit("", 20*time.Millisecond)
	if busy == nil {
		t.Fatalf("deadline survived an occupied server")
	}
	if busy.Reason != "expired" {
		t.Fatalf("shed reason %q, want expired", busy.Reason)
	}
	if waited := time.Since(start); waited < 15*time.Millisecond {
		t.Fatalf("shed after %v, before the budget could expire", waited)
	}
}

func TestTenantQPSQuota(t *testing.T) {
	a := newAdmission(AdmissionConfig{MaxConcurrent: 8, TenantQPS: 0.001, TenantBurst: 2})
	for i := 0; i < 2; i++ {
		r, busy := a.Admit("noisy", 0)
		if busy != nil {
			t.Fatalf("admit %d within burst shed: %v", i, busy)
		}
		r(0)
	}
	_, busy := a.Admit("noisy", 0)
	if busy == nil {
		t.Fatalf("admit past the qps burst was not shed")
	}
	if busy.Reason != "quota" || busy.RetryAfter <= 0 {
		t.Fatalf("shed = %+v, want quota with a positive hint", busy)
	}
	// Another tenant — and the anonymous tenant — are unaffected.
	if r, busy := a.Admit("polite", 0); busy != nil {
		t.Fatalf("other tenant shed: %v", busy)
	} else {
		r(0)
	}
	if r, busy := a.Admit("", 0); busy != nil {
		t.Fatalf("anonymous query shed: %v", busy)
	} else {
		r(0)
	}
}

func TestTenantByteDebt(t *testing.T) {
	now := time.Now()
	ts := &tenantState{bytes: bucket{rate: 1000, burst: 1000, tokens: 1000, last: now}}
	if be := ts.admit(now); be != nil {
		t.Fatalf("fresh bucket shed: %v", be)
	}
	// Charge 3KB against a 1KB balance: 2KB of debt.
	ts.charge(now, 3000)
	be := ts.admit(now)
	if be == nil {
		t.Fatalf("tenant in byte debt was admitted")
	}
	if be.Reason != "quota" {
		t.Fatalf("shed reason %q, want quota", be.Reason)
	}
	// At 1000 B/s the 2KB debt needs ~2s to refill.
	if be.RetryAfter < time.Second || be.RetryAfter > 3*time.Second {
		t.Fatalf("debt retry-after %v, want ≈2s", be.RetryAfter)
	}
	// After the refill interval the tenant is served again.
	if be := ts.admit(now.Add(2100 * time.Millisecond)); be != nil {
		t.Fatalf("tenant still shed after debt refilled: %v", be)
	}
}

func TestShedWindowRate(t *testing.T) {
	var w shedWindow
	now := time.Unix(1000, 0)
	for i := 0; i < 30; i++ {
		w.note(now)
	}
	if r := w.rate(now); r != 3 {
		t.Fatalf("rate = %v, want 3 (30 sheds over a %ds window)", r, shedWindowSecs)
	}
	// The burst ages out of the window entirely.
	if r := w.rate(now.Add((shedWindowSecs + 1) * time.Second)); r != 0 {
		t.Fatalf("stale rate = %v, want 0", r)
	}
}

// --- end-to-end through server and client ---

// newSlowServer is newTestServer with a backend that really sleeps, so an
// execution slot stays held long enough for load to pile up behind it.
func newSlowServer(t *testing.T, connect time.Duration) *Server {
	t.Helper()
	cfg := apb.New(apb.ScaleTiny)
	g, tab, err := cfg.Build(44)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	be, err := backend.NewEngine(g, tab, backend.LatencyModel{Connect: connect, Sleep: true})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	sz := sizer.NewEstimate(g, int64(tab.Len()))
	c, _ := cache.New(1<<20, cache.NewTwoLevel())
	eng, err := core.New(g, c, strategy.NewVCMC(g, sz), be, sz)
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	return NewServer(eng)
}

func TestServerShedsBusyAndClientClassifiesTransient(t *testing.T) {
	srv := newSlowServer(t, 30*time.Millisecond)
	srv.SetAdmission(AdmissionConfig{MaxConcurrent: 1, MaxQueue: 1, MaxWait: 5 * time.Millisecond})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	const n = 16
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := cl.Query("SUM(UnitSales) BY Time:Year")
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	var ok, busy int
	for err := range errs {
		if err == nil {
			ok++
			continue
		}
		be, isBusy := wire.AsBusy(err)
		if !isBusy {
			t.Fatalf("non-busy error under overload: %v", err)
		}
		if !backend.IsTransient(err) {
			t.Fatalf("busy reply not classified transient: %v", err)
		}
		if be.Reason != "queue_full" && be.Reason != "expired" {
			t.Fatalf("unexpected shed reason %q", be.Reason)
		}
		busy++
	}
	if ok == 0 {
		t.Fatalf("no query got through at all")
	}
	if busy == 0 {
		t.Fatalf("16 concurrent queries against 1 slot + 1 queue spot produced no sheds")
	}
}

func TestServerQuotaShedsPerTenant(t *testing.T) {
	srv, _, _ := newTestServer(t)
	srv.SetAdmission(AdmissionConfig{MaxConcurrent: 8, TenantQPS: 0.001, TenantBurst: 2})
	qaddr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()

	noisy, err := Dial(qaddr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer noisy.Close()
	noisy.SetTenant("noisy")
	polite, err := Dial(qaddr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer polite.Close()
	polite.SetTenant("polite")

	var quotaSheds int
	for i := 0; i < 10; i++ {
		if _, err := noisy.Query("SUM(UnitSales) BY Time:Year"); err != nil {
			be, isBusy := wire.AsBusy(err)
			if !isBusy || be.Reason != "quota" {
				t.Fatalf("noisy query %d: %v", i, err)
			}
			quotaSheds++
		}
	}
	if quotaSheds < 8 {
		t.Fatalf("noisy tenant shed %d of 10, want ≥ 8 past its burst of 2", quotaSheds)
	}
	// The capped tenant's hammering must not affect its neighbor.
	if _, err := polite.Query("SUM(UnitSales) BY Time:Year"); err != nil {
		t.Fatalf("polite tenant shed alongside noisy: %v", err)
	}
}

func TestClientDeadlinePropagatesAsBudget(t *testing.T) {
	srv, _, _ := newTestServer(t)
	srv.SetAdmission(AdmissionConfig{MaxConcurrent: 4})
	// Teach the admission controller that queries are slow; a client whose
	// deadline cannot fit the p95 is then shed up front as "deadline".
	for i := 0; i < 100; i++ {
		srv.adm.svc.Observe(200 * time.Millisecond)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err = cl.QueryContext(ctx, "SUM(UnitSales) BY Time:Year")
	be, isBusy := wire.AsBusy(err)
	if !isBusy || be.Reason != "deadline" {
		t.Fatalf("tight deadline → %v, want a deadline shed", err)
	}
	// Without a deadline the same query sails through.
	if _, err := cl.Query("SUM(UnitSales) BY Time:Year"); err != nil {
		t.Fatalf("unbounded query: %v", err)
	}
}

func TestQueryPayloadCompat(t *testing.T) {
	// A v1 payload (bare query string, no tenant/budget tail) must decode.
	old := wire.AppendString(nil, "SUM(UnitSales) BY Time:Year")
	q, tenant, budget, err := decodeQuery(old)
	if err != nil {
		t.Fatalf("decode v1 payload: %v", err)
	}
	if q != "SUM(UnitSales) BY Time:Year" || tenant != "" || budget != 0 {
		t.Fatalf("v1 payload decoded to %q/%q/%v", q, tenant, budget)
	}
	// And the extended form round-trips.
	ext := encodeQuery(nil, "SUM(UnitSales) BY Time:Year", "acme", 1500*time.Millisecond)
	q, tenant, budget, err = decodeQuery(ext)
	if err != nil {
		t.Fatalf("decode extended payload: %v", err)
	}
	if q != "SUM(UnitSales) BY Time:Year" || tenant != "acme" || budget != 1500*time.Millisecond {
		t.Fatalf("extended payload decoded to %q/%q/%v", q, tenant, budget)
	}
}

// TestSubMillisecondBudgetStaysADeadline: the budget travels in whole
// milliseconds and 0 means "no deadline", so a 500µs budget must round up
// to 1ms on the wire rather than truncate to unbounded, and admission must
// then shed it instead of running it without a deadline.
func TestSubMillisecondBudgetStaysADeadline(t *testing.T) {
	_, _, budget, err := decodeQuery(encodeQuery(nil, "SUM(UnitSales) BY Time:Year", "", 500*time.Microsecond))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if budget != time.Millisecond {
		t.Fatalf("500µs budget decoded to %v, want 1ms", budget)
	}

	// Queries take ~40ms, so a 1ms budget is unmeetable and shed up front.
	a := newAdmission(AdmissionConfig{MaxConcurrent: 4})
	for i := 0; i < 100; i++ {
		a.svc.Observe(40 * time.Millisecond)
	}
	if _, busy := a.Admit("", budget); busy == nil || busy.Reason != "deadline" {
		t.Fatalf("decoded 500µs budget → %v, want a deadline shed", busy)
	}
	// With no service history the budget instead bounds the queue wait
	// behind an occupied slot and expires there.
	a = newAdmission(AdmissionConfig{MaxConcurrent: 1, MaxQueue: 4, MaxWait: time.Second})
	release, busy := a.Admit("", 0)
	if busy != nil {
		t.Fatalf("first admit shed: %v", busy)
	}
	defer release(0)
	if _, busy := a.Admit("", budget); busy == nil || busy.Reason != "expired" {
		t.Fatalf("decoded 500µs budget behind a busy slot → %v, want expired", busy)
	}
}

func TestHealthzReportsShedding(t *testing.T) {
	srv, _, _ := newTestServer(t)
	srv.SetAdmission(AdmissionConfig{MaxConcurrent: 2})
	h := srv.OpsHandler()

	get := func() string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("/healthz = %d", rec.Code)
		}
		return rec.Body.String()
	}
	if body := get(); strings.Contains(body, "shedding") {
		t.Fatalf("healthy idle server reports shedding: %q", body)
	}
	// Force sheds and watch the detail line appear.
	srv.adm.shed(srv.adm.met.ShedQueueFull, time.Now())
	if body := get(); !strings.Contains(body, "shedding") || !strings.Contains(body, "queue depth") {
		t.Fatalf("shedding server hides its state: %q", body)
	}
}
