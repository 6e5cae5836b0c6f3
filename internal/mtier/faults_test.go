package mtier

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"aggcache/internal/apb"
	"aggcache/internal/backend"
	"aggcache/internal/cache"
	"aggcache/internal/core"
	"aggcache/internal/obs"
	"aggcache/internal/sizer"
	"aggcache/internal/strategy"
	"aggcache/internal/wire"
)

// newFaultyServer builds a middle tier whose backend path is
// Breaker(Faulty(engine)), for degraded-mode and timeout tests.
func newFaultyServer(t *testing.T, bcfg backend.BreakerConfig) (*Server, *backend.Faulty) {
	t.Helper()
	cfg := apb.New(apb.ScaleTiny)
	g, tab, err := cfg.Build(44)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	be, err := backend.NewEngine(g, tab, backend.LatencyModel{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	faulty := backend.NewFaulty(be, backend.FaultPlan{Seed: 1})
	brk := backend.NewBreaker(faulty, bcfg)
	sz := sizer.NewEstimate(g, int64(tab.Len()))
	c, _ := cache.New(1<<20, cache.NewTwoLevel())
	eng, err := core.New(g, c, strategy.NewVCMC(g, sz), brk, sz)
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	return NewServer(eng), faulty
}

// TestDegradedEndToEnd drives the full wire path through an outage: cached
// answers keep flowing (marked Degraded on the response), backend-requiring
// queries fail, and /healthz stays 200 while reporting degraded mode.
func TestDegradedEndToEnd(t *testing.T) {
	bcfg := backend.BreakerConfig{FailureThreshold: 2, Cooldown: time.Minute}
	srv, faulty := newFaultyServer(t, bcfg)
	srv.SetObs(obs.NewRegistry(), obs.NewTraceRing(8))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	h := srv.OpsHandler()

	cl, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	const cached = "SUM(UnitSales) BY Time:Year"
	const uncached = "SUM(UnitSales) BY Product:Code, Time:Month"
	resp, err := cl.Query(cached)
	if err != nil {
		t.Fatalf("warm query: %v", err)
	}
	if resp.Degraded {
		t.Fatalf("healthy answer marked degraded")
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK || strings.Contains(rec.Body.String(), "degraded") {
		t.Fatalf("healthy /healthz: %d %q", rec.Code, rec.Body.String())
	}

	// Outage: trip the breaker through the wire path.
	faulty.SetDown(true)
	for i := 0; i < bcfg.FailureThreshold; i++ {
		if _, err := cl.Query(uncached); err == nil {
			t.Fatalf("backend-requiring query succeeded during outage")
		}
	}

	resp, err = cl.Query(cached)
	if err != nil {
		t.Fatalf("cached query during outage: %v", err)
	}
	if !resp.Degraded {
		t.Fatalf("outage answer not marked degraded")
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "degraded") {
		t.Fatalf("degraded /healthz: %d %q", rec.Code, rec.Body.String())
	}
}

// TestQueryTimeoutOutcome: a backend that hangs past the server's query
// budget yields a timeout-classified failure, counted on its own metric
// series, while the connection survives.
func TestQueryTimeoutOutcome(t *testing.T) {
	cfg := apb.New(apb.ScaleTiny)
	g, tab, err := cfg.Build(44)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	be, err := backend.NewEngine(g, tab, backend.LatencyModel{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	faulty := backend.NewFaulty(be, backend.FaultPlan{Seed: 1, HangRate: 1, HangFor: time.Minute})
	sz := sizer.NewEstimate(g, int64(tab.Len()))
	c, _ := cache.New(1<<20, cache.NewTwoLevel())
	eng, err := core.New(g, c, strategy.NewVCMC(g, sz), faulty, sz)
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	srv := NewServer(eng)
	srv.SetTimeouts(wire.Timeouts{Request: 30 * time.Millisecond})
	ring := obs.NewTraceRing(8)
	srv.SetObs(obs.NewRegistry(), ring)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { srv.Close() })

	cl, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	start := time.Now()
	_, err = cl.Query("SUM(UnitSales) BY Time:Year")
	if err == nil {
		t.Fatalf("hung backend answered")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("query timeout took %v", elapsed)
	}
	traces := ring.Snapshot()
	if len(traces) == 0 || traces[len(traces)-1].Outcome != "timeout" {
		t.Fatalf("trace outcome not 'timeout': %+v", traces)
	}

	// The connection survives; a second (still-hanging) query also times out
	// in-band rather than tearing the stream down.
	if _, err := cl.Query("SUM(UnitSales) BY Time:Year"); err == nil {
		t.Fatalf("second hung query answered")
	}
}
