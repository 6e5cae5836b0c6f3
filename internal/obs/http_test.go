package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestHandlerEndpoints(t *testing.T) {
	reg := NewRegistry()
	em := NewEngineMetrics(reg)
	em.Queries.Add(5)
	em.Lookup.Observe(250 * time.Microsecond)
	ring := NewTraceRing(4)
	for i := 0; i < 6; i++ {
		ring.Add(QueryTrace{Query: "SUM(UnitSales) BY Time:Year", Outcome: "ok"})
	}
	var healthy atomic.Bool
	healthy.Store(true)
	h := NewStatusHandler(reg, ring, func() (bool, string) { return healthy.Load(), "" })
	srv := httptest.NewServer(h)
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics"); code != 200 ||
		!strings.Contains(body, "aggcache_engine_queries_total 5") ||
		!strings.Contains(body, "aggcache_engine_lookup_seconds_count 1") {
		t.Fatalf("/metrics: code %d body:\n%s", code, body)
	}
	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz healthy: %d %q", code, body)
	}
	healthy.Store(false)
	if code, _ := get("/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz after close: code %d, want 503", code)
	}

	code, body := get("/traces")
	if code != 200 {
		t.Fatalf("/traces: code %d", code)
	}
	var tr struct {
		Total  uint64       `json:"total"`
		Traces []QueryTrace `json:"traces"`
	}
	if err := json.Unmarshal([]byte(body), &tr); err != nil {
		t.Fatalf("/traces JSON: %v\n%s", err, body)
	}
	if tr.Total != 6 || len(tr.Traces) != 4 {
		t.Fatalf("/traces total=%d len=%d, want 6/4", tr.Total, len(tr.Traces))
	}
	if _, body := get("/traces?n=2"); !strings.Contains(body, `"id": 6`) || strings.Contains(body, `"id": 4`) {
		t.Fatalf("/traces?n=2 did not trim to the most recent: %s", body)
	}
	if code, _ := get("/traces?n=bogus"); code != http.StatusBadRequest {
		t.Fatalf("/traces?n=bogus: code %d", code)
	}
	if code, body := get("/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/: code %d", code)
	}
}

// TestHandlerNilParts: the handler must serve with no registry, ring or
// health callback wired.
func TestHandlerNilParts(t *testing.T) {
	srv := httptest.NewServer(NewStatusHandler(nil, nil, nil))
	defer srv.Close()
	for _, path := range []string{"/metrics", "/healthz", "/traces"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: code %d", path, resp.StatusCode)
		}
	}
}

func TestServeAndClose(t *testing.T) {
	o, err := Serve("127.0.0.1:0", NewStatusHandler(nil, nil, nil))
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	resp, err := http.Get("http://" + o.Addr() + "/healthz")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if err := o.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := http.Get("http://" + o.Addr() + "/healthz"); err == nil {
		t.Fatalf("ops listener still serving after Close")
	}
	var nilSrv *OpsServer
	if err := nilSrv.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
}
