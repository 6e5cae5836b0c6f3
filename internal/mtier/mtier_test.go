package mtier

import (
	"math"
	"net"
	"sync"
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

// newTestServer builds a tiny three-tier stack — in-process backend, cached
// middle tier — without listening, so callers can attach observability
// first.
func newTestServer(t *testing.T) (*Server, *core.Engine, float64) {
	t.Helper()
	return newTestServerOver(t, nil)
}

// newTestServerOver is newTestServer with the backend wrapped by wrap, when
// wrap is not nil.
func newTestServerOver(t *testing.T, wrap func(backend.Backend) backend.Backend) (*Server, *core.Engine, float64) {
	t.Helper()
	cfg := apb.New(apb.ScaleTiny)
	g, tab, err := cfg.Build(44)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	inner, err := backend.NewEngine(g, tab, backend.LatencyModel{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	var be backend.Backend = inner
	if wrap != nil {
		be = wrap(inner)
	}
	sz := sizer.NewEstimate(g, int64(tab.Len()))
	c, _ := cache.New(1<<20, cache.NewTwoLevel())
	eng, err := core.New(g, c, strategy.NewVCMC(g, sz), be, sz)
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	var total float64
	for i := 0; i < tab.Len(); i++ {
		total += tab.Value(i)
	}
	return NewServer(eng), eng, total
}

// startServer is newTestServer plus a live TCP listener.
func startServer(t *testing.T) (*Server, string, *core.Engine, float64) {
	t.Helper()
	srv, eng, total := newTestServer(t)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr, eng, total
}

func TestClientServerRoundTrip(t *testing.T) {
	_, addr, _, total := startServer(t)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	// Cold query goes to the backend.
	resp, err := cl.Query("SUM(UnitSales) BY Time:Year")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if resp.Agg != "SUM" || len(resp.Levels) != 3 {
		t.Fatalf("metadata: %+v", resp)
	}
	if resp.CompleteHit {
		t.Fatalf("cold query reported a complete hit")
	}
	var sum float64
	for _, cell := range resp.Cells {
		sum += cell.Value
	}
	if math.Abs(sum-total) > 1e-6 {
		t.Fatalf("sum = %v, want %v", sum, total)
	}
	// Repeat is a cache hit with the same cells.
	resp2, err := cl.Query("SUM(UnitSales) BY Time:Year")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if !resp2.CompleteHit {
		t.Fatalf("repeat query missed")
	}
	if len(resp2.Cells) != len(resp.Cells) {
		t.Fatalf("cells differ: %d vs %d", len(resp2.Cells), len(resp.Cells))
	}
	// AVG/COUNT served from the same cache.
	cnt, err := cl.Query("COUNT(UnitSales) BY Time:Year")
	if err != nil {
		t.Fatalf("COUNT: %v", err)
	}
	if !cnt.CompleteHit || cnt.Agg != "COUNT" {
		t.Fatalf("COUNT response: %+v", cnt)
	}
	var rows float64
	for _, cell := range cnt.Cells {
		rows += cell.Value
	}
	if rows <= 0 {
		t.Fatalf("COUNT rows = %v", rows)
	}
	avg, err := cl.Query("AVG(UnitSales) BY Time:Year")
	if err != nil {
		t.Fatalf("AVG: %v", err)
	}
	if math.Abs(avg.Cells[0].Value-avg.Cells[0].Sum/float64(avg.Cells[0].Count)) > 1e-9 {
		t.Fatalf("AVG cell inconsistent: %+v", avg.Cells[0])
	}
	if avg.Total() < 0 {
		t.Fatalf("negative total time")
	}
}

func TestServerBadQuery(t *testing.T) {
	_, addr, _, _ := startServer(t)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	if _, err := cl.Query("GARBAGE"); err == nil {
		t.Fatalf("expected parse error")
	}
	// Connection survives application errors.
	if _, err := cl.Query("SUM(UnitSales) BY Time:Year"); err != nil {
		t.Fatalf("connection did not survive: %v", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	_, addr, _, _ := startServer(t)
	var wg sync.WaitGroup
	errs := make(chan error, 12)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for i := 0; i < 5; i++ {
				if _, err := cl.Query("SUM(UnitSales) BY Product:Group"); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent client: %v", err)
	}
}

// TestServerCountsWireErrorsAndIdleCloses: a garbage connection increments
// the wire-error counter, a silent one is reaped by the idle deadline and
// counted separately, and healthy clients keep working through both.
func TestServerCountsWireErrorsAndIdleCloses(t *testing.T) {
	srv, _, _ := newTestServer(t)
	srv.SetObs(obs.NewRegistry(), nil)
	srv.SetTimeouts(wire.Timeouts{Read: 100 * time.Millisecond, Write: time.Minute})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()

	// Garbage that fails the magic check: the server must drop the
	// connection and count a wire error.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("raw dial: %v", err)
	}
	raw.Write([]byte("\x00garbage-not-a-frame"))
	buf := make([]byte, 16)
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := raw.Read(buf); err == nil {
		t.Fatalf("server answered a garbage frame instead of closing")
	}
	raw.Close()

	// A connection that never speaks: reaped by the idle deadline, counted
	// as an idle close, not a wire error.
	idle, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("idle dial: %v", err)
	}
	idle.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := idle.Read(buf); err == nil {
		t.Fatalf("idle connection was not reaped")
	}
	idle.Close()

	if got := srv.met.WireErrors.Value(); got != 1 {
		t.Fatalf("WireErrors = %d, want 1", got)
	}
	if got := srv.met.IdleCloses.Value(); got != 1 {
		t.Fatalf("IdleCloses = %d, want 1", got)
	}

	// Healthy clients are unaffected — and can pipeline queries over one
	// connection concurrently.
	cl, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := cl.Query("SUM(UnitSales) BY Time:Year"); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("pipelined query: %v", err)
	}
}

// Regression: a second Listen must be rejected instead of silently
// replacing (and leaking) the first listener.
func TestServerDoubleListenRejected(t *testing.T) {
	srv, addr, _, _ := startServer(t)
	if _, err := srv.Listen("127.0.0.1:0"); err == nil {
		t.Fatalf("second Listen succeeded; first listener leaked")
	}
	// The original listener must still be serving.
	cl, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial after rejected double Listen: %v", err)
	}
	defer cl.Close()
	if _, err := cl.Query("SUM(UnitSales) BY Time:Year"); err != nil {
		t.Fatalf("original listener broken: %v", err)
	}
}

// Regression: Listen after Close must fail rather than resurrect a closed
// server (its Close already ran the conns sweep).
func TestServerListenAfterCloseRejected(t *testing.T) {
	srv, _, _, _ := startServer(t)
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := srv.Listen("127.0.0.1:0"); err == nil {
		t.Fatalf("Listen after Close succeeded")
	}
}

func TestClientClosed(t *testing.T) {
	_, addr, _, _ := startServer(t)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	if err := cl.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := cl.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
	if _, err := cl.Query("SUM(UnitSales) BY Time:Year"); err == nil {
		t.Fatalf("expected error after Close")
	}
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Fatalf("expected dial error")
	}
}
