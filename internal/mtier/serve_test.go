package mtier

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"aggcache/internal/apb"
	"aggcache/internal/backend"
	"aggcache/internal/cache"
	"aggcache/internal/chunk"
	"aggcache/internal/core"
	"aggcache/internal/lattice"
	"aggcache/internal/mdq"
	"aggcache/internal/obs"
	"aggcache/internal/sizer"
	"aggcache/internal/strategy"
)

// TestServersListenOnce: both tiers' servers refuse a second Listen and
// still Close within a second. The backend server used to accept the
// second Listen, orphan the first accept loop, and hang in Close.
func TestServersListenOnce(t *testing.T) {
	mt, _, _ := newTestServer(t)
	g, tab, err := apb.New(apb.ScaleTiny).Build(44)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	be, err := backend.NewEngine(g, tab, backend.LatencyModel{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	servers := []struct {
		name string
		srv  interface {
			Listen(string) (string, error)
			Close() error
		}
	}{
		{"backend", backend.NewServer(be)},
		{"mtier", mt},
	}
	for _, tc := range servers {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.srv.Listen("127.0.0.1:0"); err != nil {
				t.Fatalf("Listen: %v", err)
			}
			if _, err := tc.srv.Listen("127.0.0.1:0"); err == nil {
				t.Error("second Listen succeeded")
			}
			done := make(chan struct{})
			go func() {
				tc.srv.Close()
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(time.Second):
				t.Fatal("Close did not return within 1s")
			}
		})
	}
}

// panicOnce is a backend whose first ComputeChunks call signals entered,
// waits for release, and panics; later calls pass through.
type panicOnce struct {
	backend.Backend
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (p *panicOnce) ComputeChunks(ctx context.Context, gb lattice.ID, nums []int) ([]*chunk.Chunk, backend.Stats, error) {
	if p.armed.CompareAndSwap(true, false) {
		close(p.entered)
		<-p.release
		panic("boom")
	}
	return p.Backend.ComputeChunks(ctx, gb, nums)
}

// TestQueryPanicLeavesNothingStuck: a query whose backend call panics is
// answered with an error instead of killing the process; a concurrent
// follower of the same chunks fails instead of waiting forever; the
// admission slot (one, here) is released, so the next query on the same
// connection is admitted and answered; and the panic is counted once, as a
// request panic and as an execute error, with its latency and a "panic"
// trace recorded.
func TestQueryPanicLeavesNothingStuck(t *testing.T) {
	g, tab, err := apb.New(apb.ScaleTiny).Build(44)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	inner, err := backend.NewEngine(g, tab, backend.LatencyModel{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	be := &panicOnce{Backend: inner, entered: make(chan struct{}), release: make(chan struct{})}
	be.armed.Store(true)
	sz := sizer.NewEstimate(g, int64(tab.Len()))
	c, _ := cache.New(1<<20, cache.NewTwoLevel())
	em := obs.NewEngineMetrics(nil)
	eng, err := core.New(g, c, strategy.NewVCMC(g, sz), be, sz, core.WithMetrics(em))
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	srv := NewServer(eng)
	srv.SetAdmission(AdmissionConfig{MaxConcurrent: 1})
	reg := obs.NewRegistry()
	ring := obs.NewTraceRing(8)
	srv.SetObs(reg, ring)
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

	const query = "SUM(UnitSales) BY Time:Year"
	leader := make(chan error, 1)
	go func() {
		_, err := cl.Query(query)
		leader <- err
	}()
	<-be.entered

	// The follower joins the leader's flights straight on the engine: the
	// one admission slot is the leader's.
	q, _, err := mdq.Compile(query, g)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	follower := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_, err := eng.Execute(ctx, q)
		follower <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); em.FlightFollowerChunks.Value() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("follower never joined the leader's flight")
		}
		time.Sleep(time.Millisecond)
	}
	close(be.release)

	if err := <-leader; err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("leader: got %v, want the panic as an error reply", err)
	}
	if err := <-follower; err == nil || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("follower: got %v, want an error before its deadline", err)
	}
	met := obs.NewServerMetrics(reg)
	traces := ring.Snapshot()
	if len(traces) != 1 || traces[0].Outcome != "panic" || !strings.Contains(traces[0].Err, "boom") {
		t.Fatalf("traces after the panic = %+v, want one with outcome panic", traces)
	}
	if n := met.Latency.Count(); n != 1 {
		t.Fatalf("latency observations = %d, want 1", n)
	}
	if n := met.ExecuteErrors.Value(); n != 1 {
		t.Fatalf("execute errors = %d, want 1", n)
	}
	if resp, err := cl.Query(query); err != nil || len(resp.Cells) == 0 {
		t.Fatalf("next query on the connection: %v", err)
	}
	if n := met.Panics.Value(); n != 1 {
		t.Fatalf("request panics = %d, want 1", n)
	}
}

// faultBackend fails every ComputeChunks call with fault's error, or panics
// when fault does; a nil fault answers from the wrapped backend.
type faultBackend struct {
	backend.Backend
	fault func() error
}

func (b *faultBackend) ComputeChunks(ctx context.Context, gb lattice.ID, nums []int) ([]*chunk.Chunk, backend.Stats, error) {
	if b.fault != nil {
		return nil, backend.Stats{}, b.fault()
	}
	return b.Backend.ComputeChunks(ctx, gb, nums)
}

// TestAnswerRecordsEachOutcome: every outcome of answer — ok, compile error,
// the three execute-error kinds and a panic — records exactly one trace and
// one latency observation, counts the request once and bumps only its own
// error series, and the trace carries the outcome, the error and, for a
// query the engine ran to an answer or an error, its group-by. The client
// receives each failure classified: a query that does not compile or that
// the engine rejects is a permanent *backend.RemoteError; a timeout, an
// unavailable backend and a panic are transient.
func TestAnswerRecordsEachOutcome(t *testing.T) {
	const good = "SUM(UnitSales) BY Time:Year"
	for _, tc := range []struct {
		outcome   string
		query     string
		fault     func() error
		kind      func(obs.ServerMetrics) *obs.Counter // the error series it bumps
		groupBy   bool
		transient bool
	}{
		{"ok", good, nil, nil, true, false},
		{"compile_error", "THIS IS NOT MDQ", nil, func(m obs.ServerMetrics) *obs.Counter { return m.CompileErrors }, false, false},
		{"timeout", good, func() error { return fmt.Errorf("scan: %w", context.DeadlineExceeded) },
			func(m obs.ServerMetrics) *obs.Counter { return m.TimeoutErrors }, true, true},
		{"unavailable", good, func() error { return fmt.Errorf("dial: %w", backend.ErrUnavailable) },
			func(m obs.ServerMetrics) *obs.Counter { return m.UnavailableErrors }, true, true},
		{"execute_error", good, func() error { return errors.New("disk on fire") },
			func(m obs.ServerMetrics) *obs.Counter { return m.ExecuteErrors }, true, false},
		{"panic", good, func() error { panic("boom") },
			func(m obs.ServerMetrics) *obs.Counter { return m.ExecuteErrors }, false, true},
	} {
		t.Run(tc.outcome, func(t *testing.T) {
			srv, _, _ := newTestServerOver(t, func(be backend.Backend) backend.Backend {
				return &faultBackend{Backend: be, fault: tc.fault}
			})
			reg, ring := obs.NewRegistry(), obs.NewTraceRing(8)
			srv.SetObs(reg, ring)
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

			_, err = cl.Query(tc.query)
			var re *backend.RemoteError
			if (err == nil) != (tc.outcome == "ok") || (err != nil && !errors.As(err, &re)) {
				t.Fatalf("query error %v, want a RemoteError unless ok", err)
			}
			if backend.IsTransient(err) != tc.transient {
				t.Fatalf("IsTransient(%v) = %v, want %v", err, backend.IsTransient(err), tc.transient)
			}

			met := obs.NewServerMetrics(reg)
			if met.Requests.Value() != 1 || met.Latency.Count() != 1 {
				t.Fatalf("requests %d, latency observations %d, want 1 and 1", met.Requests.Value(), met.Latency.Count())
			}
			for name, ctr := range map[string]*obs.Counter{"compile": met.CompileErrors, "execute": met.ExecuteErrors,
				"timeout": met.TimeoutErrors, "unavailable": met.UnavailableErrors} {
				want := int64(0)
				if tc.kind != nil && tc.kind(met) == ctr {
					want = 1
				}
				if ctr.Value() != want {
					t.Errorf("%s errors = %d, want %d", name, ctr.Value(), want)
				}
			}
			traces := ring.Snapshot()
			if len(traces) != 1 {
				t.Fatalf("%d traces, want 1", len(traces))
			}
			tr := traces[0]
			if tr.Outcome != tc.outcome || tr.Query != tc.query || tr.TotalNS <= 0 || (tr.Err == "") != (tc.outcome == "ok") {
				t.Fatalf("trace %+v", tr)
			}
			if (tr.GroupBy != "") != tc.groupBy {
				t.Fatalf("trace group-by %q, want one: %v", tr.GroupBy, tc.groupBy)
			}
			if tc.outcome == "ok" && (tr.Chunks == 0 || tr.Fetched != tr.Chunks || tr.BackendTuples == 0) {
				t.Fatalf("ok trace provenance: %+v", tr)
			}
		})
	}
}
