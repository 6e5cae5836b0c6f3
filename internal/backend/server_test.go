package backend

import (
	"context"
	"sync"
	"testing"

	"aggcache/internal/obs"
)

func TestServerRoundTrip(t *testing.T) {
	e, _ := tinyEngine(t, LatencyModel{})
	srv := NewServer(e)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()

	remote, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer remote.Close()

	lat := e.Grid().Lattice()
	wantChunks, wantStats, err := e.ComputeChunks(context.Background(), lat.Top(), []int{0})
	if err != nil {
		t.Fatalf("local compute: %v", err)
	}
	gotChunks, gotStats, err := remote.ComputeChunks(context.Background(), lat.Top(), []int{0})
	if err != nil {
		t.Fatalf("remote compute: %v", err)
	}
	if len(gotChunks) != 1 || gotChunks[0].Cells() != wantChunks[0].Cells() {
		t.Fatalf("remote chunks differ: %v vs %v", gotChunks, wantChunks)
	}
	if gotChunks[0].Total() != wantChunks[0].Total() {
		t.Fatalf("remote totals differ")
	}
	if gotStats.TuplesScanned != wantStats.TuplesScanned {
		t.Fatalf("remote stats differ: %+v vs %+v", gotStats, wantStats)
	}
}

func TestServerPipelinesRequests(t *testing.T) {
	e, _ := tinyEngine(t, LatencyModel{})
	srv := NewServer(e)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()

	remote, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer remote.Close()

	lat := e.Grid().Lattice()
	// Many requests pipelined concurrently over one multiplexed connection.
	var wg sync.WaitGroup
	errs := make(chan error, 20)
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := remote.ComputeChunks(context.Background(), lat.Top(), []int{0})
			if err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent request: %v", err)
	}
}

// TestServerPipelinedOutOfOrderContents issues K concurrent requests for
// different chunks over ONE multiplexed connection. Responses complete in
// whatever order the server's concurrent handlers finish; each caller must
// still get the chunk it asked for (contents verified against a local
// compute), and the redial counter proves no second connection was opened.
func TestServerPipelinedOutOfOrderContents(t *testing.T) {
	e, tab := tinyEngine(t, LatencyModel{})
	srv := NewServer(e)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()

	met := obs.NewRemoteMetrics(obs.NewRegistry())
	remote, err := DialPolicy(addr, DefaultRetryPolicy, met)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer remote.Close()

	g := e.Grid()
	gb := g.Lattice().Top()
	nchunks := g.NumChunks(gb)
	const k = 16
	var wg sync.WaitGroup
	errs := make(chan error, k)
	for i := 0; i < k; i++ {
		num := i % nchunks
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, _, err := remote.ComputeChunks(context.Background(), gb, []int{num})
			if err != nil {
				errs <- err
				return
			}
			want := directAggregate(g, tab, gb, num)
			if len(got) != 1 || got[0].Cells() != len(want) {
				t.Errorf("chunk %d: got %d cells, want %d", num, got[0].Cells(), len(want))
				return
			}
			for j, key := range got[0].Keys {
				// Summation order differs between the engine and the oracle;
				// allow float rounding slack.
				if diff := want[key] - got[0].Vals[j]; diff > 1e-6 || diff < -1e-6 {
					t.Errorf("chunk %d key %d: got %v, want %v", num, key, got[0].Vals[j], want[key])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("pipelined request: %v", err)
	}
	if n := met.Redials.Value(); n != 0 {
		t.Fatalf("pipelined requests redialed %d times; want all on one connection", n)
	}
}

func TestServerRemoteError(t *testing.T) {
	e, _ := tinyEngine(t, LatencyModel{})
	srv := NewServer(e)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()

	remote, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer remote.Close()

	if _, _, err := remote.ComputeChunks(context.Background(), 9999, []int{0}); err == nil {
		t.Fatalf("expected remote error for bad group-by")
	}
	// The connection survives an application-level error.
	if _, _, err := remote.ComputeChunks(context.Background(), e.Grid().Lattice().Top(), []int{0}); err != nil {
		t.Fatalf("connection did not survive error: %v", err)
	}
}

func TestRemoteClosed(t *testing.T) {
	e, _ := tinyEngine(t, LatencyModel{})
	srv := NewServer(e)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()
	remote, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	if err := remote.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := remote.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
	if _, _, err := remote.ComputeChunks(context.Background(), 0, []int{0}); err == nil {
		t.Fatalf("expected error after Close")
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Fatalf("expected dial error")
	}
}
