package core

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aggcache/internal/backend"
	"aggcache/internal/cache"
	"aggcache/internal/chunk"
	"aggcache/internal/lattice"
	"aggcache/internal/sizer"
	"aggcache/internal/strategy"
)

// Regression: a plan leaf the strategy believes resident but the cache no
// longer holds must demote the chunk to a miss, not fail the query. The
// desync is provoked by feeding the strategy an OnInsert for a chunk the
// cache never admitted.
func TestPinFallbackTreatsChunkAsMiss(t *testing.T) {
	f := build(t, "VCMC", cache.NewTwoLevel(), 1<<20)
	lat := f.grid.Lattice()
	top := lat.Top()
	payload, _, err := f.oracle.ComputeChunks(context.Background(), top, []int{0})
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	f.engine.Strategy().OnInsert(&cache.Entry{
		Key: cache.Key{GB: top, Num: 0}, Data: payload[0], Class: cache.ClassBackend,
	})
	res, err := f.engine.Execute(context.Background(), WholeGroupBy(top))
	if err != nil {
		t.Fatalf("query failed on a desynced plan leaf: %v", err)
	}
	if res.CompleteHit || res.MissChunks != 1 {
		t.Fatalf("desynced chunk not treated as a miss: %+v", res)
	}
	assertMatchesOracle(t, f, WholeGroupBy(top), res)
}

// gatedBackend blocks every ComputeChunks until released, so a burst of
// identical queries piles up behind the first fetch.
type gatedBackend struct {
	backend.Backend
	calls   atomic.Int64
	started chan struct{}
	release chan struct{}
	once    sync.Once
}

func (g *gatedBackend) ComputeChunks(ctx context.Context, gb lattice.ID, nums []int) ([]*chunk.Chunk, backend.Stats, error) {
	g.calls.Add(1)
	g.once.Do(func() { close(g.started) })
	<-g.release
	return g.Backend.ComputeChunks(ctx, gb, nums)
}

// TestSingleflightDedupesIdenticalFetches checks that a burst of identical
// cold queries does not issue one backend request each: followers join the
// leader's in-flight fetch.
func TestSingleflightDedupesIdenticalFetches(t *testing.T) {
	base := build(t, "VCMC", cache.NewTwoLevel(), 1<<20)
	gb := &gatedBackend{Backend: base.oracle, started: make(chan struct{}), release: make(chan struct{})}
	sz := sizer.NewEstimate(base.grid, 1000)
	c, _ := cache.New(1<<20, cache.NewTwoLevel())
	eng, err := New(base.grid, c, strategy.NewVCMC(base.grid, sz), gb, sz)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	lat := base.grid.Lattice()
	q := WholeGroupBy(lat.Top()) // a single chunk, missed by everyone

	const n = 8
	totals := make([]float64, n)
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := eng.Execute(context.Background(), q)
			if err != nil {
				errs <- err
				return
			}
			totals[i] = res.Total()
		}(i)
	}
	<-gb.started
	time.Sleep(50 * time.Millisecond) // let the rest of the burst join the flight
	close(gb.release)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent query: %v", err)
	}
	if calls := gb.calls.Load(); calls >= n {
		t.Fatalf("backend saw %d calls for %d identical queries; in-flight dedup broken", calls, n)
	}
	for i := 1; i < n; i++ {
		if math.Abs(totals[i]-totals[0]) > 1e-6 {
			t.Fatalf("totals diverge: %v vs %v", totals[i], totals[0])
		}
	}
}
