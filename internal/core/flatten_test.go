package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"aggcache/internal/cache"
)

// TestSinglePassExecutorMixedPlans drives the single-pass executor through
// plans that mix all three kinds of node — interior nodes the recycler
// admits (materialized, inserted, rolled up as one chunk), interior nodes it
// declines (inlined: never built, their leaves go straight into the nearest
// materialized ancestor) and present chunks at every lattice level (base
// preload, earlier roots, earlier recycled intermediates) — from 8
// goroutines at once, and checks every answer cell for cell against an
// engine with no aggregate awareness. Run with -race (make race / CI does).
func TestSinglePassExecutorMixedPlans(t *testing.T) {
	// Tiny APB at the default threshold prices the deep interior nodes of a
	// base → top plan below 1 tuple/byte and the shallow ones above it.
	f := build(t, "VCMC", cache.NewTwoLevelPromote(), 1<<20, WithRecycling(true))
	ref := build(t, "NoAgg", policyNamed(t, "benefit"), 1<<20)
	ctx := context.Background()
	lat := f.grid.Lattice()
	if _, err := f.engine.Execute(ctx, WholeGroupBy(lat.Base())); err != nil {
		t.Fatalf("preload: %v", err)
	}
	out, err := f.engine.Explain(WholeGroupBy(lat.Top()))
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	for _, kind := range []string{"[recycle: admit", "[inlined]", "[cached]"} {
		if !strings.Contains(out, kind) {
			t.Fatalf("the base -> top plan has no %q node, so it does not mix the executor's cases:\n%s", kind, out)
		}
	}

	const workers, perWorker = 8, 60
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			for i := 0; i < perWorker; i++ {
				q := randomQuery(rng, f.grid)
				if i == 0 {
					q = WholeGroupBy(lat.Top()) // the mixed plan itself, raced by every worker
				}
				got, err := f.engine.Execute(ctx, q)
				if err != nil {
					errs <- fmt.Errorf("worker %d query %d: %w", w, i, err)
					return
				}
				want, err := ref.engine.Execute(ctx, q)
				if err != nil {
					errs <- fmt.Errorf("worker %d query %d: reference: %w", w, i, err)
					return
				}
				if len(got.Chunks) != len(want.Chunks) {
					errs <- fmt.Errorf("worker %d query %d: %d chunks, reference %d", w, i, len(got.Chunks), len(want.Chunks))
					return
				}
				for c, wc := range want.Chunks {
					gc := got.Chunks[c]
					if gc.Cells() != wc.Cells() {
						errs <- fmt.Errorf("worker %d query %d chunk %d: %d cells, reference %d", w, i, c, gc.Cells(), wc.Cells())
						return
					}
					for j, key := range wc.Keys {
						sum, count, ok := gc.Cell(key)
						if !ok || count != wc.Counts[j] || math.Abs(sum-wc.Vals[j]) > 1e-9*math.Max(math.Abs(wc.Vals[j]), 1) {
							errs <- fmt.Errorf("worker %d query %d chunk %d cell %d: (%v, %d, %v), reference (%v, %d)",
								w, i, c, key, sum, count, ok, wc.Vals[j], wc.Counts[j])
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := f.engine.Stats()
	if st.Recycled == 0 || st.RecycleRejected == 0 || st.AggTuples == 0 {
		t.Fatalf("stream did not exercise every case: %d recycled, %d inlined, %d tuples scanned",
			st.Recycled, st.RecycleRejected, st.AggTuples)
	}
	if st.BackendQueries != 1 {
		t.Fatalf("%d backend queries; everything after the preload is computable in the cache", st.BackendQueries)
	}
}
