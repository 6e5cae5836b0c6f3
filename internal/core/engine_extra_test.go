package core

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"aggcache/internal/backend"
	"aggcache/internal/cache"
	"aggcache/internal/chunk"
	"aggcache/internal/lattice"
	"aggcache/internal/sizer"
	"aggcache/internal/strategy"
)

// flakyBackend fails every request once armed; used for failure injection.
type flakyBackend struct {
	backend.Backend
	fail bool
}

var errInjected = errors.New("injected backend failure")

func (f *flakyBackend) ComputeChunks(ctx context.Context, gb lattice.ID, nums []int) ([]*chunk.Chunk, backend.Stats, error) {
	if f.fail {
		return nil, backend.Stats{}, errInjected
	}
	return f.Backend.ComputeChunks(ctx, gb, nums)
}

// TestBackendFailureSurfacesAndRecovers injects a backend failure mid-run
// and checks that the engine reports it, stays consistent, and recovers once
// the backend heals.
func TestBackendFailureSurfacesAndRecovers(t *testing.T) {
	base := build(t, "VCMC", cache.NewTwoLevel(), 1<<20)
	fb := &flakyBackend{Backend: base.oracle}
	sz := sizer.NewEstimate(base.grid, 1000)
	c, _ := cache.New(1<<20, cache.NewTwoLevel())
	eng, err := New(base.grid, c, strategy.NewVCMC(base.grid, sz), fb, sz)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	lat := base.grid.Lattice()

	fb.fail = true
	if _, err := eng.Execute(context.Background(), WholeGroupBy(lat.Base())); !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want injected failure", err)
	}
	st := eng.Stats()
	if st.Queries != 0 {
		t.Fatalf("failed query was counted: %+v", st)
	}

	fb.fail = false
	res, err := eng.Execute(context.Background(), WholeGroupBy(lat.Base()))
	if err != nil {
		t.Fatalf("Execute after recovery: %v", err)
	}
	if res.Cells() == 0 {
		t.Fatalf("no cells after recovery")
	}
	// Aggregates still work on the recovered cache.
	res, err = eng.Execute(context.Background(), WholeGroupBy(lat.Top()))
	if err != nil || !res.CompleteHit {
		t.Fatalf("aggregate after recovery: %v %+v", err, res)
	}
}

// miscountBackend answers every request with one chunk more (delta > 0) or
// one fewer (delta < 0) than it was asked for.
type miscountBackend struct {
	backend.Backend
	delta int
}

func (m *miscountBackend) ComputeChunks(ctx context.Context, gb lattice.ID, nums []int) ([]*chunk.Chunk, backend.Stats, error) {
	chunks, st, err := m.Backend.ComputeChunks(ctx, gb, nums)
	if err != nil || len(chunks) == 0 {
		return chunks, st, err
	}
	if m.delta > 0 {
		return append(chunks, chunks[0]), st, nil
	}
	return chunks[:len(chunks)-1], st, nil
}

// TestPreloadRejectsMiscountedReply: a preload reply with the wrong chunk
// count is a failed fetch, as it is for a query — an error, nothing
// inserted and nothing counted — not a panic (long reply) or a silently
// partial preload (short reply).
func TestPreloadRejectsMiscountedReply(t *testing.T) {
	base := build(t, "VCMC", cache.NewTwoLevel(), 1<<20)
	sz := sizer.NewEstimate(base.grid, 1000)
	for _, delta := range []int{+1, -1} {
		c, _ := cache.New(1<<20, cache.NewTwoLevel())
		eng, err := New(base.grid, c, strategy.NewVCMC(base.grid, sz), &miscountBackend{Backend: base.oracle, delta: delta}, sz)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if _, _, err := eng.Preload(context.Background()); err == nil {
			t.Fatalf("delta %+d: Preload accepted a miscounted reply", delta)
		}
		if st := eng.Stats(); st.BackendQueries != 0 || st.BackendTuples != 0 || c.Len() != 0 {
			t.Fatalf("delta %+d: failed preload counted %d requests, %d tuples and left %d chunks",
				delta, st.BackendQueries, st.BackendTuples, c.Len())
		}
	}
}

// TestEngineConcurrentExecute hammers one engine from many goroutines;
// queries genuinely overlap and every answer must match the oracle.
func TestEngineConcurrentExecute(t *testing.T) {
	f := build(t, "VCMC", cache.NewTwoLevel(), 64<<10)
	lat := f.grid.Lattice()
	queries := []Query{
		WholeGroupBy(lat.Base()),
		WholeGroupBy(lat.Top()),
		WholeGroupBy(lattice.ID(3)),
		WholeGroupBy(lattice.ID(7)),
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				q := queries[(w+i)%len(queries)]
				res, err := f.engine.Execute(context.Background(), q)
				if err != nil {
					errs <- err
					return
				}
				if res.Cells() == 0 {
					errs <- errors.New("empty result")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent execute: %v", err)
	}
	// Post-run correctness spot check.
	res, err := f.engine.Execute(context.Background(), WholeGroupBy(lat.Top()))
	if err != nil {
		t.Fatalf("final: %v", err)
	}
	assertMatchesOracle(t, f, WholeGroupBy(lat.Top()), res)
}

// TestRecycleIntermediates checks that the recycler caches a plan's
// profitable interior chunks, making a follow-up mid-level query a direct
// hit — and that a prohibitive threshold recycles nothing.
func TestRecycleIntermediates(t *testing.T) {
	cfgFix := build(t, "VCMC", cache.NewTwoLevel(), 1<<20)
	sz := sizer.NewEstimate(cfgFix.grid, 1000)
	lat := cfgFix.grid.Lattice()

	run := func(t *testing.T, opts ...Option) (*Engine, cache.Store) {
		t.Helper()
		c, _ := cache.New(1<<20, cache.NewTwoLevelPromote())
		eng, err := New(cfgFix.grid, c, strategy.NewVCMC(cfgFix.grid, sz), cfgFix.oracle, sz, opts...)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if _, err := eng.Execute(context.Background(), WholeGroupBy(lat.Base())); err != nil {
			t.Fatalf("warm: %v", err)
		}
		if _, err := eng.Execute(context.Background(), WholeGroupBy(lat.Top())); err != nil {
			t.Fatalf("aggregate: %v", err)
		}
		return eng, c
	}

	midResident := func(c cache.Store) bool {
		found := false
		c.Range(func(k cache.Key, _ *chunk.Chunk, _ cache.Class, _ float64, _ bool) {
			if k.GB != lat.Base() && k.GB != lat.Top() {
				found = true
			}
		})
		return found
	}

	// A tiny threshold admits every interior node of the top-level roll-up.
	eng, c := run(t, WithRecycling(true), withRecycleMinBenefit(1e-9))
	if !midResident(c) {
		t.Fatalf("no intermediate chunks were recycled")
	}
	if got := eng.Stats().Recycled; got == 0 {
		t.Fatalf("Stats.Recycled = 0, want > 0")
	}

	// A prohibitive threshold rejects them all and counts the rejections.
	eng, c = run(t, WithRecycling(true), withRecycleMinBenefit(1e12))
	if midResident(c) {
		t.Fatalf("intermediate chunks cached despite prohibitive threshold")
	}
	st := eng.Stats()
	if st.Recycled != 0 {
		t.Fatalf("Stats.Recycled = %d, want 0", st.Recycled)
	}
	if st.RecycleRejected == 0 {
		t.Fatalf("Stats.RecycleRejected = 0, want > 0")
	}

	// Recycling off (the default): no intermediates, no reject accounting.
	eng, c = run(t)
	if midResident(c) {
		t.Fatalf("intermediate chunks cached with recycling off")
	}
	if st := eng.Stats(); st.Recycled != 0 || st.RecycleRejected != 0 {
		t.Fatalf("recycle stats nonzero with recycling off: %+v", st)
	}
}

func TestBreakdown(t *testing.T) {
	b := Breakdown{Lookup: 1, Aggregate: 2, Update: 3, Backend: 4}
	if b.Total() != 10 {
		t.Fatalf("Total = %v", b.Total())
	}
	b.Add(Breakdown{Lookup: 10, Aggregate: 20, Update: 30, Backend: 40})
	if b.Lookup != 11 || b.Aggregate != 22 || b.Update != 33 || b.Backend != 44 {
		t.Fatalf("Add = %+v", b)
	}
	s := b.Scale(11)
	if s.Lookup != 1 || s.Aggregate != 2 || s.Update != 3 || s.Backend != 4 {
		t.Fatalf("Scale = %+v", s)
	}
	if !strings.Contains(b.String(), "lookup=") {
		t.Fatalf("String = %q", b.String())
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("Scale(0) should panic")
		}
	}()
	b.Scale(0)
}
