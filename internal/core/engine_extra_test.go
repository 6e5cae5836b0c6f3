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

// TestRecycleBackendFills: a cold whole-extent fetch at the base group-by
// fully covers every one-step roll-up, so the recycler materializes and
// admits them from the arriving batch — follow-up queries one level up are
// complete hits with correct contents.
func TestRecycleBackendFills(t *testing.T) {
	f := build(t, "VCMC", cache.NewTwoLevelPromote(), 1<<20,
		WithRecycling(true), WithRecycleMinBenefit(1e-9))
	lat := f.grid.Lattice()
	base := lat.Base()

	res, err := f.engine.Execute(context.Background(), WholeGroupBy(base))
	if err != nil {
		t.Fatalf("cold base: %v", err)
	}
	if res.RecycledChunks == 0 {
		t.Fatalf("whole-extent backend fill recycled no roll-ups")
	}

	for _, ch := range lat.Children(base) {
		q := WholeGroupBy(ch)
		cres, err := f.engine.Execute(context.Background(), q)
		if err != nil {
			t.Fatalf("child %v: %v", ch, err)
		}
		if !cres.CompleteHit {
			t.Fatalf("child %v not a complete hit after covered backend fill", ch)
		}
		assertMatchesOracle(t, f, q, cres)
	}

	// Without recycling, the same cold fetch admits nothing beyond the base.
	f2 := build(t, "VCMC", cache.NewTwoLevel(), 1<<20)
	res2, err := f2.engine.Execute(context.Background(), WholeGroupBy(base))
	if err != nil {
		t.Fatalf("cold base (off): %v", err)
	}
	if res2.RecycledChunks != 0 {
		t.Fatalf("recycling off but RecycledChunks = %d", res2.RecycledChunks)
	}
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
	eng, c := run(t, WithRecycling(true), WithRecycleMinBenefit(1e-9))
	if !midResident(c) {
		t.Fatalf("no intermediate chunks were recycled")
	}
	if got := eng.Stats().Recycled; got == 0 {
		t.Fatalf("Stats.Recycled = 0, want > 0")
	}

	// A prohibitive threshold rejects them all and counts the rejections.
	eng, c = run(t, WithRecycling(true), WithRecycleMinBenefit(1e12))
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
