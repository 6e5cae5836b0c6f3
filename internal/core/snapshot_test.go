package core

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"aggcache/internal/apb"
	"aggcache/internal/backend"
	"aggcache/internal/cache"
)

// saveSnapshot warms f with the base group-by and its top roll-up and writes
// the cache to a snapshot file, returning the path and the chunks saved.
func saveSnapshot(t *testing.T, f *fixture) (string, int) {
	t.Helper()
	lat := f.grid.Lattice()
	for _, q := range []Query{WholeGroupBy(lat.Base()), WholeGroupBy(lat.Top())} {
		if _, err := f.engine.Execute(context.Background(), q); err != nil {
			t.Fatalf("warm: %v", err)
		}
	}
	path := filepath.Join(t.TempDir(), "cache.snap")
	n, err := f.engine.SaveCacheFile(path)
	if err != nil {
		t.Fatalf("SaveCacheFile: %v", err)
	}
	if n != f.engine.Cache().Len() {
		t.Fatalf("saved %d records, cache holds %d", n, f.engine.Cache().Len())
	}
	return path, n
}

func TestSaveLoadCacheWarmRestart(t *testing.T) {
	f := build(t, "VCMC", cache.NewTwoLevel(), 1<<20)
	lat := f.grid.Lattice()
	path, saved := saveSnapshot(t, f)

	// A fresh engine over the same dataset restarts warm.
	f2 := build(t, "VCMC", cache.NewTwoLevel(), 1<<20)
	admitted, err := f2.engine.LoadCacheFile(path)
	if err != nil {
		t.Fatalf("LoadCacheFile: %v", err)
	}
	if admitted != saved {
		t.Fatalf("admitted %d, want %d", admitted, saved)
	}
	// Queries that were complete hits before are complete hits again, with
	// the strategy's counts maintained through the reload.
	res, err := f2.engine.Execute(context.Background(), WholeGroupBy(lat.Top()))
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if !res.CompleteHit {
		t.Fatalf("warm restart lost the cache")
	}
	assertMatchesOracle(t, f2, WholeGroupBy(lat.Top()), res)
	// A roll-up not previously materialized is still computable (counts
	// were rebuilt by the listener during reload).
	res, err = f2.engine.Execute(context.Background(), WholeGroupBy(lat.MustID(1, 1, 0)))
	if err != nil || !res.CompleteHit {
		t.Fatalf("derived roll-up missed after restart: %v %+v", err, res)
	}

	if _, err := f2.engine.LoadCacheFile(filepath.Join(t.TempDir(), "absent.snap")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: err = %v, want os.ErrNotExist", err)
	}
}

func TestLoadCacheSmallerCache(t *testing.T) {
	f := build(t, "VCMC", cache.NewTwoLevel(), 1<<20)
	path, saved := saveSnapshot(t, f)
	// A much smaller cache admits only part of the snapshot, without error.
	f2 := build(t, "VCMC", cache.NewTwoLevel(), 2_000)
	if _, err := f2.engine.LoadCacheFile(path); err != nil {
		t.Fatalf("LoadCacheFile: %v", err)
	}
	// Admissions may churn (later inserts evicting earlier ones), but the
	// cache must end up holding fewer chunks than the snapshot and stay
	// within capacity.
	if f2.engine.Cache().Len() >= saved {
		t.Fatalf("small cache retained everything (%d)", f2.engine.Cache().Len())
	}
	if f2.engine.Cache().Used() > f2.engine.Cache().Capacity() {
		t.Fatalf("over capacity after load")
	}
}

func TestLoadCacheRejectsGarbage(t *testing.T) {
	f := build(t, "VCM", cache.NewTwoLevel(), 1<<20)
	path, _ := saveSnapshot(t, f)
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	junk := []byte("junk")
	badMagic := append([]byte(nil), valid...)
	badMagic[0] ^= 0xFF
	for name, data := range map[string][]byte{"junk": junk, "bad magic": badMagic} {
		bad := filepath.Join(t.TempDir(), "bad.snap")
		if err := os.WriteFile(bad, data, 0o644); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		f2 := build(t, "VCM", cache.NewTwoLevel(), 1<<20)
		n, err := f2.engine.LoadCacheFile(bad)
		if !errors.Is(err, cache.ErrSnapshot) || n != 0 || f2.engine.Cache().Len() != 0 {
			t.Fatalf("%s: loaded %d chunks, err %v; want nothing and ErrSnapshot", name, n, err)
		}
	}
}

// TestLoadCacheTornTail: a process killed mid-write leaves a truncated last
// record; the load admits every complete record and reports ErrSnapshot, so
// the daemon can choose a partially warm cache.
func TestLoadCacheTornTail(t *testing.T) {
	f := build(t, "VCMC", cache.NewTwoLevel(), 1<<20)
	path, saved := saveSnapshot(t, f)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	f2 := build(t, "VCMC", cache.NewTwoLevel(), 1<<20)
	n, err := f2.engine.LoadCacheFile(path)
	if !errors.Is(err, cache.ErrSnapshot) {
		t.Fatalf("torn tail: err = %v, want ErrSnapshot", err)
	}
	if n != saved-1 || f2.engine.Cache().Len() != saved-1 {
		t.Fatalf("torn tail admitted %d (cache holds %d), want the %d complete records",
			n, f2.engine.Cache().Len(), saved-1)
	}
}

// TestLoadCacheRejectsOtherGrid: the small and medium scales share the
// 336-node lattice, so every key of a small-scale snapshot is in range at
// medium scale — but the chunks it names cover different members. The grid
// fingerprint in the header refuses the load before anything is admitted.
func TestLoadCacheRejectsOtherGrid(t *testing.T) {
	stackAt := func(scale apb.Scale) *Stack {
		g, tab, err := apb.New(scale).Build(3)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		be, err := backend.NewEngine(g, tab, backend.LatencyModel{})
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		st, err := Build(Config{Grid: g, Backend: be, Rows: int64(tab.Len()), Strategy: "VCMC", HotBytes: 64 << 20})
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		return st
	}
	small := stackAt(apb.ScaleSmall)
	lat := small.Engine.Grid().Lattice()
	if _, err := small.Engine.Execute(context.Background(), WholeGroupBy(lat.Base())); err != nil {
		t.Fatalf("warm: %v", err)
	}
	path := filepath.Join(t.TempDir(), "cache.snap")
	if n, err := small.Engine.SaveCacheFile(path); err != nil || n == 0 {
		t.Fatalf("SaveCacheFile = %d, %v", n, err)
	}

	medium := stackAt(apb.ScaleMedium)
	n, err := medium.Engine.LoadCacheFile(path)
	if !errors.Is(err, cache.ErrSnapshot) || n != 0 {
		t.Fatalf("small-scale snapshot at medium scale: admitted %d, err %v; want 0 and ErrSnapshot", n, err)
	}
	if got := medium.Engine.Cache().Len(); got != 0 {
		t.Fatalf("cache holds %d chunks after a refused load", got)
	}
}
