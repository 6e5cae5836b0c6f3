package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"

	"aggcache/internal/apb"
	"aggcache/internal/backend"
	"aggcache/internal/cache"
	"aggcache/internal/chunk"
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
	n, err := cache.SaveSnapshotFile(path, f.engine.Cache(), f.grid)
	if err != nil {
		t.Fatalf("SaveSnapshotFile: %v", err)
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
	admitted, err := cache.LoadSnapshotFile(path, f2.grid, f2.engine.Cache())
	if err != nil {
		t.Fatalf("LoadSnapshotFile: %v", err)
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

	if _, err := cache.LoadSnapshotFile(filepath.Join(t.TempDir(), "absent.snap"), f2.grid, f2.engine.Cache()); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: err = %v, want os.ErrNotExist", err)
	}
}

func TestLoadCacheSmallerCache(t *testing.T) {
	f := build(t, "VCMC", cache.NewTwoLevel(), 1<<20)
	path, saved := saveSnapshot(t, f)
	// A much smaller cache admits only part of the snapshot, without error.
	f2 := build(t, "VCMC", cache.NewTwoLevel(), 2_000)
	if _, err := cache.LoadSnapshotFile(path, f2.grid, f2.engine.Cache()); err != nil {
		t.Fatalf("LoadSnapshotFile: %v", err)
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
		n, err := cache.LoadSnapshotFile(bad, f2.grid, f2.engine.Cache())
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
	n, err := cache.LoadSnapshotFile(path, f2.grid, f2.engine.Cache())
	if !errors.Is(err, cache.ErrSnapshot) {
		t.Fatalf("torn tail: err = %v, want ErrSnapshot", err)
	}
	if n != saved-1 || f2.engine.Cache().Len() != saved-1 {
		t.Fatalf("torn tail admitted %d (cache holds %d), want the %d complete records",
			n, f2.engine.Cache().Len(), saved-1)
	}
}

// appendRecord appends a CRC-valid snapshot record for key (gb, num)
// carrying data as a backend chunk, in the snapshot log's record framing.
func appendRecord(dst []byte, gb, num int32, data *chunk.Chunk) []byte {
	body := binary.LittleEndian.AppendUint32(nil, uint32(gb))
	body = binary.LittleEndian.AppendUint32(body, uint32(num))
	body = append(body, byte(cache.ClassBackend), 0)
	body = binary.LittleEndian.AppendUint64(body, math.Float64bits(1))
	body = chunk.AppendPayload(body, data)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(body)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(body))
	return append(dst, body...)
}

// TestLoadCacheOutOfGridRecordKeepsPrefix: a record whose CRC holds but
// whose key names no chunk of the grid is corrupt like a torn tail: the
// records before it are admitted and the error wraps ErrSnapshot, so the
// daemon restarts partially warm instead of refusing to boot.
func TestLoadCacheOutOfGridRecordKeepsPrefix(t *testing.T) {
	f := build(t, "VCMC", cache.NewTwoLevel(), 1<<20)
	path, saved := saveSnapshot(t, f)
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	lat := f.grid.Lattice()
	data := &chunk.Chunk{Keys: []uint64{0}, Vals: []float64{1}}
	for name, key := range map[string][2]int32{
		"chunk past its group-by":      {int32(lat.Base()), int32(f.grid.NumChunks(lat.Base()))},
		"group-by outside the lattice": {int32(lat.NumNodes()), 0},
		"negative chunk number":        {int32(lat.Top()), -1},
	} {
		bad := filepath.Join(t.TempDir(), "bad.snap")
		if err := os.WriteFile(bad, appendRecord(bytes.Clone(valid), key[0], key[1], data), 0o644); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		f2 := build(t, "VCMC", cache.NewTwoLevel(), 1<<20)
		n, err := cache.LoadSnapshotFile(bad, f2.grid, f2.engine.Cache())
		if !errors.Is(err, cache.ErrSnapshot) {
			t.Fatalf("%s: err = %v, want ErrSnapshot", name, err)
		}
		if n != saved || f2.engine.Cache().Len() != saved {
			t.Fatalf("%s: admitted %d (cache holds %d), want the %d valid records", name, n, f2.engine.Cache().Len(), saved)
		}
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
	if n, err := cache.SaveSnapshotFile(path, small.Engine.Cache(), small.Engine.Grid()); err != nil || n == 0 {
		t.Fatalf("SaveSnapshotFile = %d, %v", n, err)
	}

	medium := stackAt(apb.ScaleMedium)
	n, err := cache.LoadSnapshotFile(path, medium.Engine.Grid(), medium.Engine.Cache())
	if !errors.Is(err, cache.ErrSnapshot) || n != 0 {
		t.Fatalf("small-scale snapshot at medium scale: admitted %d, err %v; want 0 and ErrSnapshot", n, err)
	}
	if got := medium.Engine.Cache().Len(); got != 0 {
		t.Fatalf("cache holds %d chunks after a refused load", got)
	}
}
