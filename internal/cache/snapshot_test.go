package cache

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"aggcache/internal/chunk"
	"aggcache/internal/chunk/chunktest"
	"aggcache/internal/lattice"
)

// snapGrid is the grid the store snapshots are keyed over; a load admits
// only keys that name one of its chunks.
var snapGrid = chunktest.StarGrid()

// snapKey is the i-th base chunk of snapGrid.
func snapKey(i int) Key { return Key{GB: snapGrid.Lattice().Base(), Num: int32(i)} }

// snapAttrs is the per-key view the equivalence tests compare.
type snapAttrs struct {
	cells    int
	class    Class
	benefit  float64
	recycled bool
}

// storeContents collects a store's full residency picture via Range.
func storeContents(s Store) map[Key]snapAttrs {
	out := map[Key]snapAttrs{}
	s.Range(func(k Key, data *chunk.Chunk, cl Class, benefit float64, recycled bool) {
		out[k] = snapAttrs{cells: len(data.Keys), class: cl, benefit: benefit, recycled: recycled}
	})
	return out
}

// newSnapStore builds the tiered store the snapshot tests save and load.
func newSnapStore(t *testing.T) Store {
	t.Helper()
	hot, err := New(4*mkChunk(0, 0, 10).Bytes(), NewTwoLevelPromote())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	tc, err := NewTiered(hot, 8192)
	if err != nil {
		t.Fatalf("NewTiered: %v", err)
	}
	return tc
}

// populatedTiered builds a tiered store with a mixed population: backend,
// computed and recycled chunks across both tiers.
func populatedTiered(t *testing.T) Store {
	t.Helper()
	tc := newSnapStore(t)
	opts := []InsertOption{
		AsBackend(0), AsBackend(3), AsComputed(5), AsRecycled(7),
		AsComputed(2), AsBackend(1), AsRecycled(4), AsComputed(9),
	}
	for i, opt := range opts { // over hot capacity: half demote to cold
		tc.Insert(snapKey(i), mkChunk(0, i, 5+i), opt)
	}
	return tc
}

// writeLog is writeSnapshot into memory.
func writeLog(t *testing.T, s Store) ([]byte, int) {
	t.Helper()
	var buf bytes.Buffer
	n, err := writeSnapshot(&buf, s, snapGrid)
	if err != nil {
		t.Fatalf("writeSnapshot: %v", err)
	}
	return buf.Bytes(), n
}

// TestSnapshotWriteLoadEquivalence pins the warm-restart contract: a
// snapshot written from a live tiered store reads back record-for-record
// equal to the store's contents — keys, cell counts and residency
// attributes — across both tiers.
func TestSnapshotWriteLoadEquivalence(t *testing.T) {
	src := populatedTiered(t)
	want := storeContents(src)
	log, n := writeLog(t, src)
	if n != len(want) || n != src.Len() {
		t.Fatalf("wrote %d records, store has %d", n, src.Len())
	}

	recs, err := readSnapshot(log, snapGrid)
	if err != nil {
		t.Fatalf("readSnapshot: %v", err)
	}
	got := map[Key]snapAttrs{}
	for _, r := range recs {
		if r.data.GB != r.key.GB || r.data.Num != r.key.Num {
			t.Fatalf("record %v: chunk stamped (%d,%d)", r.key, r.data.GB, r.data.Num)
		}
		got[r.key] = snapAttrs{cells: len(r.data.Keys), class: r.class, benefit: r.benefit, recycled: r.recycled}
	}
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	for k, w := range want {
		if got[k] != w {
			t.Fatalf("key %v: loaded %+v, want %+v", k, got[k], w)
		}
	}
}

// TestSnapshotFileKillLoad simulates the daemon's kill/restart: save to disk,
// discard the process state, load into a fresh identically-configured store
// and check the restarted store holds every key with the saved payload,
// class, benefit and recycled mark.
func TestSnapshotFileKillLoad(t *testing.T) {
	src := populatedTiered(t)
	want := storeContents(src)
	path := filepath.Join(t.TempDir(), "cache.snap")

	n, err := SaveSnapshotFile(path, src, snapGrid)
	if err != nil {
		t.Fatalf("SaveSnapshotFile: %v", err)
	}
	if n != len(want) {
		t.Fatalf("saved %d records, want %d", n, len(want))
	}

	restarted := newSnapStore(t)
	admitted, err := LoadSnapshotFile(path, snapGrid, restarted)
	if err != nil {
		t.Fatalf("LoadSnapshotFile: %v", err)
	}
	if admitted != len(want) {
		t.Fatalf("admitted %d, want %d", admitted, len(want))
	}
	got := storeContents(restarted)
	for k, w := range want {
		if got[k] != w {
			t.Fatalf("key %v after restart: %+v, want %+v", k, got[k], w)
		}
	}

	if _, err := LoadSnapshotFile(filepath.Join(t.TempDir(), "absent.snap"), snapGrid, restarted); !os.IsNotExist(err) {
		t.Fatalf("missing file: err = %v, want not-exist", err)
	}
}

// insertLog is a Store that records the benefit of every Insert it passes
// on, in call order.
type insertLog struct {
	Store
	benefits []float64
}

func (l *insertLog) Insert(k Key, data *chunk.Chunk, opts ...InsertOption) bool {
	l.benefits = append(l.benefits, applyInsertOptions(opts).benefit)
	return l.Store.Insert(k, data, opts...)
}

// TestSnapshotLoadInsertsByBenefit: the load admits records most valuable
// first, whatever their order in the file, so a store smaller than the one
// saved fills benefit-first.
func TestSnapshotLoadInsertsByBenefit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.snap")
	if _, err := SaveSnapshotFile(path, populatedTiered(t), snapGrid); err != nil {
		t.Fatalf("SaveSnapshotFile: %v", err)
	}
	dst := &insertLog{Store: newSnapStore(t)}
	if _, err := LoadSnapshotFile(path, snapGrid, dst); err != nil {
		t.Fatalf("LoadSnapshotFile: %v", err)
	}
	want := []float64{9, 7, 5, 4, 3, 2, 1, 0}
	if !slices.Equal(dst.benefits, want) {
		t.Fatalf("insert order by benefit %v, want %v", dst.benefits, want)
	}
}

// TestSnapshotTornTail: a process killed mid-write leaves a truncated final
// record; reading must return every complete record, then fail with
// ErrSnapshot — the partial-warm-restart contract.
func TestSnapshotTornTail(t *testing.T) {
	log, n := writeLog(t, populatedTiered(t))
	recs, err := readSnapshot(log[:len(log)-5], snapGrid)
	if !errors.Is(err, ErrSnapshot) {
		t.Fatalf("torn tail: err = %v, want ErrSnapshot", err)
	}
	if len(recs) != n-1 {
		t.Fatalf("torn tail read %d records, want the %d complete ones", len(recs), n-1)
	}
}

// TestSnapshotCorruption: flipped bits fail the record CRC; bad magic,
// oversized lengths and another grid's fingerprint are rejected before any
// allocation; a CRC-valid record naming a chunk outside the grid stops the
// scan like a torn one.
func TestSnapshotCorruption(t *testing.T) {
	log, n := writeLog(t, populatedTiered(t))

	// Flip one payload byte in the middle of the file.
	bad := bytes.Clone(log)
	bad[len(bad)/2] ^= 0x40
	if _, err := readSnapshot(bad, snapGrid); !errors.Is(err, ErrSnapshot) {
		t.Fatalf("bit flip: err = %v, want ErrSnapshot", err)
	}

	if _, err := readSnapshot([]byte("not a snapshot"), snapGrid); !errors.Is(err, ErrSnapshot) {
		t.Fatalf("bad magic: err = %v, want ErrSnapshot", err)
	}
	if _, err := readSnapshot(nil, snapGrid); !errors.Is(err, ErrSnapshot) {
		t.Fatalf("empty input: err = %v, want ErrSnapshot", err)
	}

	// A huge declared record length is rejected by the bound, not malloc'd.
	huge := append(bytes.Clone(log[:snapHeaderLen]), 0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0)
	if _, err := readSnapshot(huge, snapGrid); !errors.Is(err, ErrSnapshot) || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized record: err = %v, want the ErrSnapshot length bound", err)
	}

	// A header fingerprint that is not the reader's grid reads nothing.
	other := bytes.Clone(log)
	other[len(snapMagic)] ^= 0x01
	if recs, err := readSnapshot(other, snapGrid); !errors.Is(err, ErrSnapshot) || len(recs) != 0 {
		t.Fatalf("foreign grid: err = %v after %d records, want ErrSnapshot before any", err, len(recs))
	}

	// A key outside the grid stops the scan; the records after it are not
	// read.
	lat := snapGrid.Lattice()
	data := mkChunk(0, 0, 3)
	for _, k := range []Key{
		{GB: lat.Base(), Num: int32(snapGrid.NumChunks(lat.Base()))},
		{GB: lattice.ID(lat.NumNodes()), Num: 0},
		{GB: -1, Num: 0},
	} {
		stray := appendSnapshotRecord(bytes.Clone(log), snapRecord{key: k, data: data})
		stray = appendSnapshotRecord(stray, snapRecord{key: snapKey(9), data: data})
		recs, err := readSnapshot(stray, snapGrid)
		if !errors.Is(err, ErrSnapshot) || !strings.Contains(err.Error(), "outside the chunk grid") {
			t.Fatalf("key %v: err = %v, want the ErrSnapshot grid check", k, err)
		}
		if len(recs) != n {
			t.Fatalf("key %v: read %d records, want the %d before it", k, len(recs), n)
		}
	}
}
