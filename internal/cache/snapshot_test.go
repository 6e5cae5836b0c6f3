package cache

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aggcache/internal/chunk"
	"aggcache/internal/chunk/chunktest"
)

// snapGrid is the grid the store snapshots are keyed over; the store tests
// never check keys against it, only the header fingerprint does.
var snapGrid = chunktest.StarGrid()

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

// populatedTiered builds a tiered store with a mixed population: backend,
// computed and recycled chunks across both tiers.
func populatedTiered(t *testing.T) Store {
	t.Helper()
	hot, err := New(4*mkChunk(0, 0, 10).Bytes(), NewTwoLevelPromote())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	tc, err := NewTiered(hot, 8192)
	if err != nil {
		t.Fatalf("NewTiered: %v", err)
	}
	opts := []InsertOption{
		AsBackend(0), AsBackend(3), AsComputed(5), AsRecycled(7),
		AsComputed(2), AsBackend(1), AsRecycled(4), AsComputed(9),
	}
	for i, opt := range opts { // over hot capacity: half demote to cold
		tc.Insert(key(i), mkChunk(0, i, 5+i), opt)
	}
	return tc
}

// TestSnapshotWriteLoadEquivalence pins the warm-restart contract: a
// snapshot written from a live tiered store reads back record-for-record
// equal to the store's contents — keys, cell counts and residency
// attributes — across both tiers.
func TestSnapshotWriteLoadEquivalence(t *testing.T) {
	src := populatedTiered(t)
	want := storeContents(src)

	var buf bytes.Buffer
	n, err := writeSnapshot(&buf, src, snapGrid)
	if err != nil {
		t.Fatalf("writeSnapshot: %v", err)
	}
	if n != len(want) || n != src.Len() {
		t.Fatalf("wrote %d records, store has %d", n, src.Len())
	}

	got := map[Key]snapAttrs{}
	if err := readSnapshot(buf.Bytes(), snapGrid, func(e SnapshotEntry) error {
		if e.Data.GB != e.Key.GB || e.Data.Num != e.Key.Num {
			t.Fatalf("record %v: chunk stamped (%d,%d)", e.Key, e.Data.GB, e.Data.Num)
		}
		got[e.Key] = snapAttrs{cells: len(e.Data.Keys), class: e.Class, benefit: e.Benefit, recycled: e.Recycled}
		return nil
	}); err != nil {
		t.Fatalf("readSnapshot: %v", err)
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
// and check the restarted store answers every key with the saved payload.
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

	hot, err := New(4*mkChunk(0, 0, 10).Bytes(), NewTwoLevelPromote())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	restarted, err := NewTiered(hot, 8192)
	if err != nil {
		t.Fatalf("NewTiered: %v", err)
	}
	if err := LoadSnapshotFile(path, snapGrid, func(e SnapshotEntry) error {
		opt := AsBackend(e.Benefit)
		if e.Recycled {
			opt = AsRecycled(e.Benefit)
		} else if e.Class == ClassComputed {
			opt = AsComputed(e.Benefit)
		}
		restarted.Insert(e.Key, e.Data, opt)
		return nil
	}); err != nil {
		t.Fatalf("LoadSnapshotFile: %v", err)
	}
	for k, w := range want {
		data, ok := restarted.Peek(k)
		if !ok {
			t.Fatalf("key %v lost across restart", k)
		}
		if len(data.Keys) != w.cells {
			t.Fatalf("key %v: %d cells after restart, want %d", k, len(data.Keys), w.cells)
		}
	}

	if err := LoadSnapshotFile(filepath.Join(t.TempDir(), "absent.snap"), snapGrid, func(SnapshotEntry) error { return nil }); !os.IsNotExist(err) {
		t.Fatalf("missing file: err = %v, want not-exist", err)
	}
}

// TestSnapshotTornTail: a process killed mid-write leaves a truncated final
// record; loading must deliver every complete record, then fail with
// ErrSnapshot — the partial-warm-restart contract.
func TestSnapshotTornTail(t *testing.T) {
	src := populatedTiered(t)
	var buf bytes.Buffer
	n, err := writeSnapshot(&buf, src, snapGrid)
	if err != nil {
		t.Fatalf("writeSnapshot: %v", err)
	}
	torn := buf.Bytes()[:buf.Len()-5]

	delivered := 0
	err = readSnapshot(torn, snapGrid, func(SnapshotEntry) error { delivered++; return nil })
	if !errors.Is(err, ErrSnapshot) {
		t.Fatalf("torn tail: err = %v, want ErrSnapshot", err)
	}
	if delivered != n-1 {
		t.Fatalf("torn tail delivered %d records, want the %d complete ones", delivered, n-1)
	}
}

// TestSnapshotCorruption: flipped bits fail the record CRC; bad magic,
// oversized lengths and another grid's fingerprint are rejected before any
// allocation.
func TestSnapshotCorruption(t *testing.T) {
	src := populatedTiered(t)
	var buf bytes.Buffer
	if _, err := writeSnapshot(&buf, src, snapGrid); err != nil {
		t.Fatalf("writeSnapshot: %v", err)
	}

	// Flip one payload byte in the middle of the file.
	bad := bytes.Clone(buf.Bytes())
	bad[len(bad)/2] ^= 0x40
	err := readSnapshot(bad, snapGrid, func(SnapshotEntry) error { return nil })
	if !errors.Is(err, ErrSnapshot) {
		t.Fatalf("bit flip: err = %v, want ErrSnapshot", err)
	}

	if err := readSnapshot([]byte("not a snapshot"), snapGrid, func(SnapshotEntry) error { return nil }); !errors.Is(err, ErrSnapshot) {
		t.Fatalf("bad magic: err = %v, want ErrSnapshot", err)
	}
	if err := readSnapshot(nil, snapGrid, func(SnapshotEntry) error { return nil }); !errors.Is(err, ErrSnapshot) {
		t.Fatalf("empty input: err = %v, want ErrSnapshot", err)
	}

	// A huge declared record length is rejected by the bound, not malloc'd.
	huge := append(bytes.Clone(buf.Bytes()[:snapHeaderLen]), 0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0)
	if err := readSnapshot(huge, snapGrid, func(SnapshotEntry) error { return nil }); !errors.Is(err, ErrSnapshot) || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized record: err = %v, want the ErrSnapshot length bound", err)
	}

	// A header fingerprint that is not the reader's grid delivers nothing.
	other := bytes.Clone(buf.Bytes())
	other[len(snapMagic)] ^= 0x01
	delivered := 0
	err = readSnapshot(other, snapGrid, func(SnapshotEntry) error { delivered++; return nil })
	if !errors.Is(err, ErrSnapshot) || delivered != 0 {
		t.Fatalf("foreign grid: err = %v after %d records, want ErrSnapshot before any", err, delivered)
	}
}

// TestSnapshotCallbackAbort: fn's error aborts the scan and surfaces
// verbatim, not wrapped as corruption.
func TestSnapshotCallbackAbort(t *testing.T) {
	src := populatedTiered(t)
	var buf bytes.Buffer
	if _, err := writeSnapshot(&buf, src, snapGrid); err != nil {
		t.Fatalf("writeSnapshot: %v", err)
	}
	sentinel := errors.New("stop here")
	err := readSnapshot(buf.Bytes(), snapGrid, func(SnapshotEntry) error { return sentinel })
	if !errors.Is(err, sentinel) || errors.Is(err, ErrSnapshot) {
		t.Fatalf("callback abort: err = %v, want the sentinel verbatim", err)
	}
}
