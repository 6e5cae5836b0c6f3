package core

import (
	"fmt"
	"sort"

	"aggcache/internal/cache"
)

// LoadCacheFile restores a snapshot written by SaveCacheFile into the
// engine's cache, re-inserting every chunk through the normal admission path
// so the lookup strategy's counts and costs are maintained. Entries are
// admitted in descending benefit order: the most valuable chunks land in the
// hot tier first, and whatever overflows a smaller-than-at-save-time cache
// demotes or is denied in benefit order rather than file order. It returns
// the number of chunks admitted. A missing file is reported as
// os.ErrNotExist.
//
// A snapshot written over a different chunk grid (another scale or schema)
// fails with a cache.ErrSnapshot-wrapped error before anything is admitted.
// A corrupt record (torn tail from a crash mid-write, flipped bit) stops the
// scan: the valid prefix is admitted and the cache.ErrSnapshot-wrapped error
// is returned alongside the count, so the caller can choose a partially warm
// cache over a cold one.
func (e *Engine) LoadCacheFile(path string) (int, error) {
	var entries []cache.SnapshotEntry
	var verr error
	err := cache.LoadSnapshotFile(path, e.grid, func(se cache.SnapshotEntry) error {
		if verr = e.validateSnapshotEntry(se); verr != nil {
			return verr
		}
		entries = append(entries, se)
		return nil
	})
	if verr != nil {
		return 0, verr
	}
	n := e.admitSnapshotEntries(entries)
	if err != nil {
		return n, fmt.Errorf("core: load cache: %w", err)
	}
	return n, nil
}

// validateSnapshotEntry rejects records whose key lies outside this engine's
// grid; with the grid fingerprint matching, only a corrupt record can.
func (e *Engine) validateSnapshotEntry(se cache.SnapshotEntry) error {
	lat := e.grid.Lattice()
	if int(se.Key.GB) < 0 || int(se.Key.GB) >= lat.NumNodes() {
		return fmt.Errorf("core: snapshot entry %v outside the lattice", se.Key)
	}
	if se.Data == nil || int(se.Key.Num) < 0 || int(se.Key.Num) >= e.grid.NumChunks(se.Key.GB) {
		return fmt.Errorf("core: snapshot entry %v is corrupt", se.Key)
	}
	return nil
}

// admitSnapshotEntries reinserts entries in descending benefit order and
// returns how many the store admitted.
func (e *Engine) admitSnapshotEntries(entries []cache.SnapshotEntry) int {
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].Benefit > entries[j].Benefit })
	admitted := 0
	for _, se := range entries {
		var opt cache.InsertOption
		switch {
		case se.Recycled:
			opt = cache.AsRecycled(se.Benefit)
		case se.Class == cache.ClassComputed:
			opt = cache.AsComputed(se.Benefit)
		default:
			opt = cache.AsBackend(se.Benefit)
		}
		if e.cache.Insert(se.Key, se.Data, opt) {
			admitted++
		}
	}
	return admitted
}

// SaveCacheFile writes the cache contents (chunk payloads, classes,
// benefits, recycled marks) to path in the cache package's snapshot-log
// format, atomically (temp file + rename), and returns the number of records
// written. A crash mid-save leaves any previous snapshot at path intact.
// Replacement state (clock weights, ring membership) is not preserved;
// reloaded chunks start fresh.
func (e *Engine) SaveCacheFile(path string) (int, error) {
	n, err := cache.SaveSnapshotFile(path, e.cache, e.grid)
	if err != nil {
		return n, fmt.Errorf("core: save cache: %w", err)
	}
	return n, nil
}
