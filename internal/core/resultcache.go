package core

import (
	"sync"

	"aggcache/internal/cache"
	"aggcache/internal/chunk"
	"aggcache/internal/lattice"
)

// resultCache is a small bounded semantic cache of whole query answers,
// sitting above the chunk cache. A canonicalized query rectangle — the
// group-by plus the normalized half-open chunk-coordinate bounds — maps to
// the assembled, untrimmed chunk set of a previous answer. A lookup is
// answered by exact match, or by containment subsumption: any cached
// same-group-by rectangle that contains the probe yields the probe's
// sub-rectangle by pure index arithmetic. Both paths skip planning,
// aggregation and the backend entirely.
//
// Entries only reference chunk payloads that were resident in the chunk
// cache when the entry was created, and every entry is invalidated the
// moment any contributing chunk is evicted (the engine tees the store's
// listener into onEvict). Chunk payloads are immutable, so this contract is
// about retention, not correctness: it keeps the result cache from holding
// byte volumes the store believes it has freed. MemberRanges do not
// participate in the key — entries store the chunk-aligned answer and the
// engine re-applies member trimming per query.
//
// Locking: mu guards everything. onEvict runs under a store shard lock, so
// no resultCache method may call into the store while holding mu (the
// engine's put-time residency re-check runs unlocked and reconciles races
// by dropping the entry).
type resultCache struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	bytes      int64
	exact      map[resultKey]*resultEntry
	byGB       map[lattice.ID]map[*resultEntry]struct{}
	deps       map[cache.Key]map[*resultEntry]struct{}
	// Intrusive LRU: newest at the head, eviction from the tail.
	newest, oldest *resultEntry

	invalidated int64 // entries dropped by contributing-chunk eviction
	evicted     int64 // entries dropped by the LRU bound
}

// resultKey canonicalizes a normalized query rectangle.
type resultKey struct {
	gb   lattice.ID
	rect string
}

func packRect(lo, hi []int32) string {
	b := make([]byte, 0, len(lo)*8)
	for i := range lo {
		b = append(b,
			byte(lo[i]), byte(lo[i]>>8), byte(lo[i]>>16), byte(lo[i]>>24),
			byte(hi[i]), byte(hi[i]>>8), byte(hi[i]>>16), byte(hi[i]>>24))
	}
	return string(b)
}

// resultEntry is one cached answer: the rectangle, its chunks in the
// engine's enumeration order (row-major, last dimension fastest), and the
// chunk keys the entry depends on.
type resultEntry struct {
	key     resultKey
	lo, hi  []int32
	chunks  []*chunk.Chunk
	keys    []cache.Key
	benefit float64
	bytes   int64

	newer, older *resultEntry
}

// resultCacheStats is a snapshot of the result cache's occupancy and drop
// counters. Its hits are the engine's ResultCacheHits.
type resultCacheStats struct {
	Entries     int
	Bytes       int64
	Invalidated int64
	Evicted     int64
}

func newResultCache(maxEntries int, maxBytes int64) *resultCache {
	if maxBytes <= 0 {
		maxBytes = 1 << 20
	}
	return &resultCache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		exact:      make(map[resultKey]*resultEntry),
		byGB:       make(map[lattice.ID]map[*resultEntry]struct{}),
		deps:       make(map[cache.Key]map[*resultEntry]struct{}),
	}
}

// get answers the normalized query rectangle from the cache, trying the
// exact key first and containment subsumption second. It returns copies of
// the chunk and key slices (the entry may be invalidated concurrently after
// mu is released) plus the entry's reinforcement benefit.
func (rc *resultCache) get(nq Query) (chunks []*chunk.Chunk, keys []cache.Key, benefit float64, ok bool) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if e, found := rc.exact[resultKey{gb: nq.GB, rect: packRect(nq.Lo, nq.Hi)}]; found {
		rc.touch(e)
		return append([]*chunk.Chunk(nil), e.chunks...), append([]cache.Key(nil), e.keys...), e.benefit, true
	}
	for e := range rc.byGB[nq.GB] {
		if !contains(e.lo, e.hi, nq.Lo, nq.Hi) {
			continue
		}
		chunks, keys = e.slice(nq.Lo, nq.Hi)
		rc.touch(e)
		return chunks, keys, e.benefit, true
	}
	return nil, nil, 0, false
}

// contains reports that the [elo,ehi) rectangle contains [qlo,qhi).
func contains(elo, ehi, qlo, qhi []int32) bool {
	for d := range elo {
		if qlo[d] < elo[d] || qhi[d] > ehi[d] {
			return false
		}
	}
	return true
}

// slice extracts the sub-rectangle [qlo,qhi) from the entry's row-major
// chunk array.
func (e *resultEntry) slice(qlo, qhi []int32) ([]*chunk.Chunk, []cache.Key) {
	nd := len(e.lo)
	strides := make([]int, nd)
	s := 1
	for d := nd - 1; d >= 0; d-- {
		strides[d] = s
		s *= int(e.hi[d] - e.lo[d])
	}
	n := 1
	for d := 0; d < nd; d++ {
		n *= int(qhi[d] - qlo[d])
	}
	chunks := make([]*chunk.Chunk, 0, n)
	keys := make([]cache.Key, 0, n)
	cur := make([]int32, nd)
	copy(cur, qlo)
	for {
		off := 0
		for d := 0; d < nd; d++ {
			off += int(cur[d]-e.lo[d]) * strides[d]
		}
		chunks = append(chunks, e.chunks[off])
		keys = append(keys, e.keys[off])
		d := nd - 1
		for d >= 0 {
			cur[d]++
			if cur[d] < qhi[d] {
				break
			}
			cur[d] = qlo[d]
			d--
		}
		if d < 0 {
			return chunks, keys
		}
	}
}

// put registers one answered rectangle. chunks and keys must be in
// enumeration order and are retained; callers pass freshly built slices.
// The caller must re-verify, after put returns, that every key is still
// resident in the chunk store and call drop on failure — put itself cannot
// consult the store (lock order: shard lock before rc.mu).
func (rc *resultCache) put(nq Query, chunks []*chunk.Chunk, keys []cache.Key, benefit float64) *resultEntry {
	var bytes int64
	for _, c := range chunks {
		bytes += c.Bytes()
	}
	if bytes > rc.maxBytes {
		return nil
	}
	e := &resultEntry{
		key:     resultKey{gb: nq.GB, rect: packRect(nq.Lo, nq.Hi)},
		lo:      append([]int32(nil), nq.Lo...),
		hi:      append([]int32(nil), nq.Hi...),
		chunks:  chunks,
		keys:    keys,
		benefit: benefit,
		bytes:   bytes,
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if old, ok := rc.exact[e.key]; ok {
		rc.remove(old)
	}
	rc.exact[e.key] = e
	gbSet := rc.byGB[nq.GB]
	if gbSet == nil {
		gbSet = make(map[*resultEntry]struct{})
		rc.byGB[nq.GB] = gbSet
	}
	gbSet[e] = struct{}{}
	for _, k := range e.keys {
		depSet := rc.deps[k]
		if depSet == nil {
			depSet = make(map[*resultEntry]struct{})
			rc.deps[k] = depSet
		}
		depSet[e] = struct{}{}
	}
	e.newer = nil
	e.older = rc.newest
	if rc.newest != nil {
		rc.newest.newer = e
	}
	rc.newest = e
	if rc.oldest == nil {
		rc.oldest = e
	}
	rc.bytes += bytes
	for (len(rc.exact) > rc.maxEntries || rc.bytes > rc.maxBytes) && rc.oldest != nil && rc.oldest != e {
		rc.evicted++
		rc.remove(rc.oldest)
	}
	return e
}

// drop removes an entry registered by put (used when the put-time residency
// re-check finds a contributing chunk already gone).
func (rc *resultCache) drop(e *resultEntry) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.exact[e.key] == e {
		rc.invalidated++
		rc.remove(e)
	}
}

// onEvict invalidates every entry depending on the evicted chunk key. It is
// called from the store's listener tee, under a shard lock — map and list
// surgery only, never back into the store.
func (rc *resultCache) onEvict(k cache.Key) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	for e := range rc.deps[k] {
		rc.invalidated++
		rc.remove(e)
	}
}

// touch moves e to the LRU head. Caller holds mu.
func (rc *resultCache) touch(e *resultEntry) {
	if rc.newest == e {
		return
	}
	if e.older != nil {
		e.older.newer = e.newer
	}
	if e.newer != nil {
		e.newer.older = e.older
	}
	if rc.oldest == e {
		rc.oldest = e.newer
	}
	e.newer = nil
	e.older = rc.newest
	if rc.newest != nil {
		rc.newest.newer = e
	}
	rc.newest = e
}

// remove unlinks e from every index. Caller holds mu.
func (rc *resultCache) remove(e *resultEntry) {
	delete(rc.exact, e.key)
	if gbSet := rc.byGB[e.key.gb]; gbSet != nil {
		delete(gbSet, e)
		if len(gbSet) == 0 {
			delete(rc.byGB, e.key.gb)
		}
	}
	for _, k := range e.keys {
		if depSet := rc.deps[k]; depSet != nil {
			delete(depSet, e)
			if len(depSet) == 0 {
				delete(rc.deps, k)
			}
		}
	}
	if e.older != nil {
		e.older.newer = e.newer
	}
	if e.newer != nil {
		e.newer.older = e.older
	}
	if rc.newest == e {
		rc.newest = e.older
	}
	if rc.oldest == e {
		rc.oldest = e.newer
	}
	e.newer, e.older = nil, nil
	rc.bytes -= e.bytes
}

// snapshot returns the counters for stats reporting and tests.
func (rc *resultCache) snapshot() resultCacheStats {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return resultCacheStats{
		Entries:     len(rc.exact),
		Bytes:       rc.bytes,
		Invalidated: rc.invalidated,
		Evicted:     rc.evicted,
	}
}
