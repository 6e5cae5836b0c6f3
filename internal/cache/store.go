package cache

import (
	"fmt"
	"math/bits"
	"runtime"

	"aggcache/internal/chunk"
	"aggcache/internal/obs"
)

// Store is the chunk-cache contract the rest of the system programs against:
// the surface the engine, the lookup strategies, snapshots and the peer
// protocol call. There is one local implementation, [Sharded], with an
// optional compressed cold tier ([NewTiered]); [Peered] is the one decorator,
// adding a peer ring.
//
// Locking contract: implementations synchronize internally; callers never
// wrap Store calls in an external lock. Listener and Policy callbacks fire
// synchronously while the store has the internal lock covering the affected
// key, so they must be fast and must not call back into the same Store (that
// would self-deadlock). Chunk payloads (*chunk.Chunk) are immutable, so a
// payload pointer returned by Get/GetInfo/Range may be read after the
// call returns; pin the key first if the payload must stay resident while you
// use it.
type Store interface {
	// Get returns the chunk payload for k, updating replacement state and
	// hit/miss counters.
	Get(k Key) (*chunk.Chunk, bool)
	// GetInfo is Get plus the class and benefit k is resident under. The
	// peer protocol answers PeerGet from it so a fill carries the owner's
	// replacement attributes across the wire; serving a peer counts as an
	// access — a chunk the group keeps asking for should stay resident on
	// its owner.
	GetInfo(k Key) (*chunk.Chunk, Class, float64, bool)
	// Insert makes data resident under k, evicting per the policy as needed,
	// and reports whether the chunk was admitted. The options select the
	// residency variant (backend-class with zero benefit by default); see
	// InsertOption, and Sharded.Insert for the replacement semantics.
	Insert(k Key, data *chunk.Chunk, opts ...InsertOption) bool
	// Pin marks k in use so the policy will not evict it; it must be
	// balanced by Unpin. Pinning a non-resident key returns false.
	Pin(k Key) bool
	// Unpin releases one pin on k.
	Unpin(k Key)
	// Reinforce bumps the replacement weight of every listed resident chunk
	// by benefit (two-level policy group maintenance, §6.3).
	Reinforce(keys []Key, benefit float64)
	// Range calls fn for every resident entry (order unspecified) with its
	// residency attributes. fn runs under the store's internal lock(s) and
	// must not call back into the store.
	Range(fn func(k Key, data *chunk.Chunk, cl Class, benefit float64, recycled bool))
	// Stats returns the activity counters, each exact when read.
	Stats() Stats
	// Capacity returns the byte bound.
	Capacity() int64
	// Used returns the bytes currently charged.
	Used() int64
	// Len returns the number of resident chunks.
	Len() int
	// SetListener registers the strategy callback; pass nil to clear. Call
	// it before the store serves traffic.
	SetListener(l Listener)
}

// insertSpec is the resolved residency of one Insert call.
type insertSpec struct {
	class    Class
	benefit  float64
	recycled bool
}

// InsertOption selects the residency variant of one Insert. The options fold
// the variants into one method, so a composed store (Peered over Sharded)
// inspects a single spec instead of mirroring one signature each.
type InsertOption func(*insertSpec)

// applyInsertOptions resolves opts over the default spec: a backend-class
// resident with zero benefit.
func applyInsertOptions(opts []InsertOption) insertSpec {
	var s insertSpec
	for _, o := range opts {
		o(&s)
	}
	return s
}

// AsBackend marks the chunk as fetched from the backend database with the
// given recomputation benefit. This is the default class; the option exists
// to carry the benefit.
func AsBackend(benefit float64) InsertOption {
	return func(s *insertSpec) { s.class, s.benefit, s.recycled = ClassBackend, benefit, false }
}

// AsComputed marks the chunk as aggregated from cached chunks; the two-level
// policy keeps such entries replaceable ahead of backend ones (§6.3).
func AsComputed(benefit float64) InsertOption {
	return func(s *insertSpec) { s.class, s.benefit, s.recycled = ClassComputed, benefit, false }
}

// AsRecycled admits a speculative intermediate aggregate as a computed-class
// resident whose Entry carries the Recycled mark, so listener strategies
// apply presence-only (O(1)) maintenance instead of full count/cost
// propagation.
func AsRecycled(benefit float64) InsertOption {
	return func(s *insertSpec) { s.class, s.benefit, s.recycled = ClassComputed, benefit, true }
}

// MaxShards bounds the stripe count; 64 keeps Reinforce's stripe grouping a
// single uint64 bitmask and is far beyond the core counts this tier runs on.
const MaxShards = 64

// config collects New's options.
type config struct {
	shards  int // stripes requested; <= 0 = auto (GOMAXPROCS)
	metrics obs.CacheMetrics
}

// Option configures New. Options are applied in order; later options win.
type Option func(*config)

// WithShards sets the stripe count: n is rounded up to a power of two and
// capped at MaxShards. n = 1 (the default) is one stripe — one map, one
// policy instance, one lock, the paper's single bounded cache. n = 0 means
// "auto": GOMAXPROCS rounded up to a power of two.
func WithShards(n int) Option {
	return func(c *config) { c.shards = n }
}

// WithMetrics makes the store count into m — a bundle registered with
// obs.NewCacheMetrics, so /metrics exports what Stats reports. Without it
// the store counts into an unregistered bundle of its own.
func WithMetrics(m obs.CacheMetrics) Option {
	return func(c *config) { c.metrics = m }
}

// New creates the local chunk store, a *Sharded bounded to capacity bytes
// under the given replacement policy: one stripe by default, WithShards for
// more. NewTiered adds a cold tier to it.
func New(capacity int64, policy Policy, opts ...Option) (*Sharded, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("cache: capacity must be positive, got %d", capacity)
	}
	if policy == nil {
		return nil, fmt.Errorf("cache: policy must not be nil")
	}
	cfg := config{shards: 1, metrics: obs.NewCacheMetrics(nil)}
	for _, o := range opts {
		o(&cfg)
	}
	n := cfg.shards
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	n = min(1<<bits.Len(uint(n-1)), MaxShards) // round up to a power of two
	return newSharded(capacity, n, policy, cfg.metrics)
}
