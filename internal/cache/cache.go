// Package cache implements the middle tier's chunk cache (§2, §6 of the
// paper): bounded-size storage of chunk payloads keyed by (group-by, chunk
// number), with pluggable replacement policies — a benefit-weighted CLOCK
// (the [DRSN98] baseline) and the paper's "two-level" policy that protects
// backend-fetched chunks and reinforces groups of aggregatable chunks.
package cache

import (
	"fmt"

	"aggcache/internal/chunk"
	"aggcache/internal/lattice"
)

// Key identifies a chunk of a group-by.
type Key struct {
	GB  lattice.ID
	Num int32
}

// String formats the key for diagnostics.
func (k Key) String() string { return fmt.Sprintf("%d/%d", k.GB, k.Num) }

// Class distinguishes how a cached chunk was obtained; the two-level policy
// gives backend chunks priority (§6.3).
type Class uint8

const (
	// ClassBackend marks chunks computed at the backend database.
	ClassBackend Class = iota
	// ClassComputed marks chunks computed by aggregating cached chunks.
	ClassComputed
)

// String implements fmt.Stringer.
func (c Class) String() string {
	if c == ClassBackend {
		return "backend"
	}
	return "computed"
}

// Entry is one resident chunk. Entries are owned by the cache; callers must
// not retain them across cache operations (retain Entry.Data instead).
type Entry struct {
	Key     Key
	Data    *chunk.Chunk
	Class   Class
	Benefit float64 // recomputation cost in cost units; drives replacement
	// Recycled marks a speculatively admitted intermediate aggregate
	// (AsRecycled). Strategies give such entries lightweight,
	// presence-only maintenance: they serve lookups as resident chunks but
	// stay out of the count/cost bookkeeping, so admitting and evicting
	// them is O(1) instead of a lattice propagation.
	Recycled bool

	clock      float64
	pins       int
	next, prev *Entry // intrusive ring, owned by the policy
	ringID     int8   // which policy ring has the entry
}

// Bytes returns the entry's charged footprint.
func (e *Entry) Bytes() int64 { return e.Data.Bytes() }

// Pinned reports whether the entry is pinned (in use by an in-flight
// aggregation) and therefore not evictable.
func (e *Entry) Pinned() bool { return e.pins > 0 }

// EventReason classifies a residency transition reported to the Listener.
// The distinction the reasons exist for: after Demoted the chunk is STILL
// ANSWERABLE from the store (it moved to the cold tier), so derived state —
// strategy presence bits and virtual counts — must be kept; after Evicted it
// is gone and that state must be torn down.
type EventReason uint8

const (
	// Evicted: a policy-driven victim removal; the chunk left the store
	// entirely (with a cold tier: it fell out of the cold tier, or the cold
	// tier refused the demotion).
	Evicted EventReason = iota
	// Demoted: the hot tier's victim was re-admitted to a colder tier in
	// compressed form. The chunk remains answerable through the store.
	Demoted
)

// String implements fmt.Stringer.
func (r EventReason) String() string {
	switch r {
	case Evicted:
		return "evicted"
	case Demoted:
		return "demoted"
	}
	return fmt.Sprintf("reason(%d)", uint8(r))
}

// Event is one residency transition. Entry is valid only for the duration of
// the callback (the store owns it); Key is always usable afterwards.
type Event struct {
	Key    Key
	Reason EventReason
	Entry  *Entry
}

// Answerable reports whether the chunk can still be served by the store
// after this event — the predicate strategies branch on.
func (ev Event) Answerable() bool { return ev.Reason == Demoted }

// Listener observes insertions and residency events; the lookup strategies
// register one to maintain virtual counts and costs.
type Listener interface {
	// OnInsert is called after a chunk with no prior residency becomes
	// resident. A demotion does not fire it — it arrives as OnEvent with
	// Reason Demoted.
	OnInsert(e *Entry)
	// OnEvent is called after a residency transition; see EventReason for
	// which reasons leave the chunk answerable.
	OnEvent(ev Event)
}

// Policy decides replacement order. Implementations own the entries'
// intrusive list fields.
type Policy interface {
	// Name identifies the policy in experiment reports.
	Name() string
	// Added is called when an entry becomes resident.
	Added(e *Entry)
	// Removed is called when an entry leaves the cache.
	Removed(e *Entry)
	// Accessed is called on a cache hit.
	Accessed(e *Entry)
	// Reinforced is called when the entry participated in computing an
	// aggregate with the given benefit (two-level policy, §6.3).
	Reinforced(e *Entry, benefit float64)
	// NextVictim returns the next unpinned entry to evict to make room for
	// an incoming entry of class cl, or nil to deny admission.
	NextVictim(cl Class) *Entry
	// Fork returns a new empty policy of the same kind and configuration. A
	// store needs one policy instance per stripe: policies are stateful and
	// synchronized by their stripe's lock.
	Fork() Policy
}

// Stats counts cache activity. Evictions counts policy-driven victim
// removals, the replacement traffic Figures 7/8 report.
type Stats struct {
	Hits, Misses       int64
	Inserts, Evictions int64
	Denied             int64 // admissions denied by the policy
}
