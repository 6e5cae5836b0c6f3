package cache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"aggcache/internal/backend"
	"aggcache/internal/chunk"
	"aggcache/internal/obs"
)

// Peer is one remote cache node the Peered store can consult: a thin
// chunk-granularity lookup over the peer wire protocol (the mtier package
// provides the TCP implementation; tests substitute in-process ones).
// Implementations must be safe for concurrent use and must honor the
// context's deadline — a Peered store never waits on a peer longer than its
// configured timeouts.
type Peer interface {
	// Get asks the peer for k. found=false with a nil error is an
	// authoritative miss (the peer answered; it does not hold the chunk).
	Get(ctx context.Context, k Key) (data *chunk.Chunk, cl Class, benefit float64, found bool, err error)
	// Put is never called: the peer tier fills, it does not replicate.
	//
	// Deprecated: kept only so existing Peer decorators still compile; it
	// goes with them.
	Put(ctx context.Context, k Key, data *chunk.Chunk, cl Class, benefit float64) error
	// Close releases the peer's connection.
	Close() error
}

// PeerDialer produces the Peer handle for a member address. Dialing must be
// lazy or non-blocking: the Peered store calls it at construction and on
// membership rebuild, before peers are necessarily reachable.
type PeerDialer func(addr string) Peer

// PeeredConfig configures NewPeered.
type PeeredConfig struct {
	// Self is this node's own address as it appears in Members; NewPeered
	// and Rebuild refuse a membership that leaves a non-empty Self out. Keys
	// the ring assigns to Self are served locally (miss → backend). Empty
	// means this process is not a cluster member (e.g. olapcli routing into
	// an aggcached group): every owner is remote.
	Self string
	// Members is the full static cluster membership, including a non-empty
	// Self. Order does not matter — ring ownership is name-determined, so
	// every member (and every client) agrees.
	Members []string
	// Dial produces peer handles; required when Members names anyone but
	// Self.
	Dial PeerDialer
	// GetTimeout bounds one peer-fill exchange (default 250ms): past it the
	// fill degrades to the backend path rather than stalling the query.
	GetTimeout time.Duration
	// BreakerThreshold is the run of consecutive outage-class failures that
	// opens one peer's circuit (default 5).
	BreakerThreshold int
	// BreakerCooldown is how long an open peer circuit rejects traffic
	// before the next probe (default 2s).
	BreakerCooldown time.Duration
	// Metrics, when set, supplies the per-peer observability bundle for
	// each member address.
	Metrics func(peer string) obs.PeerMetrics
}

func (c PeeredConfig) withDefaults() PeeredConfig {
	if c.GetTimeout <= 0 {
		c.GetTimeout = 250 * time.Millisecond
	}
	return c
}

// PeerStats counts the cluster tier's activity, aggregated over all peers.
type PeerStats struct {
	// Fills counts chunks obtained from a peer (peer-fill hits).
	Fills int64
	// FillMisses counts peer exchanges that answered authoritatively
	// without the chunk.
	FillMisses int64
	// FillErrors counts failed peer exchanges (timeout, connection, or
	// protocol failure).
	FillErrors int64
	// FillSkips counts fills suppressed by an open per-peer circuit.
	FillSkips int64
	// Puts is always 0: the peer tier does not replicate.
	//
	// Deprecated: kept only for existing readers; it goes with them.
	Puts int64
	// PutDrops is always 0.
	//
	// Deprecated: kept only for existing readers; it goes with them.
	PutDrops int64
}

// peerState is one remote member: its connection handle plus its circuit
// (backend.Circuit, the backend breaker's state machine and taxonomy). A
// dead peer therefore costs the steady state nothing — keys it owns degrade
// to local+backend — while a shedding peer's Busy reply or a caller's own
// cancellation never opens it.
type peerState struct {
	peer    Peer
	met     obs.PeerMetrics
	circuit *backend.Circuit
}

// Peered is a Store composing a local store (this node's tiers — a Sharded,
// with or without a cold tier) with a consistent-hash ring of remote peers (the
// cluster tier):
//
//   - PeerFill asks a key's ring owner for a chunk the local tier lacks,
//     before the caller falls through to the backend. The engine calls it
//     only for the chunks whose fetch its flight group leads, so concurrent
//     fills of one key are already one exchange.
//   - A per-peer circuit (backend.Circuit) degrades a dead peer to
//     local+backend service without blocking.
//
// Nothing is pushed to peers: each node caches what its own clients fetch,
// and an owner serves a key only if its own traffic made it resident.
// Everything else, Insert included, is the embedded local store's own
// method, so snapshots, strategies and reports see exactly the local tier.
// That includes Get and GetInfo, the PeerGet answer path: answering one
// peer's lookup from another peer would let a chunk resident nowhere bounce
// around the ring.
type Peered struct {
	local
	cfg PeeredConfig

	ring atomic.Pointer[Ring]

	mu    sync.Mutex // guards peers (membership rebuilds)
	peers map[string]*peerState

	closed atomic.Bool

	fills      atomic.Int64
	fillMisses atomic.Int64
	fillErrors atomic.Int64
	fillSkips  atomic.Int64
}

// local names Peered's embedded field.
type local = Store

// NewPeered wraps local with the cluster tier described by cfg.
func NewPeered(local Store, cfg PeeredConfig) (*Peered, error) {
	if local == nil {
		return nil, errors.New("cache: peered: local store is required")
	}
	cfg = cfg.withDefaults()
	p := &Peered{
		local: local,
		cfg:   cfg,
		peers: make(map[string]*peerState),
	}
	if err := p.Rebuild(cfg.Members); err != nil {
		return nil, err
	}
	return p, nil
}

// Local returns the local store. Peer-serving endpoints answer from it so a
// chunk resident nowhere can never bounce between peers.
func (p *Peered) Local() Store { return p.local }

// Ring returns the current ring (for diagnostics and tests).
func (p *Peered) Ring() *Ring { return p.ring.Load() }

// Self returns the configured own-address.
func (p *Peered) Self() string { return p.cfg.Self }

// PeerStats returns the cluster tier's aggregate activity counters.
func (p *Peered) PeerStats() PeerStats {
	return PeerStats{
		Fills:      p.fills.Load(),
		FillMisses: p.fillMisses.Load(),
		FillErrors: p.fillErrors.Load(),
		FillSkips:  p.fillSkips.Load(),
	}
}

// Rebuild replaces the ring membership: the new ring is swapped in
// atomically, peers leaving the membership are closed, and new members get
// lazily-dialed handles. Safe to call while traffic is in flight — fills
// route by whichever ring they load first, which is exactly the transient a
// static-membership reload (SIGHUP) implies. A membership that leaves out a
// non-empty Self is refused and the current ring stays: the node would
// treat its own address as a remote peer and fill its own keys over the
// wire.
func (p *Peered) Rebuild(members []string) error {
	ring := NewRing(members, DefaultVnodes)
	hasSelf := p.cfg.Self == ""
	remote := make([]string, 0, ring.Size())
	for _, m := range ring.Members() {
		if m == p.cfg.Self {
			hasSelf = true
		} else {
			remote = append(remote, m)
		}
	}
	if !hasSelf {
		return fmt.Errorf("cache: peered: self %q is not among the members %v", p.cfg.Self, ring.Members())
	}
	if len(remote) > 0 && p.cfg.Dial == nil {
		return fmt.Errorf("cache: peered: %d remote member(s) but no dialer", len(remote))
	}
	keep := make(map[string]bool, len(remote))
	for _, m := range remote {
		keep[m] = true
	}
	p.mu.Lock()
	var stale []*peerState
	for name, st := range p.peers {
		if !keep[name] {
			stale = append(stale, st)
			delete(p.peers, name)
		}
	}
	for _, m := range remote {
		if _, ok := p.peers[m]; ok {
			continue
		}
		st := &peerState{peer: p.cfg.Dial(m)}
		if p.cfg.Metrics != nil {
			st.met = p.cfg.Metrics(m)
		}
		st.circuit = backend.NewCircuit(backend.BreakerConfig{FailureThreshold: p.cfg.BreakerThreshold, Cooldown: p.cfg.BreakerCooldown},
			obs.BreakerMetrics{State: st.met.BreakerState})
		p.peers[m] = st
	}
	p.mu.Unlock()
	p.ring.Store(ring)
	for _, st := range stale {
		st.peer.Close()
	}
	return nil
}

// peer returns the state for a member name, nil for self/unknown members.
func (p *Peered) peer(name string) *peerState {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.peers[name]
}

// Close closes every peer connection and stops further fills. The local
// store is left untouched (the caller owns it).
func (p *Peered) Close() error {
	if p.closed.Swap(true) {
		return nil
	}
	p.mu.Lock()
	peers := make([]*peerState, 0, len(p.peers))
	for _, st := range p.peers {
		peers = append(peers, st)
	}
	p.peers = make(map[string]*peerState)
	p.mu.Unlock()
	for _, st := range peers {
		st.peer.Close()
	}
	return nil
}

// PeerFill asks the key's ring owner for a chunk the local tier does not
// hold, inserting it locally on success. It is the engine's pre-backend
// hook: false means the caller should fall through to the backend. A dead
// or circuit-open owner returns false immediately.
func (p *Peered) PeerFill(ctx context.Context, k Key) (*chunk.Chunk, bool) {
	if p.closed.Load() {
		return nil, false
	}
	owner := p.ring.Load().Owner(k)
	if owner == "" || owner == p.cfg.Self {
		return nil, false
	}
	st := p.peer(owner)
	if st == nil {
		return nil, false
	}
	var data *chunk.Chunk
	var benefit float64
	var found, ran bool
	err := st.circuit.Do(func() error {
		ran = true
		ctx, cancel := context.WithTimeout(ctx, p.cfg.GetTimeout)
		defer cancel()
		start := time.Now()
		var err error
		data, _, benefit, found, err = st.peer.Get(ctx, k)
		st.met.Latency.Observe(time.Since(start))
		return err
	})
	switch {
	case !ran:
		p.fillSkips.Add(1)
		st.met.Skips.Inc()
		return nil, false
	case err != nil:
		p.fillErrors.Add(1)
		st.met.Errors.Inc()
		return nil, false
	case !found:
		p.fillMisses.Add(1)
		st.met.Misses.Inc()
		return nil, false
	}
	p.fills.Add(1)
	st.met.Hits.Inc()
	// Install in the hot tier as a computed-class entry regardless of how
	// the owner classes it: a peer-filled chunk is cheap to re-obtain (one
	// wire exchange, not a backend scan), so it gets the weak residency of
	// a recomputable chunk. Without this, every node's hot tier converges
	// on duplicates of the same hot set and the group's distinct capacity
	// stops growing with membership.
	p.local.Insert(k, data, AsComputed(benefit))
	return data, true
}
