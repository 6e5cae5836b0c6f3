package cache

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aggcache/internal/backend"
	"aggcache/internal/chunk"
	"aggcache/internal/wire"
)

// fakePeer is an in-process Peer with a scriptable store and failure switch.
type fakePeer struct {
	name string

	mu     sync.Mutex
	chunks map[Key]*chunk.Chunk
	puts   []Key
	err    error // non-nil: every exchange fails with it
	gets   atomic.Int64
	closed atomic.Bool

	block chan struct{} // when set, Get parks until it closes
}

func newFakePeer(name string) *fakePeer {
	return &fakePeer{name: name, chunks: make(map[Key]*chunk.Chunk)}
}

func (f *fakePeer) seed(k Key, c *chunk.Chunk) {
	f.mu.Lock()
	f.chunks[k] = c
	f.mu.Unlock()
}

// errPeerDown is how a fake models a dead peer: a transient failure, as
// mtier.PeerClient reports a broken or refused connection.
var errPeerDown = backend.MarkTransient(errors.New("fake peer down"))

func (f *fakePeer) setErr(err error) {
	f.mu.Lock()
	f.err = err
	f.mu.Unlock()
}

func (f *fakePeer) Get(ctx context.Context, k Key) (*chunk.Chunk, Class, float64, bool, error) {
	f.gets.Add(1)
	if err := ctx.Err(); err != nil {
		return nil, 0, 0, false, err
	}
	if f.block != nil {
		select {
		case <-f.block:
		case <-ctx.Done():
			return nil, 0, 0, false, ctx.Err()
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err != nil {
		return nil, 0, 0, false, f.err
	}
	if c, ok := f.chunks[k]; ok {
		return c, ClassBackend, 42, true, nil
	}
	return nil, 0, 0, false, nil
}

func (f *fakePeer) Put(ctx context.Context, k Key, data *chunk.Chunk, cl Class, benefit float64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err != nil {
		return f.err
	}
	f.chunks[k] = data
	f.puts = append(f.puts, k)
	return nil
}

func (f *fakePeer) Close() error { f.closed.Store(true); return nil }

// newPeeredPair returns a Peered whose every remote key is owned by one fake
// peer ("self" plus one remote on the ring would split ownership, so for
// deterministic tests Self is empty: all owners are remote).
func newPeeredPair(t *testing.T, cfg PeeredConfig) (*Peered, *fakePeer) {
	t.Helper()
	local, err := New(1<<20, NewTwoLevel())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	peer := newFakePeer("remote")
	cfg.Members = []string{"remote"}
	cfg.Dial = func(addr string) Peer {
		if addr != "remote" {
			t.Errorf("dialed unexpected member %q", addr)
		}
		return peer
	}
	p, err := NewPeered(local, cfg)
	if err != nil {
		t.Fatalf("NewPeered: %v", err)
	}
	t.Cleanup(func() { p.Close() })
	return p, peer
}

func TestPeeredFillInstallsLocally(t *testing.T) {
	p, peer := newPeeredPair(t, PeeredConfig{})
	k := key(7)
	peer.seed(k, mkChunk(0, 7, 5))

	data, ok := p.PeerFill(context.Background(), k)
	if !ok || data == nil {
		t.Fatalf("PeerFill = %v, %v", data, ok)
	}
	// The fill is resident locally now, under computed-class residency.
	if _, cl, _, ok := p.GetInfo(k); !ok || cl != ClassComputed {
		t.Fatalf("local GetInfo after fill = class %v, found %v; want computed-class hit", cl, ok)
	}
	st := p.PeerStats()
	if st.Fills != 1 || st.FillMisses != 0 || st.FillErrors != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// A second Get is a pure local hit: no new peer exchange.
	if _, ok := p.Get(k); !ok {
		t.Fatalf("Get after fill missed")
	}
	if got := peer.gets.Load(); got != 1 {
		t.Fatalf("peer gets = %d, want 1", got)
	}
}

func TestPeeredFillMissFallsThrough(t *testing.T) {
	p, _ := newPeeredPair(t, PeeredConfig{})
	if _, ok := p.PeerFill(context.Background(), key(3)); ok {
		t.Fatalf("fill of unseeded key succeeded")
	}
	if st := p.PeerStats(); st.FillMisses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPeeredSelfOwnedKeysSkipPeers(t *testing.T) {
	local, err := New(1<<20, NewTwoLevel())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	p, err := NewPeered(local, PeeredConfig{Self: "solo", Members: []string{"solo"}})
	if err != nil {
		t.Fatalf("NewPeered: %v", err)
	}
	defer p.Close()
	if _, ok := p.PeerFill(context.Background(), key(1)); ok {
		t.Fatalf("self-owned fill should report false")
	}
	// Inserts of self-owned chunks must not replicate anywhere.
	p.Insert(key(1), mkChunk(0, 1, 3), AsBackend(10))
	if st := p.PeerStats(); st.Puts != 0 && st.PutDrops != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPeeredReplicatesBackendClassOnly(t *testing.T) {
	p, peer := newPeeredPair(t, PeeredConfig{})
	p.Insert(key(1), mkChunk(0, 1, 3), AsBackend(10))
	p.Insert(key(2), mkChunk(0, 2, 3), AsComputed(10))

	deadline := time.Now().Add(2 * time.Second)
	for {
		peer.mu.Lock()
		n := len(peer.puts)
		peer.mu.Unlock()
		if n > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	peer.mu.Lock()
	defer peer.mu.Unlock()
	if len(peer.puts) != 1 || peer.puts[0] != key(1) {
		t.Fatalf("replicated keys = %v, want [key(1)] only", peer.puts)
	}
}

func TestPeeredBreakerOpensAndRecovers(t *testing.T) {
	p, peer := newPeeredPair(t, PeeredConfig{
		BreakerThreshold: 2,
		BreakerCooldown:  50 * time.Millisecond,
	})
	peer.setErr(errPeerDown)
	k := key(9)
	peer.seed(k, mkChunk(0, 9, 4))

	for i := 0; i < 2; i++ {
		if _, ok := p.PeerFill(context.Background(), k); ok {
			t.Fatalf("fill %d succeeded against failing peer", i)
		}
	}
	// Breaker is open: the next fill is skipped without touching the peer.
	before := peer.gets.Load()
	if _, ok := p.PeerFill(context.Background(), k); ok {
		t.Fatalf("fill succeeded while breaker open")
	}
	if got := peer.gets.Load(); got != before {
		t.Fatalf("breaker-open fill reached the peer (%d → %d gets)", before, got)
	}
	st := p.PeerStats()
	if st.FillErrors != 2 || st.FillSkips != 1 {
		t.Fatalf("stats = %+v", st)
	}

	// After the cooldown the peer heals; one probe closes the breaker.
	peer.setErr(nil)
	time.Sleep(60 * time.Millisecond)
	if _, ok := p.PeerFill(context.Background(), k); !ok {
		t.Fatalf("probe fill failed after peer recovered")
	}
	if st := p.PeerStats(); st.Fills != 1 {
		t.Fatalf("stats after recovery = %+v", st)
	}
}

// TestPeeredBreakerIgnoresBusyAndCancel: a peer circuit counts outage-class
// failures only, like the backend breaker. A shedding peer's Busy reply
// proves the peer is up, and the caller's own cancellation says nothing
// about it, so neither may open the circuit and turn the peer's keys into
// backend trips.
func TestPeeredBreakerIgnoresBusyAndCancel(t *testing.T) {
	const threshold = 2
	p, peer := newPeeredPair(t, PeeredConfig{BreakerThreshold: threshold, BreakerCooldown: time.Minute})
	k := key(13)

	peer.setErr(&wire.BusyError{RetryAfter: time.Millisecond})
	for i := 0; i < 2*threshold; i++ {
		if _, ok := p.PeerFill(context.Background(), k); ok {
			t.Fatalf("fill %d succeeded against a shedding peer", i)
		}
	}
	peer.setErr(nil)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 2*threshold; i++ {
		if _, ok := p.PeerFill(cancelled, k); ok {
			t.Fatalf("fill %d succeeded under a cancelled context", i)
		}
	}

	peer.seed(k, mkChunk(0, 13, 4))
	before := peer.gets.Load()
	if _, ok := p.PeerFill(context.Background(), k); !ok {
		t.Fatalf("fill after Busy and cancellation did not reach the peer: %+v", p.PeerStats())
	}
	if got := peer.gets.Load(); got != before+1 {
		t.Fatalf("peer gets %d → %d, want one more", before, got)
	}
	if st := p.PeerStats(); st.FillSkips != 0 || st.Fills != 1 {
		t.Fatalf("stats = %+v, want no skips and one fill", st)
	}
}

func TestPeeredRebuildSwapsMembership(t *testing.T) {
	local, err := New(1<<20, NewTwoLevel())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	peers := map[string]*fakePeer{}
	var mu sync.Mutex
	dial := func(addr string) Peer {
		mu.Lock()
		defer mu.Unlock()
		f := newFakePeer(addr)
		peers[addr] = f
		return f
	}
	p, err := NewPeered(local, PeeredConfig{Self: "a", Members: []string{"a", "b"}, Dial: dial})
	if err != nil {
		t.Fatalf("NewPeered: %v", err)
	}
	defer p.Close()
	if got := p.Ring().Size(); got != 2 {
		t.Fatalf("ring size = %d", got)
	}

	if err := p.Rebuild([]string{"a", "c", "d"}); err != nil {
		t.Fatalf("Rebuild: %v", err)
	}
	if got := p.Ring().Size(); got != 3 {
		t.Fatalf("ring size after rebuild = %d", got)
	}
	mu.Lock()
	b, hasC, hasD := peers["b"], peers["c"] != nil, peers["d"] != nil
	mu.Unlock()
	if b == nil || !b.closed.Load() {
		t.Fatalf("removed member b was not closed")
	}
	if !hasC || !hasD {
		t.Fatalf("new members not dialed: c=%v d=%v", hasC, hasD)
	}
	// Self never gets a peer handle.
	if p.peer("a") != nil {
		t.Fatalf("self has a peer handle")
	}
}

// TestPeeredRejectsSelfOutsideMembers: a node whose Self is missing from the
// membership would dial its own address as a remote peer, so NewPeered
// refuses it before dialing anyone. An empty Self (a pure client of the
// ring) stays legal.
func TestPeeredRejectsSelfOutsideMembers(t *testing.T) {
	local, err := New(1<<20, NewTwoLevel())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	dialed := 0
	dial := func(addr string) Peer { dialed++; return newFakePeer(addr) }
	if p, err := NewPeered(local, PeeredConfig{Self: "0.0.0.0:7071", Members: []string{"a", "b"}, Dial: dial}); err == nil {
		p.Close()
		t.Fatalf("NewPeered accepted a Self outside the members")
	}
	if dialed != 0 {
		t.Fatalf("refused NewPeered dialed %d members", dialed)
	}
	client, err := NewPeered(local, PeeredConfig{Members: []string{"a", "b"}, Dial: dial})
	if err != nil {
		t.Fatalf("NewPeered with empty Self: %v", err)
	}
	client.Close()
}

// TestPeeredRebuildWithoutSelfKeepsRing: a membership reload that drops Self
// is refused and the node keeps routing by its old ring.
func TestPeeredRebuildWithoutSelfKeepsRing(t *testing.T) {
	local, err := New(1<<20, NewTwoLevel())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	p, err := NewPeered(local, PeeredConfig{Self: "a", Members: []string{"a", "b"},
		Dial: func(addr string) Peer { return newFakePeer(addr) }})
	if err != nil {
		t.Fatalf("NewPeered: %v", err)
	}
	defer p.Close()
	before := p.Ring()
	if err := p.Rebuild([]string{"b", "c"}); err == nil {
		t.Fatalf("Rebuild accepted a membership without self")
	}
	if p.Ring() != before || p.peer("b") == nil || p.peer("c") != nil {
		t.Fatalf("refused Rebuild changed the ring or its peers")
	}
}

func TestPeeredCloseIsIdempotentAndStopsFills(t *testing.T) {
	p, peer := newPeeredPair(t, PeeredConfig{})
	peer.seed(key(5), mkChunk(0, 5, 3))
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if !peer.closed.Load() {
		t.Fatalf("peer connection not closed")
	}
	if _, ok := p.PeerFill(context.Background(), key(5)); ok {
		t.Fatalf("fill succeeded after Close")
	}
}
