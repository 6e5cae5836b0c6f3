package core

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aggcache/internal/apb"
	"aggcache/internal/backend"
	"aggcache/internal/cache"
	"aggcache/internal/chunk"
	"aggcache/internal/sizer"
	"aggcache/internal/strategy"
)

// storePeer serves cache.Peer exchanges straight from a sibling node's local
// store — the in-process equivalent of the mtier peer protocol, so the
// engine's peer-fill path can be exercised without TCP.
type storePeer struct{ st cache.Store }

func (p *storePeer) Get(ctx context.Context, k cache.Key) (*chunk.Chunk, cache.Class, float64, bool, error) {
	d, cl, b, f := p.st.GetInfo(k)
	return d, cl, b, f, nil
}

func (p *storePeer) Put(context.Context, cache.Key, *chunk.Chunk, cache.Class, float64) error {
	return nil
}

func (p *storePeer) Close() error { return nil }

// TestRecycledIntermediatesPeered: intermediates the recycler admits on a
// clustered node take computed-class residency in the local tier.
func TestRecycledIntermediatesPeered(t *testing.T) {
	cfg := apb.New(apb.ScaleTiny)
	g, tab, err := cfg.Build(21)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	be, err := backend.NewEngine(g, tab, backend.LatencyModel{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	sz := sizer.NewEstimate(g, int64(tab.Len()))
	lat := g.Lattice()

	local, err := cache.New(1<<20, cache.NewTwoLevelPromote())
	if err != nil {
		t.Fatalf("cache.New: %v", err)
	}
	remote, _ := cache.New(1<<20, cache.NewTwoLevelPromote())
	peer := &storePeer{st: remote}
	pc, err := cache.NewPeered(local, cache.PeeredConfig{
		Self:    "a",
		Members: []string{"a", "b"},
		Dial:    func(string) cache.Peer { return peer },
	})
	if err != nil {
		t.Fatalf("NewPeered: %v", err)
	}
	t.Cleanup(func() { pc.Close() })

	eng, err := New(g, pc, strategy.NewVCMC(g, sz), be, sz,
		WithRecycling(true), withRecycleMinBenefit(1e-9))
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}

	if _, err := eng.Execute(context.Background(), WholeGroupBy(lat.Base())); err != nil {
		t.Fatalf("warm: %v", err)
	}
	res, err := eng.Execute(context.Background(), WholeGroupBy(lat.Top()))
	if err != nil {
		t.Fatalf("aggregate: %v", err)
	}
	if res.RecycledChunks == 0 {
		t.Fatalf("no intermediates recycled")
	}
	// Every recycled (non-base, non-top) resident carries computed class.
	recycled := map[cache.Key]bool{}
	local.Range(func(k cache.Key, _ *chunk.Chunk, cl cache.Class, _ float64, _ bool) {
		if k.GB == lat.Base() || k.GB == lat.Top() {
			return
		}
		recycled[k] = true
		if cl != cache.ClassComputed {
			t.Errorf("recycled chunk %v has class %v, want ClassComputed", k, cl)
		}
	})
	if len(recycled) == 0 {
		t.Fatalf("no recycled intermediates resident")
	}
}

// TestEnginePeerFillServesRemoteChunks is the engine-level cluster property:
// a node whose neighbor already holds the working set answers part of its
// misses by peer fill instead of the backend, and every answer still equals
// direct backend computation.
func TestEnginePeerFillServesRemoteChunks(t *testing.T) {
	cfg := apb.New(apb.ScaleTiny)
	g, tab, err := cfg.Build(21)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	be, err := backend.NewEngine(g, tab, backend.LatencyModel{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	sz := sizer.NewEstimate(g, int64(tab.Len()))
	const capacity = 1 << 19

	names := []string{"a", "b"}
	locals := make([]cache.Store, 2)
	for i := range locals {
		if locals[i], err = cache.New(capacity, cache.NewTwoLevel()); err != nil {
			t.Fatalf("cache.New: %v", err)
		}
	}
	engines := make([]*Engine, 2)
	for i := range engines {
		other := locals[1-i]
		pc, err := cache.NewPeered(locals[i], cache.PeeredConfig{
			Self:    names[i],
			Members: names,
			Dial:    func(string) cache.Peer { return &storePeer{st: other} },
		})
		if err != nil {
			t.Fatalf("NewPeered: %v", err)
		}
		t.Cleanup(func() { pc.Close() })
		if engines[i], err = New(g, pc, strategy.NewVCMC(g, sz), be, sz); err != nil {
			t.Fatalf("core.New: %v", err)
		}
	}

	rng := rand.New(rand.NewSource(17))
	queries := make([]Query, 60)
	for i := range queries {
		queries[i] = randomQuery(rng, g)
	}

	// Warm node A with the whole stream: B can fill the A-owned half of its
	// misses from A.
	for _, q := range queries {
		if _, err := engines[0].Execute(context.Background(), q); err != nil {
			t.Fatalf("warm: %v", err)
		}
	}

	// A cold standalone engine replaying the same stream is the baseline for
	// how much backend traffic the peer tier saves.
	solo := build(t, "VCMC", cache.NewTwoLevel(), capacity)
	var soloBackend int64
	for _, q := range queries {
		res, err := solo.engine.Execute(context.Background(), q)
		if err != nil {
			t.Fatalf("solo: %v", err)
		}
		soloBackend += int64(res.MissChunks - res.PeerChunks)
	}

	oracle := &fixture{grid: g, engine: engines[1], oracle: be}
	var peerChunks, backendChunks int64
	for _, q := range queries {
		res, err := engines[1].Execute(context.Background(), q)
		if err != nil {
			t.Fatalf("Execute: %v", err)
		}
		peerChunks += int64(res.PeerChunks)
		backendChunks += int64(res.MissChunks - res.PeerChunks)
		assertMatchesOracle(t, oracle, q, res)
	}
	if peerChunks == 0 {
		t.Fatalf("no chunks were peer-filled from the warmed neighbor")
	}
	if backendChunks >= soloBackend {
		t.Fatalf("peer tier saved nothing: %d backend chunks with a warm neighbor, %d standalone",
			backendChunks, soloBackend)
	}
	t.Logf("peer fills: %d chunks; backend chunks %d (standalone %d)", peerChunks, backendChunks, soloBackend)
}

// parkedPeer owns every key it is asked for, parks each Get until release
// closes, and then answers with the backend's chunk.
type parkedPeer struct {
	be      backend.Backend
	gets    atomic.Int64
	release chan struct{}
}

func (p *parkedPeer) Get(ctx context.Context, k cache.Key) (*chunk.Chunk, cache.Class, float64, bool, error) {
	p.gets.Add(1)
	select {
	case <-p.release:
	case <-ctx.Done():
		return nil, 0, 0, false, ctx.Err()
	}
	chunks, _, err := p.be.ComputeChunks(ctx, k.GB, []int{int(k.Num)})
	if err != nil {
		return nil, 0, 0, false, err
	}
	return chunks[0], cache.ClassBackend, 1, true, nil
}

func (p *parkedPeer) Put(context.Context, cache.Key, *chunk.Chunk, cache.Class, float64) error {
	return nil
}

func (p *parkedPeer) Close() error { return nil }

// TestEnginePeerFillOneExchangePerChunk: the engine's flight group is the
// only deduplication of peer fills. Queries that miss one remotely owned
// chunk together make one peer exchange — the flight's leader makes it —
// and every query counts the chunk as peer-filled.
func TestEnginePeerFillOneExchangePerChunk(t *testing.T) {
	cfg := apb.New(apb.ScaleTiny)
	g, tab, err := cfg.Build(21)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	be, err := backend.NewEngine(g, tab, backend.LatencyModel{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	sz := sizer.NewEstimate(g, int64(tab.Len()))
	local, err := cache.New(1<<20, cache.NewTwoLevel())
	if err != nil {
		t.Fatalf("cache.New: %v", err)
	}
	// An empty Self makes every key remotely owned, all by the one member.
	peer := &parkedPeer{be: be, release: make(chan struct{})}
	pc, err := cache.NewPeered(local, cache.PeeredConfig{
		Members:    []string{"owner"},
		Dial:       func(string) cache.Peer { return peer },
		GetTimeout: time.Minute,
	})
	if err != nil {
		t.Fatalf("NewPeered: %v", err)
	}
	t.Cleanup(func() { pc.Close() })
	eng, err := New(g, pc, strategy.NewVCMC(g, sz), be, sz)
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}

	const queries = 8
	q := WholeGroupBy(g.Lattice().Top())
	results := make([]*Result, queries)
	errs := make([]error, queries)
	var wg sync.WaitGroup
	for i := range queries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = eng.Execute(context.Background(), q)
		}()
	}
	// Release the peer only once the leader is parked in it and the other
	// queries wait on its flight.
	deadline := time.Now().Add(10 * time.Second)
	for peer.gets.Load() == 0 || eng.met.FlightFollowerChunks.Value() < queries-1 {
		if time.Now().After(deadline) {
			t.Fatalf("gets %d, followers %d: the queries never met on one flight",
				peer.gets.Load(), eng.met.FlightFollowerChunks.Value())
		}
		time.Sleep(time.Millisecond)
	}
	close(peer.release)
	wg.Wait()

	if got := peer.gets.Load(); got != 1 {
		t.Fatalf("peer gets = %d, want 1", got)
	}
	want, _, err := be.ComputeChunks(context.Background(), q.GB, []int{0})
	if err != nil {
		t.Fatalf("ComputeChunks: %v", err)
	}
	for i, res := range results {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		if res.PeerChunks != 1 || res.Cells() != want[0].Cells() {
			t.Fatalf("query %d: %d peer chunks, %d cells; want 1 peer chunk, %d cells",
				i, res.PeerChunks, res.Cells(), want[0].Cells())
		}
	}
}
