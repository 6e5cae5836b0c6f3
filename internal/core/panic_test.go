package core

import (
	"context"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"aggcache/internal/apb"
	"aggcache/internal/backend"
	"aggcache/internal/cache"
	"aggcache/internal/chunk"
	"aggcache/internal/lattice"
	"aggcache/internal/sizer"
	"aggcache/internal/strategy"
)

// panicPeer is a cluster peer whose every Get panics.
type panicPeer struct{ gets atomic.Int64 }

func (p *panicPeer) Get(context.Context, cache.Key) (*chunk.Chunk, cache.Class, float64, bool, error) {
	p.gets.Add(1)
	panic("peer boom")
}

func (p *panicPeer) Put(context.Context, cache.Key, *chunk.Chunk, cache.Class, float64) error {
	return nil
}

func (p *panicPeer) Close() error { return nil }

// TestPeerFillPanicFallsThroughToBackend: a peer fill runs on a goroutine
// the query spawns, where no handler's guard sits above it. A panicking peer
// is a failed fill: the chunk comes from the backend, the answer is right,
// and the panic is counted.
func TestPeerFillPanicFallsThroughToBackend(t *testing.T) {
	g, tab, err := apb.New(apb.ScaleTiny).Build(21)
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
	peer := &panicPeer{}
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

	q := WholeGroupBy(g.Lattice().Top())
	res, err := eng.Execute(context.Background(), q)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if peer.gets.Load() == 0 {
		t.Fatalf("the query never asked the peer")
	}
	if res.PeerChunks != 0 || res.MissChunks != len(res.Chunks) {
		t.Fatalf("%d peer chunks, %d misses of %d: want every chunk from the backend", res.PeerChunks, res.MissChunks, len(res.Chunks))
	}
	if got, want := eng.met.PeerFillPanics.Value(), peer.gets.Load(); got != want {
		t.Fatalf("peer fill panics = %d, want %d", got, want)
	}
	assertMatchesOracle(t, &fixture{grid: g, engine: eng, oracle: be}, q, res)
}

// panicEstimate is VCMC whose cost estimate, which the recycler reads while
// the aggregation workers build a plan, panics while armed.
type panicEstimate struct {
	*strategy.VCMC
	armed atomic.Bool
	calls atomic.Int64
}

func (p *panicEstimate) CostEstimate(gb lattice.ID, num int) (int64, bool) {
	p.calls.Add(1)
	if p.armed.Load() {
		panic("estimate boom")
	}
	return p.VCMC.CostEstimate(gb, num)
}

// pinCount is a store that counts the pins it holds.
type pinCount struct {
	cache.Store
	held atomic.Int64
}

func (p *pinCount) Pin(k cache.Key) bool {
	ok := p.Store.Pin(k)
	if ok {
		p.held.Add(1)
	}
	return ok
}

func (p *pinCount) Unpin(k cache.Key) {
	p.held.Add(-1)
	p.Store.Unpin(k)
}

// TestAggregationPanicBecomesQueryError: plans run on aggregation workers
// the query spawns, where no handler's guard sits above them. A plan whose
// build panics fails its query with the panic as the error, every pin the
// query took is released, and the same query succeeds once the fault is
// gone.
func TestAggregationPanicBecomesQueryError(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // several plans run on workers
	g, tab, err := apb.New(apb.ScaleTiny).Build(21)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	be, err := backend.NewEngine(g, tab, backend.LatencyModel{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	sz := sizer.NewEstimate(g, int64(tab.Len()))
	local, err := cache.New(1<<24, cache.NewTwoLevel())
	if err != nil {
		t.Fatalf("cache.New: %v", err)
	}
	store := &pinCount{Store: local}
	strat := &panicEstimate{VCMC: strategy.NewVCMC(g, sz)}
	eng, err := New(g, store, strat, be, sz, WithRecycling(true), withRecycleMinBenefit(1e-9))
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	lat := g.Lattice()
	if _, err := eng.Execute(context.Background(), WholeGroupBy(lat.Base())); err != nil {
		t.Fatalf("base query: %v", err)
	}
	// The first group-by of several chunks whose plans price an interior
	// node is the subject.
	for gb := 0; gb < lat.NumNodes(); gb++ {
		if g.NumChunks(lattice.ID(gb)) < 2 {
			continue
		}
		q := WholeGroupBy(lattice.ID(gb))
		strat.armed.Store(true)
		calls := strat.calls.Load()
		_, err := eng.Execute(context.Background(), q)
		strat.armed.Store(false)
		if strat.calls.Load() == calls {
			if err != nil {
				t.Fatalf("group-by %d: %v", gb, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "estimate boom") {
			t.Fatalf("group-by %d: got %v, want the panic as the query's error", gb, err)
		}
		if n := store.held.Load(); n != 0 {
			t.Fatalf("group-by %d: %d pins held after the failed query", gb, n)
		}
		res, err := eng.Execute(context.Background(), q)
		if err != nil {
			t.Fatalf("group-by %d after the fault: %v", gb, err)
		}
		assertMatchesOracle(t, &fixture{grid: g, engine: eng, oracle: be}, q, res)
		t.Logf("group-by %d (%d chunks, %d plans aggregated)", gb, g.NumChunks(lattice.ID(gb)), res.AggChunks)
		return
	}
	t.Fatalf("no query priced an interior plan node")
}
