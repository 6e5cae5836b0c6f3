package mtier

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aggcache/internal/apb"
	"aggcache/internal/backend"
	"aggcache/internal/cache"
	"aggcache/internal/chunk"
	"aggcache/internal/core"
	"aggcache/internal/sizer"
	"aggcache/internal/strategy"
	"aggcache/internal/workload"
)

// flakyPeer wraps a live peer connection and fails every third exchange with
// a transient error, the failure mode the breaker taxonomy is built for: the
// peer is reachable but unreliable, so the breaker must keep cycling between
// open (degrade to local+backend) and closed (peer fills resume).
type flakyPeer struct {
	cache.Peer
	n atomic.Int64
}

var errInjected = errors.New("mtier: injected peer fault")

func (f *flakyPeer) Get(ctx context.Context, k cache.Key) (*chunk.Chunk, cache.Class, float64, bool, error) {
	if f.n.Add(1)%3 == 0 {
		return nil, 0, 0, false, backend.MarkTransient(errInjected)
	}
	return f.Peer.Get(ctx, k)
}

// soakNode is one in-process cluster member with a live TCP peer listener.
type soakNode struct {
	peered *cache.Peered
	engine *core.Engine
	server *Server
}

// TestClusterSoak drives a 3-node cluster in which every connection to one
// member is fault-injected. The contract under soak: every query succeeds
// (peer faults degrade to local+backend, never surface to clients), the
// group exchanges real peer traffic, and the run is race-clean.
func TestClusterSoak(t *testing.T) {
	cfg := apb.New(apb.ScaleTiny)
	g, tab, err := cfg.Build(44)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	be, err := backend.NewEngine(g, tab, backend.LatencyModel{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	sz := sizer.NewEstimate(g, int64(tab.Len()))

	const n = 3
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("node%d", i)
	}
	addrOf := make(map[string]string, n)
	var mu sync.Mutex
	dial := func(name string) cache.Peer {
		mu.Lock()
		addr := addrOf[name]
		mu.Unlock()
		var p cache.Peer = NewPeerClient(addr, 0)
		// Every connection to node2 is unreliable.
		if name == names[n-1] {
			p = &flakyPeer{Peer: p}
		}
		return p
	}

	nodes := make([]*soakNode, 0, n)
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.server.Close()
			nd.peered.Close()
		}
	})
	for i := 0; i < n; i++ {
		store, err := cache.New(1<<18, cache.NewTwoLevelPromote())
		if err != nil {
			t.Fatalf("cache.New: %v", err)
		}
		pc, err := cache.NewPeered(store, cache.PeeredConfig{
			Self:    names[i],
			Members: []string{names[i]},
			Dial:    dial,
			// A low threshold and short cooldown so the soak exercises the
			// full breaker cycle many times: open on the injected faults,
			// half-open probe, close on the next success.
			BreakerThreshold: 3,
			BreakerCooldown:  20 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("NewPeered: %v", err)
		}
		// Recycling and promote-on-reuse run under the soak's fault
		// injection and the race detector.
		eng, err := core.New(g, pc, strategy.NewVCMC(g, sz), be, sz,
			core.WithRecycling(true))
		if err != nil {
			t.Fatalf("core.New: %v", err)
		}
		srv := NewServer(eng)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatalf("Listen: %v", err)
		}
		mu.Lock()
		addrOf[names[i]] = addr
		mu.Unlock()
		nodes = append(nodes, &soakNode{peered: pc, engine: eng, server: srv})
	}
	for _, nd := range nodes {
		if err := nd.peered.Rebuild(names); err != nil {
			t.Fatalf("Rebuild: %v", err)
		}
	}

	// A proximity-heavy stream, the workload the peer tier exists for.
	gen, err := workload.NewGenerator(g, workload.Mix{DrillDown: 0.1, RollUp: 0.1, Proximity: 0.7, Random: 0.1}, 2, 99)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	queries, _ := gen.Stream(150)

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			eng := nodes[w%n].engine
			off := w * len(queries) / workers
			for i := range queries {
				if _, err := eng.Execute(context.Background(), queries[(off+i)%len(queries)]); err != nil {
					errs <- fmt.Errorf("worker %d query %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	var ps cache.PeerStats
	for _, nd := range nodes {
		s := nd.peered.PeerStats()
		ps.Fills += s.Fills
		ps.FillMisses += s.FillMisses
		ps.FillErrors += s.FillErrors
		ps.FillSkips += s.FillSkips
	}
	if ps.Fills == 0 {
		t.Errorf("soak produced no peer fills: %+v", ps)
	}
	if ps.FillErrors == 0 {
		t.Errorf("fault injection never fired: %+v", ps)
	}
	t.Logf("soak peer stats: %+v", ps)
}
