package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"aggcache/internal/apb"
	"aggcache/internal/backend"
	"aggcache/internal/cache"
	"aggcache/internal/chunk"
	"aggcache/internal/core"
	"aggcache/internal/data"
	"aggcache/internal/mtier"
	"aggcache/internal/obs"
	"aggcache/internal/sizer"
	"aggcache/internal/strategy"
)

// dataSeed seeds the fact table. The warehouse is the same for every run;
// -seed varies the query streams only.
const dataSeed = 1

// dataset is the warehouse contents and the geometry every tier shares.
type dataset struct {
	scale apb.Scale
	grid  *chunk.Grid
	table *data.Table
	sizes sizer.Sizer
	// baseBytes is the cache footprint of the base group-by; store sizes are
	// fractions of it, as the paper's cache sizes are fractions of its base.
	baseBytes int64
}

func buildDataset(scale apb.Scale) (*dataset, error) {
	grid, tab, err := apb.New(scale).Build(dataSeed)
	if err != nil {
		return nil, err
	}
	base := grid.Lattice().Base()
	return &dataset{
		scale:     scale,
		grid:      grid,
		table:     tab,
		sizes:     sizer.NewEstimate(grid, int64(tab.Len())),
		baseBytes: int64(tab.Len())*chunk.CellBytes + int64(grid.NumChunks(base))*chunk.OverheadBytes,
	}, nil
}

// node is one middle-tier member, built the way cmd/aggcached builds itself:
// mtier.Server (+ admission) over core.Engine (VCMC, recycling, result cache)
// over Peered(Tiered(sharded two-level-promote store)) over a breaker-guarded
// backend.Remote.
type node struct {
	name   string
	addr   string
	peered *cache.Peered
	strat  strategy.Strategy
	remote *backend.Remote
	engine *core.Engine
	server *mtier.Server
	// reg is the node's metrics registry; nil on an untraced stack, where
	// (as in aggcached without -ops) no obs bundle is attached anywhere.
	reg *obs.Registry
}

// stack is the whole system under test, hosted in this process: a backend
// server on one loopback socket and the middle-tier nodes on their own.
type stack struct {
	ds      *dataset
	spec    workloadSpec
	backEng *backend.Engine
	backSrv *backend.Server
	nodes   []*node
	// tr is non-nil on a traced stack: decorators and registries are on.
	tr *tracer
}

// buildStack brings the composition up and preloads it when the workload
// says so. tr selects the traced variant.
func buildStack(ds *dataset, spec workloadSpec, tr *tracer) (_ *stack, err error) {
	s := &stack{ds: ds, spec: spec, tr: tr}
	defer func() {
		if err != nil {
			s.Close()
		}
	}()
	if s.backEng, err = backend.NewEngine(ds.grid, ds.table, spec.Latency); err != nil {
		return nil, err
	}
	s.backSrv = backend.NewServer(s.backEng)
	backAddr, err := s.backSrv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}

	// Ring members are logical names the dialer resolves, so every ring can
	// be built before any listener is bound; Rebuild then installs the full
	// membership, the same two-step a SIGHUP reload performs.
	var amu sync.Mutex
	addrOf := make(map[string]string)
	dial := func(name string) cache.Peer {
		amu.Lock()
		addr := addrOf[name]
		amu.Unlock()
		var p cache.Peer = mtier.NewPeerClient(addr, 0)
		if tr != nil {
			p = &tracedPeer{Peer: p, tr: tr}
		}
		return p
	}
	names := make([]string, spec.Nodes)
	for i := range names {
		names[i] = fmt.Sprintf("node%d", i)
	}
	for _, name := range names {
		n, err := s.buildNode(name, backAddr, dial)
		if err != nil {
			return nil, err
		}
		s.nodes = append(s.nodes, n)
		amu.Lock()
		addrOf[name] = n.addr
		amu.Unlock()
	}
	for _, n := range s.nodes {
		if err := n.peered.Rebuild(names); err != nil {
			return nil, err
		}
	}
	if spec.Preload {
		for _, n := range s.nodes {
			if _, _, err := n.engine.Preload(context.Background()); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

func (s *stack) buildNode(name, backAddr string, dial cache.PeerDialer) (_ *node, err error) {
	ds, spec, tr := s.ds, s.spec, s.tr
	n := &node{name: name}
	defer func() {
		if err != nil {
			n.close()
		}
	}()
	if tr != nil {
		n.reg = obs.NewRegistry()
	}

	if n.remote, err = backend.Dial(backAddr); err != nil {
		return nil, err
	}
	var be backend.Backend = n.remote
	if tr != nil {
		be = &tracedBackend{Backend: be, tr: tr}
	}
	be = backend.NewBreaker(be, backend.BreakerConfig{FailureThreshold: 5, Cooldown: 2 * time.Second})

	n.strat = strategy.NewVCMC(ds.grid, ds.sizes)
	strat := n.strat
	if tr != nil {
		strat = &tracedStrategy{Strategy: strat, tr: tr}
	}

	copts := []cache.Option{cache.WithShards(0)}
	if n.reg != nil {
		copts = append(copts, cache.WithMetrics(obs.NewCacheMetrics(n.reg)))
	}
	hot, err := cache.New(fracBytes(ds.baseBytes, spec.HotFrac), cache.NewTwoLevelPromote(), copts...)
	if err != nil {
		return nil, err
	}
	tiered, err := cache.NewTiered(hot, fracBytes(ds.baseBytes, spec.ColdFrac))
	if err != nil {
		return nil, err
	}
	pcfg := cache.PeeredConfig{Self: name, Members: []string{name}, Dial: dial}
	if n.reg != nil {
		tiered.SetTierMetrics(obs.NewTierMetrics(n.reg))
		pcfg.Metrics = func(peer string) obs.PeerMetrics { return obs.NewPeerMetrics(n.reg, peer) }
	}
	if n.peered, err = cache.NewPeered(tiered, pcfg); err != nil {
		return nil, err
	}
	var store cache.Store = n.peered
	if tr != nil {
		store = &tracedStore{Peered: n.peered, tr: tr}
	}

	eopts := []core.Option{
		core.WithRecycling(true),
		core.WithResultCache(resultCacheEntries),
	}
	if n.reg != nil {
		eopts = append(eopts, core.WithMetrics(obs.NewEngineMetrics(n.reg)))
	}
	if n.engine, err = core.New(ds.grid, store, strat, be, ds.sizes, eopts...); err != nil {
		return nil, err
	}

	n.server = mtier.NewServer(n.engine)
	if spec.Admission {
		n.server.SetAdmission(mtier.AdmissionConfig{MaxConcurrent: 2 * runtime.GOMAXPROCS(0)})
	}
	if n.reg != nil {
		n.server.SetObs(n.reg, nil)
	}
	if n.addr, err = n.server.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	return n, nil
}

// fracBytes sizes a store as a fraction of the base group-by, never below
// one byte so tiny scales still construct.
func fracBytes(base int64, frac float64) int64 {
	return max(int64(frac*float64(base)), 1)
}

func (n *node) close() {
	if n.server != nil {
		n.server.Close()
	}
	if n.peered != nil {
		n.peered.Close()
	}
	if n.remote != nil {
		n.remote.Close()
	}
}

// Close tears the stack down and returns once every listener and serving
// goroutine has exited.
func (s *stack) Close() {
	for _, n := range s.nodes {
		n.close()
	}
	if s.backSrv != nil {
		s.backSrv.Close()
	}
}

// dialClients opens n client connections, connection i to node i mod nodes.
func (s *stack) dialClients(n int) ([]*mtier.Client, error) {
	out := make([]*mtier.Client, 0, n)
	for i := 0; i < n; i++ {
		c, err := mtier.Dial(s.nodes[i%len(s.nodes)].addr)
		if err != nil {
			closeClients(out)
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

func closeClients(cs []*mtier.Client) {
	for _, c := range cs {
		c.Close()
	}
}
