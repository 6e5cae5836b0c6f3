package core

import (
	"errors"
	"slices"

	"aggcache/internal/backend"
	"aggcache/internal/cache"
	"aggcache/internal/chunk"
	"aggcache/internal/obs"
	"aggcache/internal/sizer"
	"aggcache/internal/strategy"
)

// Config describes one middle-tier stack for Build: the paper's composition
// (§6) of a chunk cache under a replacement policy, a lookup strategy
// listening to it, and a backend, plus the optional cold tier, peer ring and
// live metrics.
type Config struct {
	// Grid is the chunk geometry every layer shares.
	Grid *chunk.Grid
	// Backend computes the chunks the cache cannot answer.
	Backend backend.Backend
	// Rows is the base table's tuple count; chunk sizes for the cost-based
	// strategies, preloading and the recycler are estimated from it
	// (sizer.NewEstimate).
	Rows int64
	// Strategy names the lookup strategy (strategy.New: VCM, VCMC or NoAgg).
	Strategy string
	// Policy names the hot store's replacement policy (cache.NewPolicy).
	// Empty selects the paper's two-level policy, or two-level-promote when
	// Options turn recycling on, so recycled intermediates enter on
	// probation and only reuse moves them next to the proven working set.
	Policy string
	// HotBytes bounds the hot store. Shards is its stripe count
	// (cache.WithShards): 0 or 1 is the paper's single bounded cache under
	// one lock, a negative count one stripe per GOMAXPROCS.
	HotBytes int64
	Shards   int
	// ColdBytes, when positive, gives the local store a compressed cold tier
	// of that capacity below its hot tier (cache.NewTiered).
	ColdBytes int64
	// Peers, when set, joins the stack to a consistent-hash peer ring
	// (cache.NewPeered) above the local tiers.
	Peers *cache.PeeredConfig
	// Metrics, when set, attaches live metrics registered on it to the
	// strategy, the local store, its cold tier, every peer and the engine.
	Metrics *obs.Registry
	// Options tune the engine (WithRecycling, WithRecycleMinBenefit, …).
	Options []Option
}

// Stack is a middle tier Build assembled: the engine and the layers callers
// reach past it. Peered is nil when the configuration has no peer ring; the
// caller closes it when done.
type Stack struct {
	Engine *Engine
	// Hot is the local store, innermost layer of the engine's cache: the hot
	// tier and, with ColdBytes, the cold tier below it.
	Hot    *cache.Sharded
	Peered *cache.Peered
}

// Build turns cfg into a running stack: sizer, strategy, local store and
// its cold tier, peer ring and engine, each layer wrapping the one before it.
func Build(cfg Config) (*Stack, error) {
	if cfg.Grid == nil || cfg.Backend == nil {
		return nil, errors.New("core: Build needs a grid and a backend")
	}
	reg := cfg.Metrics
	sz := sizer.NewEstimate(cfg.Grid, cfg.Rows)
	strat, err := strategy.New(cfg.Strategy, cfg.Grid, sz)
	if err != nil {
		return nil, err
	}
	if reg != nil {
		strat = strategy.Instrument(strat, obs.NewStrategyMetrics(reg, strat.Name()))
	}

	policy := cfg.Policy
	if policy == "" {
		policy = "two-level"
		if resolveOptions(cfg.Options).recycle {
			policy = "two-level-promote"
		}
	}
	pol, err := cache.NewPolicy(policy)
	if err != nil {
		return nil, err
	}
	// The local store, its cold tier and the engine count into their bundles
	// whether or not a registry exports them; a nil reg leaves them unexported.
	copts := []cache.Option{cache.WithMetrics(obs.NewCacheMetrics(reg))}
	if cfg.Shards != 0 {
		copts = append(copts, cache.WithShards(cfg.Shards))
	}
	hot, err := cache.New(cfg.HotBytes, pol, copts...)
	if err != nil {
		return nil, err
	}
	if cfg.ColdBytes > 0 {
		if _, err := cache.NewTiered(hot, cfg.ColdBytes); err != nil {
			return nil, err
		}
		hot.SetTierMetrics(obs.NewTierMetrics(reg))
	}
	st := &Stack{Hot: hot}
	var store cache.Store = hot
	if cfg.Peers != nil {
		pcfg := *cfg.Peers
		if reg != nil && pcfg.Metrics == nil {
			pcfg.Metrics = func(peer string) obs.PeerMetrics { return obs.NewPeerMetrics(reg, peer) }
		}
		if st.Peered, err = cache.NewPeered(store, pcfg); err != nil {
			return nil, err
		}
		store = st.Peered
	}

	opts := append(slices.Clip(cfg.Options), WithMetrics(obs.NewEngineMetrics(reg)))
	if st.Engine, err = New(cfg.Grid, store, strat, cfg.Backend, sz, opts...); err != nil {
		if st.Peered != nil {
			st.Peered.Close()
		}
		return nil, err
	}
	return st, nil
}
