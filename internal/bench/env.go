// Package bench implements the paper's evaluation (§7): one runnable
// experiment per table and figure, plus the unit experiments, Lemma checks
// and ablations listed in DESIGN.md. cmd/aggbench is the CLI front end and
// the repository-level benchmarks wrap the same functions.
package bench

import (
	"context"
	"fmt"
	"time"

	"aggcache/internal/apb"
	"aggcache/internal/backend"
	"aggcache/internal/cache"
	"aggcache/internal/chunk"
	"aggcache/internal/core"
	"aggcache/internal/data"
	"aggcache/internal/sizer"
	"aggcache/internal/strategy"
)

// Config tunes an experiment run.
type Config struct {
	// Scale selects the APB preset.
	Scale apb.Scale
	// Seed drives data generation and query streams.
	Seed int64
	// Queries is the stream length for the query-stream experiments; the
	// paper uses 100.
	Queries int
	// CacheFractions lists cache sizes as fractions of the base table bytes.
	// The paper's 10–25 MB against a 22 MB base table correspond to
	// {0.45, 0.68, 0.91, 1.14}.
	CacheFractions []float64
	// LookupBudget bounds nodes per exhaustive (ESM/ESMC) lookup; 0 means
	// faithful unbounded search. Budget misses fall back to the backend and
	// are reported.
	LookupBudget int64
	// Latency is the backend latency model.
	Latency backend.LatencyModel
	// MaxQueryWidth bounds generated query regions (chunks per dimension).
	MaxQueryWidth int
}

// DefaultConfig returns the configuration used by cmd/aggbench unless
// overridden by flags.
func DefaultConfig(scale apb.Scale) Config {
	return Config{
		Scale:          scale,
		Seed:           1,
		Queries:        100,
		CacheFractions: []float64{0.45, 0.68, 0.91, 1.14},
		LookupBudget:   4_000_000,
		Latency:        backend.DefaultLatency,
		MaxQueryWidth:  2,
	}
}

// Env is the shared experimental fixture: schema, grid, dataset, backend and
// size oracle.
type Env struct {
	Cfg     Config
	APB     apb.Config
	Grid    *chunk.Grid
	Table   *data.Table
	Backend *backend.Engine
	Sizer   sizer.Sizer
}

// NewEnv builds the fixture for a configuration.
func NewEnv(cfg Config) (*Env, error) {
	if cfg.Queries <= 0 {
		cfg.Queries = 100
	}
	if cfg.MaxQueryWidth <= 0 {
		cfg.MaxQueryWidth = 2
	}
	if len(cfg.CacheFractions) == 0 {
		cfg.CacheFractions = []float64{0.45, 0.68, 0.91, 1.14}
	}
	ac := apb.New(cfg.Scale)
	grid, tab, err := ac.Build(cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	be, err := backend.NewEngine(grid, tab, cfg.Latency)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	return &Env{
		Cfg:     cfg,
		APB:     ac,
		Grid:    grid,
		Table:   tab,
		Backend: be,
		Sizer:   sizer.NewEstimate(grid, int64(tab.Len())),
	}, nil
}

// BaseBytes returns the footprint of the base table in cache terms (one
// cell per fact row).
func (e *Env) BaseBytes() int64 {
	return int64(e.Table.Len())*chunk.CellBytes +
		int64(e.Grid.NumChunks(e.Grid.Lattice().Base()))*chunk.OverheadBytes
}

// CacheSizes resolves the configured fractions into byte capacities.
func (e *Env) CacheSizes() []int64 {
	base := e.BaseBytes()
	out := make([]int64, len(e.Cfg.CacheFractions))
	for i, f := range e.Cfg.CacheFractions {
		out[i] = int64(f * float64(base))
	}
	return out
}

// SizeLabel renders a cache size the way the paper labels its x axes.
func SizeLabel(bytes int64) string {
	switch {
	case bytes >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(bytes)/(1<<20))
	case bytes >= 1<<10:
		return fmt.Sprintf("%.0fKB", float64(bytes)/(1<<10))
	}
	return fmt.Sprintf("%dB", bytes)
}

// StrategyName selects a lookup strategy (strategy.New).
type StrategyName string

// Strategy names accepted by SystemSpec.
const (
	StratESM   StrategyName = "ESM"
	StratESMC  StrategyName = "ESMC"
	StratVCM   StrategyName = "VCM"
	StratVCMC  StrategyName = "VCMC"
	StratNoAgg StrategyName = "NoAgg"
)

// NewStrategy instantiates a fresh strategy over the environment's grid.
// budget applies to the exhaustive methods only.
func (e *Env) NewStrategy(name StrategyName, budget int64) (strategy.Strategy, error) {
	return strategy.New(string(name), e.Grid, e.Sizer, budget)
}

// PolicyName selects a replacement policy (cache.NewPolicy).
type PolicyName string

// Policy names accepted by SystemSpec.
const (
	PolicyBenefit         PolicyName = "benefit"
	PolicyTwoLevel        PolicyName = "two-level"
	PolicyTwoLevelPromote PolicyName = "two-level-promote"
	PolicyLRU             PolicyName = "lru"
)

// System bundles one cache/strategy/engine instance under test.
type System struct {
	Engine   *core.Engine
	Cache    cache.Store
	Strategy strategy.Strategy
	// Preloaded is the group-by preloading chose, if preloading ran.
	Preloaded string
}

// SystemSpec describes how to build a System.
type SystemSpec struct {
	Strategy StrategyName
	Policy   PolicyName
	Bytes    int64
	// ColdBytes, when positive, wraps the hot store in a Tiered store with a
	// compressed in-RAM cold tier of that capacity.
	ColdBytes int64
	Preload   bool
	Budget    int64
	// EngineOpts tune the engine (core.WithReinforce, core.WithRecycling,
	// …).
	EngineOpts []core.Option
	// Backend overrides the environment's shared backend (e.g. one behind a
	// fault injector or a slept latency model).
	Backend backend.Backend
}

// NewSystem builds an engine with its own cache and strategy over the shared
// backend.
func (e *Env) NewSystem(spec SystemSpec) (*System, error) {
	strat, err := e.NewStrategy(spec.Strategy, spec.Budget)
	if err != nil {
		return nil, err
	}
	pol, err := cache.NewPolicy(string(spec.Policy))
	if err != nil {
		return nil, err
	}
	c, err := cache.New(spec.Bytes, pol)
	if err != nil {
		return nil, err
	}
	if spec.ColdBytes > 0 {
		if c, err = cache.NewTiered(c, spec.ColdBytes); err != nil {
			return nil, err
		}
	}
	be := backend.Backend(e.Backend)
	if spec.Backend != nil {
		be = spec.Backend
	}
	eng, err := core.New(e.Grid, c, strat, be, e.Sizer, spec.EngineOpts...)
	if err != nil {
		return nil, err
	}
	sys := &System{Engine: eng, Cache: c, Strategy: strat}
	if spec.Preload {
		gb, ok, err := eng.Preload(context.Background())
		if err != nil {
			return nil, err
		}
		if ok {
			sys.Preloaded = e.Grid.Lattice().LevelTupleString(gb)
		}
	}
	return sys, nil
}

// msString renders a duration in fractional milliseconds like the paper's
// tables.
func msString(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d)/float64(time.Millisecond))
}
