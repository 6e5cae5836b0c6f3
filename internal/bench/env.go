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

// NewStrategy instantiates a fresh strategy (strategy.New) over the
// environment's grid. budget applies to the exhaustive methods only.
func (e *Env) NewStrategy(name string, budget int64) (strategy.Strategy, error) {
	return strategy.New(name, e.Grid, e.Sizer, budget)
}

// NewSystem builds a stack from cfg over the environment's grid, dataset and
// shared backend — cfg.Backend, when set, overrides the backend (e.g. one
// behind a fault injector or a slept latency model) — and with preload
// fills it with the best-fitting group-by first.
func (e *Env) NewSystem(cfg core.Config, preload bool) (*core.Stack, error) {
	cfg.Grid, cfg.Rows = e.Grid, int64(e.Table.Len())
	if cfg.Backend == nil {
		cfg.Backend = e.Backend
	}
	st, err := core.Build(cfg)
	if err != nil {
		return nil, err
	}
	if preload {
		if _, _, err := st.Engine.Preload(context.Background()); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// msString renders a duration in fractional milliseconds like the paper's
// tables.
func msString(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d)/float64(time.Millisecond))
}
