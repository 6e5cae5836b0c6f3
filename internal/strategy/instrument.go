package strategy

import (
	"sync/atomic"
	"time"

	"aggcache/internal/lattice"
	"aggcache/internal/obs"
)

// findSampleMask samples 1 in 16 Find calls for latency timing. Find runs
// once per chunk on the engine's hottest path; the counters are single
// atomic adds but timing needs two clock reads, so it is sampled — the
// histogram stays statistically representative (calls are sampled by
// arrival order, not outcome) at a sixteenth of the cost.
const findSampleMask = 15

// instrumented decorates a Strategy with live observability: every Find is
// counted, its visited-node total accumulated, and a sample of calls timed
// into a log-scale histogram, all labeled with the wrapped strategy's name.
// Everything else — listener callbacks, overhead accounting, maintenance
// counters — delegates unchanged, so an instrumented strategy is a drop-in
// anywhere a Strategy is accepted (including as the cache's listener).
type instrumented struct {
	Strategy
	met obs.StrategyMetrics
	n   atomic.Int64
}

// Instrument wraps s with the given metric bundle. Wrap before handing the
// strategy to core.New so the engine's lookups are observed.
func Instrument(s Strategy, m obs.StrategyMetrics) Strategy {
	return &instrumented{Strategy: s, met: m}
}

// Find delegates to the wrapped strategy, recording call count, plan hits,
// visited nodes, and (for sampled calls) latency. The added cost is a few
// atomic adds, plus two clock reads on every sixteenth call.
//
// Visited nodes are counted from the call's own result: a hit visits the
// plan's nodes and a miss one node, which is exactly what VCM, VCMC and
// NoAgg do. (For an exhaustive strategy it counts the plan, not the search
// behind it.) Nothing is read back from shared state, so concurrent Finds
// are never charged each other's counts.
func (i *instrumented) Find(gb lattice.ID, num int) (*Plan, bool, error) {
	sampled := i.n.Add(1)&findSampleMask == 0
	var start time.Time
	if sampled {
		start = time.Now()
	}
	p, ok, err := i.Strategy.Find(gb, num)
	if sampled {
		i.met.FindLatency.Observe(time.Since(start))
	}
	i.met.Finds.Inc()
	if ok {
		i.met.FindHits.Inc()
	}
	visited := int64(1)
	if ok {
		visited = int64(p.Nodes())
	}
	i.met.NodesVisited.Add(visited)
	return p, ok, err
}

// Unwrap returns the underlying strategy.
func (i *instrumented) Unwrap() Strategy { return i.Strategy }
