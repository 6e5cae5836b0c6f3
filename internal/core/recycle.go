package core

import (
	"aggcache/internal/cache"
	"aggcache/internal/chunk"
	"aggcache/internal/strategy"
)

// recycleGhostMax bounds the one-shot admission ghost set (~3 MB of map at
// worst) — far above any realistic distinct-intermediate count.
const recycleGhostMax = 1 << 17

// planSavedCost is the recompute cost keeping interior plan node n would
// save: the strategy's O(1) CostEstimate — exactly what the cache would pay
// to re-derive the node from what stays resident after this query (its
// inputs are pinned leaves, so they survive it). Strategies without the
// benefit API fall back to the cells of the subtree's leaves, which is what a
// flattened re-derivation scans; leafData holds the leaf payloads (pinned
// snapshots in the executor, Peeked ones in Explain).
//
// A zero estimate means the chunk is already resident (a concurrent query
// inserted it between planning and now): re-admitting buys nothing.
func (e *Engine) planSavedCost(n *strategy.Plan, leafData map[cache.Key]*chunk.Chunk) int64 {
	if e.est != nil {
		if c, ok := e.est.CostEstimate(n.GB, n.Num); ok {
			return c
		}
	}
	return e.leafCells(n, leafData)
}

// leafCells totals the cells of the present leaves under plan node n — the
// tuples a flattened roll-up of n scans. A leaf missing from leafData (it
// left the cache under Explain's feet) counts at the sizer's estimate.
func (e *Engine) leafCells(n *strategy.Plan, leafData map[cache.Key]*chunk.Chunk) int64 {
	if n.Present {
		if c := leafData[cache.Key{GB: n.GB, Num: int32(n.Num)}]; c != nil {
			return int64(c.Cells())
		}
		return e.sizes.ChunkCells(n.GB, n.Num)
	}
	var cells int64
	for _, in := range n.Inputs {
		cells += e.leafCells(in, leafData)
	}
	return cells
}

// recycleVerdict is the recycler's one admission rule, shared by the
// executor and Explain and decided before anything is built: interior plan
// node n is worth materializing and keeping when perByte — the recompute
// cost it saves (planSavedCost) per byte of the footprint the sizer expects
// it to occupy — clears the threshold and its one-shot admission is unspent.
// spent reports a node that cleared the threshold but had its admission.
//
// The one-shot admission is a ghost set of every key the recycler ever
// admitted: a key that was admitted, evicted unpromoted and comes around
// again is refused — it had its residency window and nothing reused it.
// Without it, a steady-state workload re-materializes, re-admits and
// re-evicts the same unprofitable intermediates every pass, and the churn
// costs strategy maintenance. Intermediates that DO get reused are promoted
// to the protected ring by the reinforcement path and never come back
// through here. The ghost set is bounded by reset: losing it merely re-opens
// one admission window per key. spend consumes the admission on an admit
// (the executor, which then builds the node); Explain only reads the set.
func (e *Engine) recycleVerdict(n *strategy.Plan, leafData map[cache.Key]*chunk.Chunk, spend bool) (admit, spent bool, cost int64, perByte float64) {
	if !e.opts.recycle {
		return false, false, 0, 0
	}
	cost = e.planSavedCost(n, leafData)
	perByte = float64(cost) / float64(chunk.Footprint(e.sizes.ChunkCells(n.GB, n.Num), 1))
	if perByte < e.opts.recycleMinBenefit {
		return false, false, cost, perByte
	}
	k := cache.Key{GB: n.GB, Num: int32(n.Num)}
	e.recycleMu.Lock()
	defer e.recycleMu.Unlock()
	if _, spent = e.recycleSeen[k]; spent || !spend {
		return !spent, spent, cost, perByte
	}
	if len(e.recycleSeen) >= recycleGhostMax {
		e.recycleSeen = make(map[cache.Key]struct{}, recycleGhostMax/4)
	}
	e.recycleSeen[k] = struct{}{}
	return true, false, cost, perByte
}
