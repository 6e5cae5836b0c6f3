package core

import (
	"fmt"
	"strings"

	"aggcache/internal/cache"
	"aggcache/internal/chunk"
	"aggcache/internal/strategy"
)

// Explain describes, without executing anything, how the engine would
// answer q against the current cache contents: per chunk, whether it is
// resident, aggregated along a lattice path (showing the plan tree and its
// cost), or fetched from the backend. Intended for the CLI and debugging.
func (e *Engine) Explain(q Query) (string, error) {
	nq, err := q.normalize(e.grid)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	nums := nq.chunkNumbers(e.grid)
	fmt.Fprintf(&b, "query: group-by %s %s, %d chunk(s)\n",
		e.lat.LevelTupleString(nq.GB), e.lat.String(nq.GB), len(nums))
	backendChunks := 0
	for _, num := range nums {
		plan, found, ferr := e.strat.Find(nq.GB, num)
		switch {
		case ferr != nil:
			fmt.Fprintf(&b, "chunk %d: lookup aborted (%v) -> backend\n", num, ferr)
			backendChunks++
		case !found:
			fmt.Fprintf(&b, "chunk %d: not computable -> backend\n", num)
			backendChunks++
		case plan.Present:
			fmt.Fprintf(&b, "chunk %d: resident in cache\n", num)
		default:
			// Peek (no replacement or counter side effects) at the local
			// store's leaves so the scan total is their real cell counts.
			leafData := make(map[cache.Key]*chunk.Chunk)
			if local := e.local(); local != nil {
				for _, k := range plan.Leaves(nil) {
					if c, ok := local.Peek(k); ok {
						leafData[k] = c
					}
				}
			}
			cost := plan.Cost
			if cost == 0 {
				// ESM/VCM plans carry no cost; the leaves' cells are what a
				// flattened roll-up scans.
				cost = e.leafCells(plan, leafData)
			}
			var tree strings.Builder
			scan := e.writePlan(&tree, plan, 1, leafData)
			fmt.Fprintf(&b, "chunk %d: aggregate in cache (cost %d tuples, %d plan nodes, scans %d tuples)\n",
				num, cost, plan.Nodes(), scan)
			b.WriteString(tree.String())
		}
	}
	if backendChunks > 0 {
		fmt.Fprintf(&b, "backend: one batched request for %d chunk(s)\n", backendChunks)
	} else {
		fmt.Fprintf(&b, "complete hit: no backend access needed\n")
	}
	return b.String(), nil
}

// writePlan renders the subtree rooted at p and returns the tuples the
// executor will scan to fold it into its nearest materialized ancestor: a
// leaf's cells, an admitted node's own cells plus what building it scans, or
// — for an inlined node, which is never built — just its inputs' totals.
func (e *Engine) writePlan(b *strings.Builder, p *strategy.Plan, depth int, leafData map[cache.Key]*chunk.Chunk) int64 {
	indent := strings.Repeat("  ", depth)
	if p.Present {
		fmt.Fprintf(b, "%s- chunk %d of %s [cached]\n", indent, p.Num, e.lat.LevelTupleString(p.GB))
		return e.leafCells(p, leafData)
	}
	// Interior nodes (depth > 1: below the plan root, which is always
	// materialized as the query's answer) carry the recycler's verdict.
	note, scan := "", int64(0)
	if depth > 1 {
		var admit bool
		if note, admit = e.recycleAnnotation(p, leafData); admit {
			scan = e.sizes.ChunkCells(p.GB, p.Num)
		} else {
			note += " [inlined]"
		}
	}
	fmt.Fprintf(b, "%s- chunk %d of %s <- aggregate %d chunk(s) of %s%s\n",
		indent, p.Num, e.lat.LevelTupleString(p.GB), len(p.Inputs), e.lat.LevelTupleString(p.Via), note)
	for _, in := range p.Inputs {
		scan += e.writePlan(b, in, depth+1, leafData)
	}
	return scan
}

// recycleAnnotation renders the admission decision the recycler would make
// for one interior plan node — the executor's own recycleVerdict, without
// spending the node's one-shot admission. A node the recycler declines is
// inlined: never materialized, its leaves roll straight into the nearest
// materialized ancestor.
func (e *Engine) recycleAnnotation(p *strategy.Plan, leafData map[cache.Key]*chunk.Chunk) (note string, admit bool) {
	if !e.opts.recycle {
		return " [recycle: off]", false
	}
	admit, spent, _, perByte := e.recycleVerdict(p, leafData, false)
	verdict := "reject"
	if admit {
		verdict = "admit"
	} else if spent {
		verdict = "reject (one-shot admission spent)"
	}
	return fmt.Sprintf(" [recycle: %s, benefit %.3f/B]", verdict, perByte), admit
}
