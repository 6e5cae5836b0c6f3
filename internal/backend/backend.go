// Package backend implements the backend database tier of the paper's
// three-tier setup: a fact store clustered on base chunk number (the paper's
// "chunked file organization ... achieved by building a clustered index on
// the chunk number for the fact file"), an aggregation executor that answers
// chunk requests at any group-by level, a latency model standing in for the
// network + commercial-DBMS overhead, and a TCP wire protocol for running
// the backend out of process.
package backend

import (
	"context"
	"time"

	"aggcache/internal/chunk"
	"aggcache/internal/lattice"
)

// Backend answers chunk computation requests — the interface the middle
// tier's cache manager issues its "single SQL statement" equivalent against.
//
// Every data method takes a context: implementations must return promptly
// (with ctx.Err() or an error wrapping it) once the context is cancelled or
// its deadline passes, so a hung backend can never hang a query. Transient
// failures are classified by IsTransient and availability failures wrap
// ErrUnavailable; see errors.go for the taxonomy.
type Backend interface {
	// ComputeChunks computes the requested chunks of group-by gb from the
	// fact data. Chunks are returned in request order; chunks with no data
	// are returned empty (zero cells), never nil.
	ComputeChunks(ctx context.Context, gb lattice.ID, nums []int) ([]*chunk.Chunk, Stats, error)
	// EstimateScans returns, per requested chunk in request order, the
	// number of fact tuples ComputeChunks would scan for it, without
	// executing the request.
	EstimateScans(ctx context.Context, gb lattice.ID, nums []int) ([]int64, error)
	// Close releases resources (network connections for remote backends).
	Close() error
}

// Stats describes the work one backend request performed.
type Stats struct {
	// TuplesScanned counts base fact tuples read.
	TuplesScanned int64
	// ResultCells counts cells across all returned chunks.
	ResultCells int64
	// Sim is the simulated latency charged by the LatencyModel (connection
	// overhead plus per-tuple scan cost).
	Sim time.Duration
	// Wall is the real time the engine spent computing.
	Wall time.Duration
}

// Cost returns the total time attributed to the request: real compute plus
// simulated latency.
func (s Stats) Cost() time.Duration { return s.Wall + s.Sim }

// Add merges another request's stats into s.
func (s *Stats) Add(o Stats) {
	s.TuplesScanned += o.TuplesScanned
	s.ResultCells += o.ResultCells
	s.Sim += o.Sim
	s.Wall += o.Wall
}

// LatencyModel stands in for the backend overheads the paper's testbed had
// (issuing SQL over a network to a commercial DBMS reading a disk-resident
// fact file). The model charges a fixed per-request connection overhead plus
// a per-tuple scan cost; see DESIGN.md §3 for why this preserves the paper's
// comparisons.
type LatencyModel struct {
	// Connect is charged once per ComputeChunks request.
	Connect time.Duration
	// PerTuple is charged per base tuple scanned.
	PerTuple time.Duration
	// Sleep, when true, actually sleeps the simulated latency (used by the
	// three-tier example); otherwise it is only accounted in Stats.Sim.
	Sleep bool
}

// DefaultLatency is calibrated so that, at the experiment scales, computing
// a chunk at the backend is roughly an order of magnitude slower than
// aggregating equivalent cached chunks — the ≈8× factor the paper measured
// (§7.1 "Benefit of Aggregation").
var DefaultLatency = LatencyModel{
	Connect:  3 * time.Millisecond,
	PerTuple: 1200 * time.Nanosecond,
}

// charge returns the simulated latency for one request that scanned n
// tuples.
func (m LatencyModel) charge(n int64) time.Duration {
	return m.Connect + time.Duration(n)*m.PerTuple
}
