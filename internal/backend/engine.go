package backend

import (
	"context"
	"fmt"
	"sort"
	"time"

	"aggcache/internal/chunk"
	"aggcache/internal/data"
	"aggcache/internal/lattice"
	"aggcache/internal/obs"
)

// factSource is the chunk-clustered fact table. Rows are stored
// column-major, sorted by base chunk number, with a dense offset index — the
// paper's "clustered index on the chunk number". It is immutable once built,
// so scans read it without a lock.
type factSource struct {
	cols    [][]int32 // cols[d][r] = row r's member of dimension d at base level
	values  []float64 // measure values
	offsets []int64   // offsets[c]..offsets[c+1] = row range of base chunk c
}

// Engine is the in-process backend: the fact table stored clustered by base
// chunk number, with an aggregation executor.
//
// ComputeChunks and EstimateScans are safe for concurrent use: the cache
// engine issues backend round trips outside its own lock, so several queries
// can be in flight here at once. The fact source is immutable and every
// request's scratch is its own, so no lock is taken.
type Engine struct {
	grid    *chunk.Grid
	latency LatencyModel
	src     *factSource

	// met is the optional live-metrics bundle (zero value records nothing);
	// handles are atomics, so ComputeChunks records without a lock.
	met obs.BackendMetrics
}

// NewEngine loads the fact table into clustered chunk order. The table is
// copied; the caller may discard it.
func NewEngine(g *chunk.Grid, tab *data.Table, latency LatencyModel) (*Engine, error) {
	if tab.Schema() != g.Schema() {
		return nil, fmt.Errorf("backend: table and grid use different schemas")
	}
	return &Engine{grid: g, latency: latency, src: clusterTable(g, tab)}, nil
}

// clusterTable sorts the fact rows by base chunk number into a columnar
// source and builds its offset index.
func clusterTable(g *chunk.Grid, tab *data.Table) *factSource {
	base := g.Lattice().Base()
	n := tab.Len()
	nums := make([]int32, n)
	order := make([]int32, n)
	for i := 0; i < n; i++ {
		num, _ := g.ChunkOfCell(base, tab.Row(i))
		nums[i] = int32(num)
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool { return nums[order[a]] < nums[order[b]] })
	s := &factSource{
		cols:    make([][]int32, g.Schema().NumDims()),
		values:  make([]float64, n),
		offsets: make([]int64, g.NumChunks(base)+1),
	}
	for d := range s.cols {
		s.cols[d] = make([]int32, n)
	}
	c := 0
	for i, ri := range order {
		for d, m := range tab.Row(int(ri)) {
			s.cols[d][i] = m
		}
		s.values[i] = tab.Value(int(ri))
		for ; c <= int(nums[ri]); c++ {
			s.offsets[c] = int64(i)
		}
	}
	for ; c < len(s.offsets); c++ {
		s.offsets[c] = int64(n)
	}
	return s
}

// Rows returns the number of base fact rows loaded.
func (e *Engine) Rows() int64 { return int64(len(e.src.values)) }

// Grid returns the engine's chunk grid.
func (e *Engine) Grid() *chunk.Grid { return e.grid }

// SetMetrics attaches live observability metrics. Call it before the engine
// serves requests; it is not synchronized with requests in flight.
func (e *Engine) SetMetrics(m obs.BackendMetrics) { e.met = m }

// scan is one request resolved against the clustered index: per requested
// chunk, the fact row runs feeding that chunk. ComputeChunks reads the runs
// and EstimateScans adds up their lengths, so an estimate cannot drift from
// what a scan reads.
type scan struct {
	grid *chunk.Grid
	gb   lattice.ID
	src  *factSource
	sbuf []int
	runs []rowRun
}

// rowRun is a half-open range of fact rows.
type rowRun struct{ lo, hi int64 }

// openScan validates the group-by and opens a scan of the fact source.
func (e *Engine) openScan(gb lattice.ID) (scan, error) {
	if int(gb) < 0 || int(gb) >= e.grid.Lattice().NumNodes() {
		return scan{}, fmt.Errorf("backend: group-by %d out of range", gb)
	}
	return scan{grid: e.grid, gb: gb, src: e.src}, nil
}

// runsOf returns the fact rows feeding chunk num and their count: the
// clustered runs of its base ancestor chunks in chunk-number order, empty runs
// dropped and adjacent ones joined. The slice is reused by the next call.
func (s *scan) runsOf(num int) ([]rowRun, int64, error) {
	if num < 0 || num >= s.grid.NumChunks(s.gb) {
		return nil, 0, fmt.Errorf("backend: chunk %d of group-by %s out of range", num, s.grid.Lattice().LevelTupleString(s.gb))
	}
	s.sbuf = s.grid.AncestorChunks(s.gb, num, s.grid.Lattice().Base(), s.sbuf[:0])
	s.runs = s.runs[:0]
	var tuples int64
	for _, c := range s.sbuf {
		lo, hi := s.src.offsets[c], s.src.offsets[c+1]
		if n := len(s.runs); n > 0 && s.runs[n-1].hi == lo {
			s.runs[n-1].hi = hi
		} else if lo < hi {
			s.runs = append(s.runs, rowRun{lo, hi})
		}
		tuples += hi - lo
	}
	return s.runs, tuples, nil
}

// scanBlock is the number of rows keyed per pass: the key scratch lives on
// the scanning goroutine's stack and stays in L1 between the keying passes
// and the accumulate.
const scanBlock = 512

// ComputeChunks implements Backend. Each requested chunk's region is located
// through the clustered index and scanned once, a block of rows at a time:
// one pass per dimension keys the block through the grid's ancestor-offset
// tables (chunk.RowKeyer), then one bulk accumulate folds it into the target
// chunk's cell map.
func (e *Engine) ComputeChunks(ctx context.Context, gb lattice.ID, nums []int) ([]*chunk.Chunk, Stats, error) {
	start := time.Now()
	g := e.grid
	sc, err := e.openScan(gb)
	if err != nil {
		return nil, Stats{}, err
	}
	src, base := e.src, g.Lattice().Base()
	var stats Stats
	out := make([]*chunk.Chunk, 0, len(nums))
	var keyer chunk.RowKeyer
	var keys [scanBlock]uint64
	for _, num := range nums {
		// One cancellation check per chunk keeps a long multi-chunk scan
		// responsive to deadlines without per-tuple overhead.
		if err := ctx.Err(); err != nil {
			return nil, Stats{}, err
		}
		runs, tuples, err := sc.runsOf(num)
		if err != nil {
			return nil, Stats{}, err
		}
		if err := keyer.Compose(g, gb, num, base); err != nil {
			return nil, Stats{}, err
		}
		// Pooled accumulator: the built chunk is handed to the caller (which
		// may cache it indefinitely) so Build allocates fresh arrays, but the
		// accumulator itself — the large transient — is reused across chunks
		// and requests.
		cm := g.GetCellMap(gb, num)
		for _, run := range runs {
			for lo := run.lo; lo < run.hi; lo += scanBlock {
				hi := min(lo+scanBlock, run.hi)
				k := keys[:hi-lo]
				keyer.Keys(k, src.cols, int(lo))
				cm.AddCells(k, src.values[lo:hi])
			}
		}
		stats.TuplesScanned += tuples
		c := cm.Build(gb, num)
		chunk.PutCellMap(cm)
		stats.ResultCells += int64(c.Cells())
		out = append(out, c)
	}
	stats.Wall = time.Since(start)
	stats.Sim = e.latency.charge(stats.TuplesScanned)
	e.met.Requests.Inc()
	e.met.Chunks.Add(int64(len(out)))
	e.met.TuplesScanned.Add(stats.TuplesScanned)
	e.met.ResultCells.Add(stats.ResultCells)
	e.met.Wall.Observe(stats.Wall)
	e.met.Sim.Observe(stats.Sim)
	if e.latency.Sleep {
		t := time.NewTimer(stats.Sim)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return nil, Stats{}, ctx.Err()
		}
	}
	return out, stats, nil
}

// EstimateScans implements Backend: the tuples ComputeChunks would read per
// requested chunk, resolved through the clustered index without scanning.
func (e *Engine) EstimateScans(ctx context.Context, gb lattice.ID, nums []int) ([]int64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sc, err := e.openScan(gb)
	if err != nil {
		return nil, err
	}
	ests := make([]int64, len(nums))
	for i, num := range nums {
		if _, ests[i], err = sc.runsOf(num); err != nil {
			return nil, err
		}
	}
	return ests, nil
}

// ComputeGroupBy computes every chunk of a group-by; used for cache
// preloading and for building exact size oracles.
func (e *Engine) ComputeGroupBy(gb lattice.ID) ([]*chunk.Chunk, Stats, error) {
	nums := make([]int, e.grid.NumChunks(gb))
	for i := range nums {
		nums[i] = i
	}
	return e.ComputeChunks(context.Background(), gb, nums)
}

// Close implements Backend; the in-process engine has nothing to release.
func (e *Engine) Close() error { return nil }
