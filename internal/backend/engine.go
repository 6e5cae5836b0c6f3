package backend

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"aggcache/internal/chunk"
	"aggcache/internal/data"
	"aggcache/internal/lattice"
	"aggcache/internal/obs"
)

// factSource is one chunk-clustered relation the engine can scan: the base
// fact table, or a materialized aggregate of it. Rows are stored
// column-major, sorted by chunk number at the source's group-by level, with a
// dense offset index — the paper's "clustered index on the chunk number". A
// source is immutable once built, so scans read it without a lock.
type factSource struct {
	gb      lattice.ID
	cols    [][]int32 // cols[d][r] = row r's member of dimension d at gb's level
	values  []float64 // measure sums
	counts  []int64   // contributing fact-row counts; nil = one each (base rows)
	offsets []int64   // offsets[c]..offsets[c+1] = row range of chunk c
}

func (s *factSource) rows() int64 { return int64(len(s.values)) }

func newFactSource(g *chunk.Grid, gb lattice.ID, rows int) *factSource {
	s := &factSource{
		gb:      gb,
		cols:    make([][]int32, g.Schema().NumDims()),
		values:  make([]float64, rows),
		offsets: make([]int64, g.NumChunks(gb)+1),
	}
	for d := range s.cols {
		s.cols[d] = make([]int32, rows)
	}
	return s
}

// Engine is the in-process backend: the fact table (plus any materialized
// aggregate group-bys) stored clustered by chunk number, with an aggregation
// executor. Materialized aggregates model the pre-computed summary tables a
// production warehouse keeps (§7.1 notes the backend-vs-cache factor depends
// on their presence).
//
// ComputeChunks and EstimateScan are safe for concurrent use: the cache
// engine issues backend round trips outside its own lock, so several queries
// can be in flight here at once. mu guards the sources map only (taken once
// per request, to pick the source); a source is immutable once built.
type Engine struct {
	grid    *chunk.Grid
	latency LatencyModel

	mu      sync.RWMutex
	sources map[lattice.ID]*factSource

	// met is the optional live-metrics bundle (zero value records nothing);
	// handles are atomics, so ComputeChunks records without taking mu.
	met obs.BackendMetrics
}

// NewEngine loads the fact table into clustered chunk order. The table is
// copied; the caller may discard it.
func NewEngine(g *chunk.Grid, tab *data.Table, latency LatencyModel) (*Engine, error) {
	if tab.Schema() != g.Schema() {
		return nil, fmt.Errorf("backend: table and grid use different schemas")
	}
	base := g.Lattice().Base()
	return &Engine{
		grid:    g,
		latency: latency,
		sources: map[lattice.ID]*factSource{base: clusterTable(g, base, tab)},
	}, nil
}

// clusterTable sorts the fact rows by base chunk number into a columnar
// source and builds its offset index.
func clusterTable(g *chunk.Grid, base lattice.ID, tab *data.Table) *factSource {
	n := tab.Len()
	nums := make([]int32, n)
	order := make([]int32, n)
	for i := 0; i < n; i++ {
		num, _ := g.ChunkOfCell(base, tab.Row(i))
		nums[i] = int32(num)
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool { return nums[order[a]] < nums[order[b]] })
	s := newFactSource(g, base, n)
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
func (e *Engine) Rows() int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.sources[e.grid.Lattice().Base()].rows()
}

// Grid returns the engine's chunk grid.
func (e *Engine) Grid() *chunk.Grid { return e.grid }

// SetMetrics attaches live observability metrics. Call it before the engine
// serves requests; it is not synchronized with requests in flight.
func (e *Engine) SetMetrics(m obs.BackendMetrics) { e.met = m }

// Materialize precomputes and stores the given group-bys, clustered on
// chunk number, so requests on their descendants scan the (much smaller)
// aggregate instead of the base table — the warehouse's summary tables.
func (e *Engine) Materialize(gbs ...lattice.ID) error {
	lat := e.grid.Lattice()
	for _, gb := range gbs {
		if int(gb) < 0 || int(gb) >= lat.NumNodes() {
			return fmt.Errorf("backend: materialize: group-by %d out of range", gb)
		}
		e.mu.RLock()
		_, ok := e.sources[gb]
		e.mu.RUnlock()
		if ok {
			continue
		}
		chunks, stats, err := e.ComputeGroupBy(gb)
		if err != nil {
			return fmt.Errorf("backend: materialize %s: %w", lat.LevelTupleString(gb), err)
		}
		// Chunks arrive in chunk-number order with keys sorted, so writing
		// their cells out in sequence is already the clustered order.
		src := newFactSource(e.grid, gb, int(stats.ResultCells))
		src.counts = make([]int64, stats.ResultCells)
		var mbuf [16]int32
		r := 0
		for num, c := range chunks {
			src.offsets[num] = int64(r)
			for i, key := range c.Keys {
				for d, m := range e.grid.CellMembers(gb, num, key, mbuf[:0]) {
					src.cols[d][r] = m
				}
				src.values[r], src.counts[r] = c.Vals[i], c.Counts[i]
				r++
			}
		}
		src.offsets[len(chunks)] = int64(r)
		e.mu.Lock()
		e.sources[gb] = src
		e.mu.Unlock()
	}
	return nil
}

// Materialized returns the group-bys with a materialized source (always
// including the base).
func (e *Engine) Materialized() []lattice.ID {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]lattice.ID, 0, len(e.sources))
	for gb := range e.sources {
		out = append(out, gb)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// scan is one request resolved against the clustered index: the source that
// answers it and, per requested chunk, the source row runs feeding that
// chunk. ComputeChunks reads the runs and EstimateScans adds up their
// lengths, so the estimate the §5.2 cost bypass compares against cannot
// drift from what a scan reads.
type scan struct {
	grid *chunk.Grid
	gb   lattice.ID
	src  *factSource
	sbuf []int
	runs []rowRun
}

// rowRun is a half-open range of source rows.
type rowRun struct{ lo, hi int64 }

// openScan validates the group-by and picks the smallest materialized
// relation that can answer it.
func (e *Engine) openScan(gb lattice.ID) (scan, error) {
	lat := e.grid.Lattice()
	if int(gb) < 0 || int(gb) >= lat.NumNodes() {
		return scan{}, fmt.Errorf("backend: group-by %d out of range", gb)
	}
	sc := scan{grid: e.grid, gb: gb}
	e.mu.RLock()
	defer e.mu.RUnlock()
	for sgb, s := range e.sources {
		if lat.ComputableFrom(gb, sgb) && (sc.src == nil || s.rows() < sc.src.rows()) {
			sc.src = s
		}
	}
	return sc, nil // src is never nil: the base answers everything
}

// runsOf returns the source rows feeding chunk num and their count: the
// clustered runs of its ancestor chunks in chunk-number order, empty runs
// dropped and adjacent ones joined. The slice is reused by the next call.
func (s *scan) runsOf(num int) ([]rowRun, int64, error) {
	if num < 0 || num >= s.grid.NumChunks(s.gb) {
		return nil, 0, fmt.Errorf("backend: chunk %d of group-by %s out of range", num, s.grid.Lattice().LevelTupleString(s.gb))
	}
	s.sbuf = s.grid.AncestorChunks(s.gb, num, s.src.gb, s.sbuf[:0])
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
// through the clustered index of the smallest applicable source and scanned
// once, a block of rows at a time: one pass per dimension keys the block
// through the grid's ancestor-offset tables (chunk.RowKeyer), then one bulk
// accumulate folds it into the target chunk's cell map.
func (e *Engine) ComputeChunks(ctx context.Context, gb lattice.ID, nums []int) ([]*chunk.Chunk, Stats, error) {
	start := time.Now()
	g := e.grid
	sc, err := e.openScan(gb)
	if err != nil {
		return nil, Stats{}, err
	}
	src := sc.src
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
		if err := keyer.Compose(g, gb, num, src.gb); err != nil {
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
				if src.counts == nil {
					cm.AddCells(k, src.values[lo:hi], nil)
				} else {
					cm.AddCells(k, src.values[lo:hi], src.counts[lo:hi])
				}
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

// EstimateScan implements Backend: the total over EstimateScans.
func (e *Engine) EstimateScan(ctx context.Context, gb lattice.ID, nums []int) (int64, error) {
	ests, err := e.EstimateScans(ctx, gb, nums) // nil on error
	var total int64
	for _, est := range ests {
		total += est
	}
	return total, err
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
