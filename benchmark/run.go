package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"aggcache/internal/apb"
	"aggcache/internal/cache"
	"aggcache/internal/chunk"
	"aggcache/internal/core"
	"aggcache/internal/mdq"
	"aggcache/internal/mtier"
	"aggcache/internal/obs"
	"aggcache/internal/strategy"
	"aggcache/internal/wire"
)

// session is a stack brought to the point where the timed window opens:
// dataset built, sockets up, preload done, clients connected, warm-up sent.
type session struct {
	ds      *dataset
	st      *stack
	clients []*mtier.Client
	streams []*stream
	// setup is the wall time all of the above took.
	setup time.Duration
}

// openSession builds everything a run needs. With nconn > 0 it has nconn
// connections (connection i to node i mod nodes), each multiplexing
// usersPerConn user streams (user u: seed+u), warmed up concurrently. With
// nconn == 0 it is the one-client session of the traced pass: one connection
// per node, the single stream of user 0, warm-up sent one query at a time. tr
// selects the traced stack.
func openSession(scale apb.Scale, spec workloadSpec, seed int64, nconn int, tr *tracer) (_ *session, err error) {
	start := time.Now()
	s := &session{}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	if s.ds, err = buildDataset(scale); err != nil {
		return nil, err
	}
	if s.st, err = buildStack(s.ds, spec, tr); err != nil {
		return nil, err
	}
	nstreams, single := nconn*usersPerConn, nconn == 0
	if single {
		nconn, nstreams = spec.Nodes, 1
	}
	if s.clients, err = s.st.dialClients(nconn); err != nil {
		return nil, err
	}
	warm := sizingFor(scale, spec).warmup
	for u := 0; u < nstreams; u++ {
		st, err := newStream(s.ds, spec, seed, u)
		if err != nil {
			return nil, err
		}
		s.streams = append(s.streams, st)
	}
	if single {
		if t, _ := oneByOne(s.clients, warmupTexts(s.streams, 1, warm)[0], nil); t.ok != t.sent {
			return nil, fmt.Errorf("warm-up: %d of %d queries failed", t.sent-t.ok, t.sent)
		}
	} else if err = replay(s.clients, warmupTexts(s.streams, nconn, warm)); err != nil {
		return nil, err
	}
	s.setup = time.Since(start)
	return s, nil
}

func (s *session) close() {
	closeClients(s.clients)
	if s.st != nil {
		s.st.Close()
	}
}

// counters is a snapshot of every public counter of the stack, summed over
// its nodes. Deltas between two snapshots attribute work to a pass.
type counters struct {
	eng   core.Stats
	store cache.Stats
	tier  cache.TierStats
	peer  cache.PeerStats
	maint strategy.Maint
	// From the obs registries; zero on an untraced stack, which has none.
	wireIn, wireOut, frames int64
	admitted, shed          int64
	chunksAggregated        int64
}

func (s *stack) counters() counters {
	var c counters
	for _, n := range s.nodes {
		es := n.engine.Stats()
		c.eng.Queries += es.Queries
		c.eng.BackendQueries += es.BackendQueries
		c.eng.BackendTuples += es.BackendTuples
		c.eng.AggTuples += es.AggTuples
		c.eng.PeerChunks += es.PeerChunks
		c.eng.Recycled += es.Recycled
		c.eng.RecycleRejected += es.RecycleRejected
		c.eng.ResultCacheHits += es.ResultCacheHits
		ss := n.peered.Stats()
		c.store.Hits += ss.Hits
		c.store.Misses += ss.Misses
		c.store.Inserts += ss.Inserts
		c.store.Evictions += ss.Evictions
		c.store.Denied += ss.Denied
		if ts, ok := n.engine.TierStats(); ok {
			c.tier.ColdHits += ts.ColdHits
			c.tier.Promotes += ts.Promotes
			c.tier.Demotes += ts.Demotes
			c.tier.ColdUsed += ts.ColdUsed
			c.tier.ColdRawBytes += ts.ColdRawBytes
		}
		ps := n.peered.PeerStats()
		c.peer.Fills += ps.Fills
		c.peer.FillMisses += ps.FillMisses
		c.peer.FillErrors += ps.FillErrors
		c.peer.Puts += ps.Puts
		c.peer.PutDrops += ps.PutDrops
		m := n.strat.Maintenance()
		c.maint.Updates += m.Updates
		c.maint.Time += m.Time
		if n.reg == nil {
			continue
		}
		sm := obs.NewServerMetrics(n.reg)
		c.wireIn += sm.WireBytesIn.Value()
		c.wireOut += sm.WireBytesOut.Value()
		c.frames += sm.FramesIn.Value() + sm.FramesOut.Value()
		am := obs.NewAdmissionMetrics(n.reg)
		c.admitted += am.Admitted.Value()
		c.shed += am.ShedQueueFull.Value() + am.ShedDeadline.Value() + am.ShedExpired.Value() + am.ShedQuota.Value()
		c.chunksAggregated += obs.NewEngineMetrics(n.reg).ChunksAggregated.Value()
	}
	return c
}

// residentBytes is what the stores hold right now, hot and cold, all nodes.
func (s *stack) residentBytes() (used int64, overhead int64) {
	for _, n := range s.nodes {
		used += n.peered.Used()
		overhead += n.strat.Overhead()
	}
	return used, overhead
}

// procSample is the Go runtime state the runtime.* metrics difference across
// the window.
type procSample struct {
	mutexWait  float64 // seconds
	allocBytes uint64
	gcPauseNS  uint64
	heapSysMB  float64
}

func sampleProc() procSample {
	var p procSample
	ms := []metrics.Sample{
		{Name: "/sync/mutex/wait/total:seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(ms)
	if ms[0].Value.Kind() == metrics.KindFloat64 {
		p.mutexWait = ms[0].Value.Float64()
	}
	if ms[1].Value.Kind() == metrics.KindUint64 {
		p.allocBytes = ms[1].Value.Uint64()
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	p.gcPauseNS = mem.PauseTotalNs
	p.heapSysMB = float64(mem.HeapSys) / (1 << 20)
	return p
}

// procStatusMB reads one "<key>: <n> kB" line of /proc/self/status.
func procStatusMB(key string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), key+":"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// report is everything one invocation measured for one workload.
type report struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// E2E and Layers map metric name to value; units live in spec.go.
	E2E    map[string]float64 `json:"end_to_end,omitempty"`
	Layers map[string]float64 `json:"per_layer,omitempty"`
	// Counts are the traced pass's raw counters. For a fixed seed they repeat
	// exactly on the closed-loop workloads.
	Counts map[string]int64 `json:"traced_counts,omitempty"`
	// Attempted and Failed cover every request of the invocation: the timed
	// window plus, when traced, the one-client pass.
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	// Problems lists failed shape guards and the first wrong answer; empty
	// means the run is valid and correct.
	Problems    []string `json:"problems,omitempty"`
	WallSeconds float64  `json:"wall_seconds"`
	Env         *envInfo `json:"env,omitempty"`
}

func (r *report) correct() bool { return len(r.Problems) == 0 }

// window is the outcome of one untraced timed window.
type window struct {
	// ds is the dataset the window ran on and setup how long its session
	// took to open; both outlive the session.
	ds    *dataset
	setup time.Duration
	tally *tally
	wall  time.Duration
	wrong int64
	// marks cut the window into subWindows slices; marks[0] is its start and
	// the last one its end.
	marks []mark
	// before/after bracket the window.
	procBefore, procAfter procSample
	ctrBefore, ctrAfter   counters
	rssMB                 float64
}

// runWindow opens a session with nconn connections, runs the workload's loop
// for the window and closes the session.
func runWindow(scale apb.Scale, spec workloadSpec, seed int64, nconn int, length time.Duration) (*window, error) {
	sess, err := openSession(scale, spec, seed, nconn, nil)
	if err != nil {
		return nil, err
	}
	defer sess.close()
	w := &window{ds: sess.ds, setup: sess.setup}
	w.ctrBefore = sess.st.counters()
	w.procBefore = sampleProc()
	finish := markWindow(length)
	if spec.Open {
		w.tally, w.wall = openLoop(sess.clients, sess.streams, length, openLoopRate)
	} else {
		w.tally, w.wall = closedLoop(sess.clients, sess.streams, length)
	}
	w.marks = finish()
	w.procAfter = sampleProc()
	w.ctrAfter = sess.st.counters()
	w.rssMB = procStatusMB("VmHWM")
	return w, nil
}

// measure runs one workload as the driver asks: trace 0 yields the end-to-end
// metrics, trace 1 the per-layer ones, trace 2 both (the all-workloads mode).
func measure(scale apb.Scale, spec workloadSpec, seed int64, length time.Duration, trace int, outDir string) (*report, error) {
	started := time.Now()
	nproc := runtime.GOMAXPROCS(0)
	rep := &report{Workload: spec.Name, Seed: seed}

	w, err := runWindow(scale, spec, seed, nproc, length)
	if err != nil {
		return nil, err
	}
	rep.Env = envOf(w.ds, length)
	orc, err := newOracle(w.ds)
	if err != nil {
		return nil, err
	}
	var first error
	w.wrong, first = orc.checkAll(w.tally.checks)
	if first != nil {
		rep.Problems = append(rep.Problems, "wrong answer: "+first.Error())
	}
	rep.Problems = append(rep.Problems, shapeGuards(spec, w)...)
	rep.Attempted = w.tally.sent
	rep.Failed = w.tally.busy + w.tally.failed + w.wrong

	if trace != 1 {
		setups := []float64{w.setup.Seconds()}
		for len(setups) < setupRepeats {
			s, err := openSession(scale, spec, seed, nproc, nil)
			if err != nil {
				return nil, err
			}
			setups = append(setups, s.setup.Seconds())
			s.close()
		}
		rep.E2E = e2eMetrics(w, median(setups))
	}
	if trace != 0 {
		if err := tracedPass(scale, spec, seed, length, w, orc, rep, outDir); err != nil {
			return nil, err
		}
	}
	rep.WallSeconds = time.Since(started).Seconds()
	return rep, nil
}

// shapeGuards checks that the window exercised what the workload is for.
func shapeGuards(spec workloadSpec, w *window) []string {
	t := w.tally
	var out []string
	if t.ok == 0 {
		return []string{"no query was answered"}
	}
	hit := float64(t.completeHits) / float64(t.ok)
	switch spec.Name {
	case "rollup_hit":
		if hit < 0.95 {
			out = append(out, fmt.Sprintf("shape: complete_hit_ratio %.4f < 0.95", hit))
		}
	case "point_hit":
		if p := float64(t.pointHits) / float64(t.ok); p < 0.99 {
			out = append(out, fmt.Sprintf("shape: %.4f of queries are CompleteHit && !Aggregated, want >= 0.99", p))
		}
	case "churn_miss":
		if hit > 0.5 {
			out = append(out, fmt.Sprintf("shape: complete_hit_ratio %.4f > 0.5", hit))
		}
		if w.ctrAfter.store.Evictions == w.ctrBefore.store.Evictions {
			out = append(out, "shape: no evictions in the window")
		}
	case "paper_mix_open":
		late := 0
		for _, l := range t.lag {
			if l > int64(lagLimit) {
				late++
			}
		}
		if share := float64(late) / float64(len(t.lag)); share > lagInvalidShare {
			out = append(out, fmt.Sprintf("invalid: the generator sent %.1f%% of requests more than %v late", 100*share, lagLimit))
		}
	}
	return out
}

// mark is one sub-window boundary: when it was taken, as an offset from the
// window start, and the process CPU time consumed so far.
type mark struct {
	at  time.Duration
	cpu time.Duration
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// markWindow starts sampling the sub-window boundaries of a window that opens
// now. The returned function stops it, adds the closing mark and returns all
// subWindows+1 of them.
func markWindow(length time.Duration) (finish func() []mark) {
	t0 := time.Now()
	marks := []mark{{0, cpuTime()}}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := 1; k < subWindows; k++ {
			select {
			case <-time.After(time.Until(t0.Add(length * time.Duration(k) / subWindows))):
				marks = append(marks, mark{time.Since(t0), cpuTime()})
			case <-stop:
				return
			}
		}
	}()
	return func() []mark {
		close(stop)
		<-done
		return append(marks, mark{time.Since(t0), cpuTime()})
	}
}

// e2eMetrics reduces a window to the end-to-end metrics. Throughput, latency
// and CPU are computed per sub-window and reported as the median of those, so
// a stall or a noisy neighbour in one slice does not own the figure; the two
// ratios are counts over the whole window.
func e2eMetrics(w *window, setupS float64) map[string]float64 {
	t := w.tally
	var qps, p50, p99, cpu []float64
	var pair []int64 // latencies of the current pair of slices
	for k := 0; k+1 < len(w.marks); k++ {
		from, to := w.marks[k], w.marks[k+1]
		last := k+2 == len(w.marks)
		var lat []int64
		for i, at := range t.at {
			// Completions after the closing mark were in flight when the
			// window shut; they belong to the last slice.
			if at >= int64(from.at) && (at < int64(to.at) || last) {
				lat = append(lat, t.lat[i])
			}
		}
		// The tail needs more samples than the median does: p99 is taken
		// over pairs of slices (five per window).
		pair = append(pair, lat...)
		if (k%2 == 1 || last) && len(pair) > 0 {
			p99 = append(p99, percentile(pair, 0.99)/1e6)
			pair = pair[:0]
		}
		if len(lat) == 0 || to.at <= from.at {
			continue
		}
		qps = append(qps, float64(len(lat))/(to.at-from.at).Seconds())
		p50 = append(p50, percentile(lat, 0.50)/1e6)
		cpu = append(cpu, float64(to.cpu-from.cpu)/1e6/float64(len(lat)))
	}
	ok := math.Max(float64(t.ok), 1)
	// Wrong answers come off the throughput in proportion.
	good := float64(t.ok-w.wrong) / ok
	return map[string]float64{
		"setup_s":            setupS,
		"qps":                median(qps) * good,
		"lat_p50_ms":         median(p50),
		"lat_p99_ms":         median(p99),
		"complete_hit_ratio": float64(t.completeHits) / ok,
		"cpu_ms_per_query":   median(cpu),
		"peak_rss_mb":        w.rssMB,
		"ok_ratio":           float64(t.ok-w.wrong) / math.Max(float64(t.sent), 1),
	}
}

// percentile is the nearest-rank q-quantile of xs (nanoseconds in, out).
func percentile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return float64(s[min(max(k, 0), len(s)-1)])
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tracedPass runs the one-client pass twice over the same tracedQueries
// queries — traced (decorators, registries, spans) and plain — and fills in
// the per-layer metrics, the raw counts and the trace file.
func tracedPass(scale apb.Scale, spec workloadSpec, seed int64, length time.Duration, w *window, orc *oracle, rep *report, outDir string) error {
	// Plain pass first: same queries, production objects, for the overhead
	// ratio.
	plain, err := openSession(scale, spec, seed, 0, nil)
	if err != nil {
		return err
	}
	texts := make([]string, sizingFor(scale, spec).traced)
	for i := range texts {
		texts[i] = plain.streams[0].next()
	}
	_, plainWall := oneByOne(plain.clients, texts, nil)
	plain.close()

	tr := newTracer()
	sess, err := openSession(scale, spec, seed, 0, tr)
	if err != nil {
		return err
	}
	defer sess.close()
	for i := range texts {
		if got := sess.streams[0].next(); got != texts[i] {
			return fmt.Errorf("traced pass: stream diverged at query %d", i)
		}
	}
	before := sess.st.counters()
	tr.on.Store(true)
	t, wall := oneByOne(sess.clients, texts, tr)
	tr.on.Store(false)
	after := sess.st.counters()
	spans := tr.resolve()

	wrong, first := orc.checkAll(t.checks)
	if first != nil {
		rep.Problems = append(rep.Problems, "traced pass: wrong answer: "+first.Error())
	}
	rep.Attempted += t.sent
	rep.Failed += t.busy + t.failed + wrong

	used, overhead := sess.st.residentBytes()
	rep.Layers, rep.Counts = layerMetrics(layerInput{
		ds: sess.ds, tr: tr, spans: spans, texts: texts,
		t: t, wall: wall, plainWall: plainWall, wrong: wrong,
		before: before, after: after, used: used, overhead: overhead, w: w,
	})
	if spec.Name == "rollup_hit" {
		ratio, err := scalingRatio(scale, spec, seed, length, w)
		if err != nil {
			return err
		}
		rep.Layers["runtime.scaling_ratio"] = ratio
	}
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		if err := writeSpans(fmt.Sprintf("%s/trace_%s.jsonl", outDir, spec.Name), spans); err != nil {
			return err
		}
	}
	return nil
}

// scalingRatio is qps at GOMAXPROCS=nproc (the window already run) over qps
// at GOMAXPROCS=1, the latter from a quarter-length pass on a fresh stack
// with the same clients.
func scalingRatio(scale apb.Scale, spec workloadSpec, seed int64, length time.Duration, w *window) (float64, error) {
	nproc := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(nproc)
	one, err := runWindow(scale, spec, seed, nproc, length/4)
	if err != nil {
		return 0, err
	}
	qps1 := float64(one.tally.ok) / one.wall.Seconds()
	if qps1 == 0 {
		return 0, nil
	}
	return float64(w.tally.ok) / w.wall.Seconds() / qps1, nil
}

// layerInput is everything layerMetrics reduces.
type layerInput struct {
	ds              *dataset
	tr              *tracer
	spans           []span
	texts           []string
	t               *tally
	wall, plainWall time.Duration
	wrong           int64
	before, after   counters
	used, overhead  int64
	// w is the untraced window, source of the runtime.* and client.* metrics.
	w *window
}

func layerMetrics(in layerInput) (map[string]float64, map[string]int64) {
	n := math.Max(float64(in.t.ok), 1)
	us := func(ns int64) float64 { return float64(ns) / 1e3 / n }
	per := func(c int64) float64 { return float64(c) / n }
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	ops := sumByOp(in.spans)
	b, a := in.before, in.after
	tr := in.tr

	// A request's round trip splits exactly into the self times of the
	// decorated calls plus the client span's own self time - the time no
	// decorator saw. Of that remainder the engine's own clocks identify two
	// parts: the aggregate phase (the roll-up kernel; no decorated call runs
	// inside it) and the lookup phase net of the Find/Pin/Estimate calls it
	// contains (the engine's planning). The rest is the front: mdq compile,
	// admission, framing, syscalls, result encode/decode, and the engine work
	// outside its two wall-clocked phases (normalise, result-cache probe,
	// singleflight, assembly, trimming). Response.Backend and .Update are not
	// used here: they are a reported cost and a strategy-side clock, both
	// already covered by the backend and strategy spans.
	root := ops[opClientQuery]
	lookupCalls := ops[opStratFind].Incl + ops[opCachePin].Incl + ops[opBackendEst].Incl
	coreSelf := max(in.t.lookupNS-lookupCalls, 0)
	front := max(root.SelfNS-coreSelf-in.t.aggNS, 0)
	accounted := front + coreSelf + in.t.aggNS
	for op, t := range ops {
		if op != opClientQuery {
			accounted += t.SelfNS
		}
	}

	maintCalls := ops[opStratInsert].Calls + ops[opStratEvent].Calls
	maintNS := ops[opStratInsert].SelfNS + ops[opStratEvent].SelfNS
	aggTuples := a.eng.AggTuples - b.eng.AggTuples
	backendReqs := ops[opBackendComp].Calls
	fills := a.peer.Fills - b.peer.Fills
	fillTries := fills + (a.peer.FillMisses - b.peer.FillMisses) + (a.peer.FillErrors - b.peer.FillErrors)
	inserts := ops[opCacheInsert].Calls

	m := map[string]float64{
		"mdq.compile_us_per_query":     compileMicros(in.ds, in.texts),
		"mtier.front_us_per_query":     us(front),
		"wire.bytes_in_per_query":      per(a.wireIn - b.wireIn),
		"wire.bytes_out_per_query":     per(a.wireOut - b.wireOut),
		"wire.frames_per_query":        per(a.frames - b.frames),
		"wire.chunk_codec_ns_per_cell": codecNanosPerCell(tr.codecSample),

		"mtier.admitted_per_query": per(a.admitted - b.admitted),
		"mtier.shed_ratio":         ratio(a.shed-b.shed, (a.shed-b.shed)+(a.admitted-b.admitted)),

		"core.lookup_us_per_query":         us(in.t.lookupNS),
		"core.aggregate_us_per_query":      us(in.t.aggNS),
		"core.update_us_per_query":         us(in.t.updateNS),
		"core.backend_us_per_query":        us(in.t.backendNS),
		"core.self_us_per_query":           us(coreSelf),
		"core.chunks_aggregated_per_query": per(a.chunksAggregated - b.chunksAggregated),
		"core.recycled_per_query":          per(a.eng.Recycled - b.eng.Recycled),
		"core.recycle_rejected_per_query":  per(a.eng.RecycleRejected - b.eng.RecycleRejected),
		"core.result_cache_hit_ratio":      per(a.eng.ResultCacheHits - b.eng.ResultCacheHits),
		"core.peer_chunks_per_query":       per(a.eng.PeerChunks - b.eng.PeerChunks),

		"strategy.find_calls_per_query":     per(ops[opStratFind].Calls),
		"strategy.find_us_per_query":        us(ops[opStratFind].SelfNS),
		"strategy.find_hit_ratio":           ratio(tr.findHits.Load(), ops[opStratFind].Calls),
		"strategy.maint_calls_per_query":    per(maintCalls),
		"strategy.maint_us_per_query":       us(maintNS),
		"strategy.maint_updates_per_insert": ratio(a.maint.Updates-b.maint.Updates, ops[opStratInsert].Calls),
		"strategy.overhead_bytes":           float64(in.overhead),

		"chunk.rollup_tuples_per_query": per(aggTuples),
		"chunk.rollup_ns_per_tuple":     ratio(in.t.aggNS, aggTuples),

		"cache.get_calls_per_query":    per(ops[opCacheGet].Calls),
		"cache.get_us_per_query":       us(ops[opCacheGet].SelfNS),
		"cache.pin_us_per_query":       us(ops[opCachePin].SelfNS),
		"cache.reinforce_us_per_query": us(ops[opCacheReinf].SelfNS),
		// Tiered.Stats books a cold hit as a negative miss; clamp so the ratio
		// stays in [0,1].
		"cache.hit_ratio": ratio(a.store.Hits-b.store.Hits, (a.store.Hits-b.store.Hits)+max(a.store.Misses-b.store.Misses, 0)),

		"cache.insert_calls_per_query": per(inserts),
		"cache.insert_us_per_query":    us(ops[opCacheInsert].SelfNS),
		"cache.evictions_per_query":    per(a.store.Evictions - b.store.Evictions),
		"cache.admit_denied_ratio":     ratio(a.store.Denied-b.store.Denied, inserts),
		"cache.demotes_per_query":      per(a.tier.Demotes - b.tier.Demotes),
		"cache.promotes_per_query":     per(a.tier.Promotes - b.tier.Promotes),
		"cache.cold_hits_per_query":    per(a.tier.ColdHits - b.tier.ColdHits),
		"cache.cold_compression_ratio": ratio(a.tier.ColdRawBytes, a.tier.ColdUsed),
		"cache.resident_bytes":         float64(in.used),
		"cache.peer_fills_per_query":   per(fills),
		"cache.peer_fill_us":           ratio(ops[opPeerGet].Incl, ops[opPeerGet].Calls) / 1e3,
		"cache.peer_fill_hit_ratio":    ratio(fills, fillTries),
		"cache.peer_puts_per_query":    per(a.peer.Puts - b.peer.Puts),
		"cache.peer_puts_dropped":      float64(a.peer.PutDrops - b.peer.PutDrops),

		"backend.requests_per_query":     per(backendReqs),
		"backend.chunks_per_request":     ratio(tr.backendChunks.Load(), backendReqs),
		"backend.tuples_per_query":       per(tr.backendTuples.Load()),
		"backend.rtt_us_per_request":     ratio(ops[opBackendComp].Incl, backendReqs) / 1e3,
		"backend.compute_us_per_request": ratio(tr.backendWallNS.Load(), backendReqs) / 1e3,
		"backend.errors":                 float64(tr.backendErrors.Load()),

		"runtime.scaling_ratio": 0, // measured on rollup_hit only

		"trace.overhead_ratio":  ratio(int64(in.plainWall), int64(in.wall)),
		"trace.accounted_ratio": ratio(accounted, root.Incl),
		"trace.spans":           float64(len(in.spans)),
	}

	// The untraced window supplies what tracing would distort.
	w := in.w
	wok := math.Max(float64(w.tally.ok), 1)
	m["core.backend_tuples_per_query"] = float64(w.ctrAfter.eng.BackendTuples-w.ctrBefore.eng.BackendTuples) / wok
	m["runtime.mutex_wait_us_per_query"] = (w.procAfter.mutexWait - w.procBefore.mutexWait) * 1e6 / wok
	m["runtime.alloc_kb_per_query"] = float64(w.procAfter.allocBytes-w.procBefore.allocBytes) / 1024 / wok
	m["runtime.gc_pause_ms_total"] = float64(w.procAfter.gcPauseNS-w.procBefore.gcPauseNS) / 1e6
	m["runtime.heap_peak_mb"] = w.procAfter.heapSysMB
	m["client.sent"] = float64(w.tally.sent)
	m["client.ok"] = float64(w.tally.ok)
	m["client.busy"] = float64(w.tally.busy)
	m["client.failed"] = float64(w.tally.failed)
	m["client.wrong_answers"] = float64(w.wrong + in.wrong)
	m["client.cells_per_query"] = float64(w.tally.cells) / wok
	m["client.sched_lag_p99_ms"] = percentile(w.tally.lag, 0.99) / 1e6

	// Only asynchronous work - a peer put, and what it triggers on the owner -
	// may fall outside the request that caused it; on one node any detached
	// span means the nesting went wrong.
	var strays int64
	for i := range in.spans {
		if sp := &in.spans[i]; sp.Parent < 0 && sp.Op != opClientQuery && sp.Op != opPeerPut {
			strays++
		}
	}

	counts := map[string]int64{
		"queries":           in.t.ok,
		"stray_spans":       strays,
		"complete_hits":     in.t.completeHits,
		"cells":             in.t.cells,
		"spans":             int64(len(in.spans)),
		"find_calls":        ops[opStratFind].Calls,
		"find_hits":         tr.findHits.Load(),
		"maint_calls":       maintCalls,
		"maint_updates":     a.maint.Updates - b.maint.Updates,
		"get_calls":         ops[opCacheGet].Calls,
		"pin_calls":         ops[opCachePin].Calls,
		"insert_calls":      inserts,
		"inserts_admitted":  a.store.Inserts - b.store.Inserts,
		"evictions":         a.store.Evictions - b.store.Evictions,
		"demotes":           a.tier.Demotes - b.tier.Demotes,
		"promotes":          a.tier.Promotes - b.tier.Promotes,
		"cold_hits":         a.tier.ColdHits - b.tier.ColdHits,
		"backend_requests":  backendReqs,
		"backend_chunks":    tr.backendChunks.Load(),
		"backend_tuples":    tr.backendTuples.Load(),
		"agg_tuples":        aggTuples,
		"chunks_aggregated": a.chunksAggregated - b.chunksAggregated,
		"recycled":          a.eng.Recycled - b.eng.Recycled,
		"recycle_rejected":  a.eng.RecycleRejected - b.eng.RecycleRejected,
		"result_cache_hits": a.eng.ResultCacheHits - b.eng.ResultCacheHits,
		"peer_fills":        fills,
		"resident_bytes":    in.used,
	}
	return m, counts
}

// compileMicros times mdq.Compile over the pass's texts, off the clock.
func compileMicros(ds *dataset, texts []string) float64 {
	start := time.Now()
	for _, q := range texts {
		if _, _, err := mdq.Compile(q, ds.grid); err != nil {
			return 0
		}
	}
	return float64(time.Since(start)) / 1e3 / float64(len(texts))
}

// codecNanosPerCell times the wire chunk slab codec (AppendChunk + Dec.Chunk)
// on chunks the backend decorator saw, off the clock.
func codecNanosPerCell(sample []*chunk.Chunk) float64 {
	var cells int
	var buf []byte
	start := time.Now()
	for _, c := range sample {
		buf = wire.AppendChunk(buf[:0], c)
		if wire.NewDec(buf).Chunk() == nil {
			return 0
		}
		cells += c.Cells()
	}
	if cells == 0 {
		return 0
	}
	return float64(time.Since(start)) / float64(cells)
}
