package obs

import (
	"bufio"
	"fmt"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total", "help")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("y_bytes", "help")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
	// Re-registering returns the same metric.
	if r.Counter("x_total", "help") != c {
		t.Fatalf("re-registration created a new counter")
	}
	// Nil handles are no-ops.
	var nc *Counter
	nc.Inc()
	nc.Add(3)
	var ng *Gauge
	ng.Set(1)
	var nh *Histogram
	nh.Observe(time.Second)
	if nc.Value() != 0 || ng.Value() != 0 || nh.Count() != 0 || nh.Quantile(0.5) != 0 {
		t.Fatalf("nil metrics recorded something")
	}
}

// TestNilRegistryBundlesAreLive: every bundle built from a nil registry has
// a live handle in every field, the fields of its embedded WireMetrics
// included — recording moves its Value or Count — and none of them is
// registered anywhere: a second build of the same bundle gets its own
// handles, which the first one's recordings leave untouched. The only nil
// handles are the WireMetrics series an endpoint does not export: a client
// has no serving-side counters, and only the middle tier counts open
// connections.
func TestNilRegistryBundlesAreLive(t *testing.T) {
	notExported := map[string]bool{
		"BackendMetrics.Conns": true,
		"RemoteMetrics.Conns":  true, "RemoteMetrics.WireErrors": true,
		"RemoteMetrics.IdleCloses": true, "RemoteMetrics.Panics": true,
	}
	bundles := func() []any {
		return []any{
			NewEngineMetrics(nil), NewCacheMetrics(nil), NewTierMetrics(nil),
			NewStrategyMetrics(nil, "VCMC"), NewBackendMetrics(nil), NewServerMetrics(nil),
			NewRemoteMetrics(nil), NewPeerMetrics(nil, "peer"), NewAdmissionMetrics(nil),
			NewBreakerMetrics(nil),
		}
	}
	read := func(h any) int64 {
		switch h := h.(type) {
		case *Counter:
			return h.Value()
		case *Gauge:
			return h.Value()
		case *Histogram:
			return h.Count()
		}
		t.Fatalf("unexpected handle type %T", h)
		return 0
	}
	twins := bundles()
	for i, b := range bundles() {
		v, tw := reflect.ValueOf(b), reflect.ValueOf(twins[i])
		for _, f := range reflect.VisibleFields(v.Type()) {
			if f.Anonymous {
				continue // its fields are visited on their own
			}
			name := v.Type().Name() + "." + f.Name
			fv := v.FieldByIndex(f.Index)
			if fv.IsNil() {
				if notExported[name] {
					continue
				}
				t.Fatalf("%s is nil", name)
			}
			h, twin := fv.Interface(), tw.FieldByIndex(f.Index).Interface()
			if h == twin {
				t.Fatalf("%s: two nil-registry builds share a handle", name)
			}
			switch h := h.(type) {
			case *Counter:
				h.Inc()
			case *Gauge:
				h.Set(1)
			case *Histogram:
				h.Observe(time.Millisecond)
			}
			if read(h) != 1 || read(twin) != 0 {
				t.Fatalf("%s: recorded %d, its twin %d; want 1 and 0", name, read(h), read(twin))
			}
		}
	}
}

func TestRegistryKindClashPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Fatalf("kind clash did not panic")
		}
	}()
	r.Gauge("m", "")
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 100 samples of exactly 1ms: every quantile must land within the
	// power-of-two bucket holding 1ms, i.e. [2^19, 2^20) ns.
	for i := 0; i < 100; i++ {
		h.Observe(time.Millisecond)
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		got := h.Quantile(q)
		if got < 512*time.Microsecond || got > 1049*time.Microsecond {
			t.Fatalf("Quantile(%v) = %v outside the 1ms bucket", q, got)
		}
	}
	if h.Count() != 100 || h.Sum() != 100*time.Millisecond {
		t.Fatalf("count/sum = %d/%v", h.Count(), h.Sum())
	}
	// Quantiles are monotone in q.
	if h.Quantile(0.99) < h.Quantile(0.5) {
		t.Fatalf("p99 < p50")
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines (run
// with -race) and checks the quantile estimates stay sane: a uniform spread
// over [1ms, 10ms] must put p50 and p99 inside that range with log-bucket
// slack.
func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const workers = 8
	const perWorker = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Deterministic spread over [1ms, 10ms].
				v := time.Millisecond + time.Duration(i%10)*time.Millisecond
				h.Observe(v)
			}
		}(w)
	}
	wg.Wait()
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("count = %d, want %d", got, workers*perWorker)
	}
	p50, p99 := h.Quantile(0.50), h.Quantile(0.99)
	if p50 < time.Millisecond || p50 > 10*time.Millisecond {
		t.Fatalf("p50 = %v outside [1ms, 10ms]", p50)
	}
	// 10ms lives in the [8.39ms, 16.78ms) bucket; interpolation may land
	// anywhere inside it.
	if p99 < p50 || p99 > 17*time.Millisecond {
		t.Fatalf("p99 = %v (p50 = %v)", p99, p50)
	}
}

// promLine matches one Prometheus text-format sample line.
var promLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9.eE+-]+|\+Inf|NaN)$`)

// TestWritePrometheusParses renders a populated registry and checks every
// line is either a comment or a well-formed sample, histograms included.
func TestWritePrometheusParses(t *testing.T) {
	r := NewRegistry()
	em := NewEngineMetrics(r)
	cm := NewCacheMetrics(r)
	sm := NewStrategyMetrics(r, "VCMC")
	bm := NewBackendMetrics(r)
	vm := NewServerMetrics(r)

	em.Queries.Add(3)
	em.Lookup.Observe(100 * time.Microsecond)
	em.Lookup.Observe(3 * time.Millisecond)
	cm.OccupancyBytes.Set(1 << 20)
	cm.EvictionsPolicy.Add(2)
	sm.Finds.Add(7)
	sm.FindLatency.Observe(40 * time.Microsecond)
	bm.Requests.Inc()
	bm.Wall.Observe(2 * time.Millisecond)
	vm.Latency.Observe(5 * time.Millisecond)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := b.String()
	samples := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(out))
	lines := 0
	for sc.Scan() {
		line := sc.Text()
		lines++
		if strings.HasPrefix(line, "#") {
			continue
		}
		m := promLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed sample line %d: %q", lines, line)
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("bad value on line %q: %v", line, err)
		}
		samples[m[1]+m[2]] = v
	}
	for _, want := range []string{
		"aggcache_engine_queries_total",
		"aggcache_cache_occupancy_bytes",
		`aggcache_cache_evictions_total{cause="policy"}`,
		`aggcache_strategy_find_total{strategy="VCMC"}`,
		"aggcache_engine_lookup_seconds_count",
		"aggcache_backend_request_seconds_sum",
	} {
		if _, ok := samples[want]; !ok {
			t.Fatalf("missing sample %q in output:\n%s", want, out)
		}
	}
	if samples["aggcache_engine_queries_total"] != 3 {
		t.Fatalf("queries_total = %v", samples["aggcache_engine_queries_total"])
	}
	if samples["aggcache_engine_lookup_seconds_count"] != 2 {
		t.Fatalf("lookup count = %v", samples["aggcache_engine_lookup_seconds_count"])
	}
	// Histogram buckets must be cumulative (non-decreasing) and end at +Inf
	// equal to the count.
	var prev float64 = -1
	inf := 0.0
	sc = bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "aggcache_engine_lookup_seconds_bucket") {
			continue
		}
		m := promLine.FindStringSubmatch(line)
		v, _ := strconv.ParseFloat(m[3], 64)
		if v < prev {
			t.Fatalf("bucket counts not cumulative at %q", line)
		}
		prev = v
		if strings.Contains(m[2], "+Inf") {
			inf = v
		}
	}
	if inf != 2 {
		t.Fatalf("+Inf bucket = %v, want 2", inf)
	}
}

func TestTraceRingTruncates(t *testing.T) {
	r := NewTraceRing(64)
	for i := 0; i < 1000; i++ {
		id := r.Add(QueryTrace{Query: fmt.Sprintf("q%d", i)})
		if id != uint64(i+1) {
			t.Fatalf("Add returned id %d, want %d", id, i+1)
		}
	}
	got := r.Snapshot()
	if len(got) != 64 {
		t.Fatalf("snapshot kept %d traces, want 64", len(got))
	}
	if r.Total() != 1000 {
		t.Fatalf("total = %d", r.Total())
	}
	for i, tr := range got {
		wantID := uint64(1000 - 64 + i + 1)
		if tr.ID != wantID {
			t.Fatalf("trace %d has id %d, want %d (oldest-first order)", i, tr.ID, wantID)
		}
		if tr.Query != fmt.Sprintf("q%d", wantID-1) {
			t.Fatalf("trace %d payload %q does not match id %d", i, tr.Query, wantID)
		}
	}
	// A short ring still works before wrapping.
	r2 := NewTraceRing(8)
	r2.Add(QueryTrace{})
	r2.Add(QueryTrace{})
	if got := r2.Snapshot(); len(got) != 2 || got[0].ID != 1 || got[1].ID != 2 {
		t.Fatalf("partial ring snapshot: %+v", got)
	}
	// Nil ring is inert.
	var nr *TraceRing
	if nr.Add(QueryTrace{}) != 0 || nr.Snapshot() != nil || nr.Total() != 0 {
		t.Fatalf("nil ring not inert")
	}
}

func TestTraceRingConcurrent(t *testing.T) {
	r := NewTraceRing(32)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Add(QueryTrace{Outcome: "ok"})
				if i%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if r.Total() != 2000 {
		t.Fatalf("total = %d, want 2000", r.Total())
	}
	if got := len(r.Snapshot()); got != 32 {
		t.Fatalf("snapshot length = %d", got)
	}
}
