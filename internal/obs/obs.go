// Package obs is the live observability layer: a stdlib-only metrics
// registry (atomic counters, gauges, and log-scale latency histograms with
// quantile estimation), a bounded per-query trace ring, and an ops HTTP
// handler exposing them as /metrics (Prometheus text format), /healthz,
// /traces (JSON) and /debug/pprof.
//
// Instrumentation is designed to be allocation-free off the hot path: every
// metric is a fixed set of atomics allocated at registration time, and every
// recording method is nil-receiver safe, so instrumented components run with
// zero overhead beyond a nil check when observability is disabled.
package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter. The zero value is ready to
// use; a nil *Counter is a no-op, so disabled instrumentation costs one
// branch.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down. A nil *Gauge is a no-op.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the fixed bucket count of a histogram: bucket i holds
// samples whose nanosecond value needs exactly i bits, i.e. v in
// [2^(i-1), 2^i), so the full int64 range is covered by 64 preallocated
// buckets and recording is one bits.Len64 plus three atomic adds.
const histBuckets = 64

// Histogram is a log-scale (powers-of-two) latency histogram over
// nanosecond samples. Recording is lock-free and allocation-free; quantiles
// are estimated at read time by linear interpolation inside the matched
// bucket, so they carry at worst the bucket's factor-of-two resolution.
// A nil *Histogram is a no-op.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one duration sample.
func (h *Histogram) Observe(d time.Duration) { h.ObserveNS(int64(d)) }

// ObserveNS records one nanosecond sample. Non-positive samples land in the
// first bucket.
func (h *Histogram) ObserveNS(v int64) {
	if h == nil {
		return
	}
	i := 0
	if v > 0 {
		i = bits.Len64(uint64(v))
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all samples.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sum.Load())
}

// Quantile estimates the q-quantile (q in [0,1]) of the recorded samples,
// interpolating linearly within the matched power-of-two bucket. It returns
// 0 when nothing has been recorded.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h == nil {
		return 0
	}
	var counts [histBuckets]int64
	var total int64
	for i := range counts {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	q = math.Max(0, math.Min(1, q))
	target := int64(math.Ceil(q * float64(total)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if cum+c >= target {
			var lo int64
			if i > 0 {
				lo = int64(1) << (i - 1)
			}
			hi := int64(1)<<i - 1
			frac := float64(target-cum) / float64(c)
			return time.Duration(lo) + time.Duration(frac*float64(hi-lo))
		}
		cum += c
	}
	return time.Duration(math.MaxInt64)
}

// metricKind distinguishes registry entries for rendering.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// metric is one registered series. name may carry constant labels in
// Prometheus syntax (`evictions_total{cause="policy"}`); family is the name
// with labels stripped, used to group HELP/TYPE headers.
type metric struct {
	name    string
	family  string
	labels  string // inner label text without braces, "" if none
	help    string
	kind    metricKind
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// Registry holds named metrics and renders them in Prometheus text format.
// Registration takes a lock; recording on the returned metric handles is
// lock-free. Registering a name twice returns the existing metric, so
// several components may share a series. A nil *Registry hands out live
// handles that are registered nowhere: components always count into a real
// bundle, and a registry only decides whether the bundle is exported.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	index   map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]*metric)}
}

// splitName separates constant labels from a metric name:
// `x_total{cause="policy"}` → family `x_total`, labels `cause="policy"`.
func splitName(name string) (family, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], strings.TrimSuffix(name[i+1:], "}")
	}
	return name, ""
}

// register returns the metric for name, creating it with the given kind if
// new. A kind clash on an existing name panics: it is a wiring bug, not a
// runtime condition. On a nil registry it returns a fresh, unregistered
// metric.
func (r *Registry) register(name, help string, kind metricKind) *metric {
	if r == nil {
		return newMetric(name, help, kind)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.index[name]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different kind", name))
		}
		return m
	}
	m := newMetric(name, help, kind)
	r.metrics = append(r.metrics, m)
	r.index[name] = m
	return m
}

// newMetric allocates one series with its live handle.
func newMetric(name, help string, kind metricKind) *metric {
	family, labels := splitName(name)
	m := &metric{name: name, family: family, labels: labels, help: help, kind: kind}
	switch kind {
	case kindCounter:
		m.counter = &Counter{}
	case kindGauge:
		m.gauge = &Gauge{}
	case kindHistogram:
		m.hist = &Histogram{}
	}
	return m
}

// Counter registers (or finds) a counter. name may carry constant labels,
// e.g. `aggcache_cache_evictions_total{cause="policy"}`.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, kindCounter).counter
}

// Gauge registers (or finds) a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, kindGauge).gauge
}

// Histogram registers (or finds) a latency histogram. Samples are recorded
// in nanoseconds and rendered in seconds; by Prometheus convention the name
// should end in `_seconds`.
func (r *Registry) Histogram(name, help string) *Histogram {
	return r.register(name, help, kindHistogram).hist
}

// snapshot copies the metric list so rendering runs without the lock.
func (r *Registry) snapshot() []*metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*metric, len(r.metrics))
	copy(out, r.metrics)
	return out
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4). Histograms render as cumulative
// `_bucket{le="…"}` series in seconds plus `_sum`/`_count`, followed by a
// comment line carrying the p50/p95/p99 estimates for human readers.
func (r *Registry) WritePrometheus(w io.Writer) error {
	seen := make(map[string]bool)
	for _, m := range r.snapshot() {
		if !seen[m.family] {
			seen[m.family] = true
			kind := "counter"
			switch m.kind {
			case kindGauge:
				kind = "gauge"
			case kindHistogram:
				kind = "histogram"
			}
			if m.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.family, m.help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.family, kind); err != nil {
				return err
			}
		}
		var err error
		switch m.kind {
		case kindCounter:
			_, err = fmt.Fprintf(w, "%s %d\n", m.name, m.counter.Value())
		case kindGauge:
			_, err = fmt.Fprintf(w, "%s %d\n", m.name, m.gauge.Value())
		case kindHistogram:
			err = writeHistogram(w, m)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// writeHistogram renders one histogram family member with cumulative
// buckets. Empty leading/trailing buckets are elided; the +Inf bucket and
// sum/count always appear so the series is valid even when empty.
func writeHistogram(w io.Writer, m *metric) error {
	h := m.hist
	var counts [histBuckets]int64
	lo, hi := -1, -1
	for i := range counts {
		counts[i] = h.buckets[i].Load()
		if counts[i] > 0 {
			if lo < 0 {
				lo = i
			}
			hi = i
		}
	}
	series := func(suffix, extraLabels string) string {
		name := m.family + suffix
		labels := m.labels
		if extraLabels != "" {
			if labels != "" {
				labels += ","
			}
			labels += extraLabels
		}
		if labels != "" {
			return name + "{" + labels + "}"
		}
		return name
	}
	var cum int64
	for i := lo; i >= 0 && i <= hi; i++ {
		cum += counts[i]
		// The bucket's inclusive upper bound is 2^i - 1 ns, rendered in
		// seconds.
		ub := float64(int64(1)<<i-1) / 1e9
		if _, err := fmt.Fprintf(w, "%s %d\n", series("_bucket", fmt.Sprintf("le=%q", formatFloat(ub))), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s %d\n", series("_bucket", `le="+Inf"`), h.Count()); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s %s\n", series("_sum", ""), formatFloat(h.Sum().Seconds())); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s %d\n", series("_count", ""), h.Count()); err != nil {
		return err
	}
	if h.Count() > 0 {
		if _, err := fmt.Fprintf(w, "# %s quantiles: p50=%v p95=%v p99=%v\n",
			m.name, h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99)); err != nil {
			return err
		}
	}
	return nil
}

// formatFloat renders a float compactly without losing precision.
func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}
