// Package obs is PerfDMF's self-instrumentation layer: a zero-dependency
// metrics registry (atomic counters, gauges and power-of-two latency
// histograms), per-statement tracing spans, and a slow-query log.
//
// PerfDMF manages other programs' performance data; obs makes the framework
// measurable by the same standards it applies to its subjects. The layer is
// threaded through the whole stack — godbc counts and times statements,
// sqlexec records plan choice and rows scanned vs. returned, reldb reports
// WAL, snapshot, B-tree and transaction activity — and is surfaced by
// `perfdmf stats`, `EXPLAIN ANALYZE`, the OBS_METRICS catalog table and
// `perfdmf serve`'s /metrics.
//
// Design constraints:
//
//   - Zero dependencies: stdlib only, and no imports from other perfdmf
//     packages (everything else imports obs).
//   - Negligible cost when idle: with tracing off and no slow-query
//     threshold, the hot paths pay only a few atomic adds. Callers should
//     gate time.Now pairs on TimingEnabled().
//   - Race-free by construction: metric updates are single atomic
//     operations; registries and logs use short critical sections.
package obs

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down (or be set outright).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add shifts the gauge by n.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// HistBuckets is the number of histogram buckets. Bucket i counts
// observations v with 2^(i-1) <= v < 2^i (bucket 0 counts v <= 0 and v < 1,
// i.e. everything below 1). 64 buckets cover the full int64 range, so a
// nanosecond-valued histogram spans sub-nanosecond to ~292 years.
const HistBuckets = 64

// Histogram is a lock-free histogram with power-of-two bucket boundaries,
// intended for latencies in nanoseconds and sizes in bytes. The scheme
// trades resolution (each bucket is a factor of two wide) for a fixed
// footprint and single-atomic-add observation cost.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [HistBuckets]atomic.Int64
}

// bucketOf returns the bucket index for v: 0 for v < 1, else 1+floor(log2 v).
func bucketOf(v int64) int {
	if v < 1 {
		return 0
	}
	b := bits.Len64(uint64(v))
	if b >= HistBuckets {
		return HistBuckets - 1
	}
	return b
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketOf(v)].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// HistSnapshot is a point-in-time copy of a histogram. P50/P95/P99 are
// precomputed upper-bound quantile estimates (see Quantile), so JSON
// consumers get latency percentiles without reconstructing the buckets.
type HistSnapshot struct {
	Count   int64              `json:"count"`
	Sum     int64              `json:"sum"`
	P50     int64              `json:"p50"`
	P95     int64              `json:"p95"`
	P99     int64              `json:"p99"`
	Buckets map[string]int64   `json:"buckets,omitempty"` // upper bound -> count, non-empty buckets only
	bounds  []histBucketSample // parallel data kept for quantiles
}

type histBucketSample struct {
	upper int64 // exclusive upper bound (2^i)
	count int64
}

func (h *Histogram) snapshot() HistSnapshot {
	s := HistSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		upper := int64(1) << i // bucket i holds v < 2^i
		if i == HistBuckets-1 {
			upper = int64(1)<<62 + (int64(1)<<62 - 1) // effectively +Inf
		}
		if s.Buckets == nil {
			s.Buckets = make(map[string]int64)
		}
		s.Buckets[fmt.Sprint(upper)] = n
		s.bounds = append(s.bounds, histBucketSample{upper: upper, count: n})
	}
	s.P50 = s.Quantile(0.50)
	s.P95 = s.Quantile(0.95)
	s.P99 = s.Quantile(0.99)
	return s
}

// Mean returns the average observed value, 0 when empty.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns an upper-bound estimate of the q-quantile (0 < q <= 1):
// the exclusive upper bound of the bucket containing that rank. The
// power-of-two scheme makes this accurate to within a factor of two.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := int64(q * float64(s.Count))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for _, b := range s.bounds {
		seen += b.count
		if seen >= rank {
			return b.upper
		}
	}
	return s.bounds[len(s.bounds)-1].upper
}

// Snapshot is a point-in-time copy of a registry, safe to marshal as JSON
// (the shape of `perfdmf serve`'s /metrics.json).
type Snapshot struct {
	Counters   map[string]int64        `json:"counters"`
	Gauges     map[string]int64        `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms"`
}

// Registry holds named metrics. Metric lookup takes a read lock; the
// returned metric handles are updated with plain atomics, so instrumented
// packages resolve their metrics once into package variables.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Default is the process-wide registry every perfdmf package reports into.
var Default = NewRegistry()

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h := r.histograms[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.histograms[name]; h == nil {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Snapshot copies every metric's current value.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistSnapshot, len(r.histograms)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// Reset zeroes every registered metric (for tests and benchmarks; metric
// handles held by instrumented packages stay valid).
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.v.Store(0)
	}
	for _, h := range r.histograms {
		h.count.Store(0)
		h.sum.Store(0)
		for i := range h.buckets {
			h.buckets[i].Store(0)
		}
	}
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format, metrics sorted by name. Histograms emit cumulative le-labelled
// buckets plus _sum and _count series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	s := r.Snapshot()
	var names []string
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, s.Counters[name]); err != nil {
			return err
		}
	}
	names = names[:0]
	for name := range s.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", name, name, s.Gauges[name]); err != nil {
			return err
		}
	}
	names = names[:0]
	for name := range s.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := s.Histograms[name]
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
			return err
		}
		var cum int64
		for _, b := range h.bounds {
			cum += b.count
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, b.upper, cum); err != nil {
				return err
			}
		}
		// Summary-style quantile series alongside the buckets, so scrapers
		// get p50/p95/p99 without a histogram_quantile() round trip.
		for _, q := range [...]struct {
			label string
			v     int64
		}{{"0.5", h.P50}, {"0.95", h.P95}, {"0.99", h.P99}} {
			if _, err := fmt.Fprintf(w, "%s{quantile=\"%s\"} %d\n", name, q.label, q.v); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
			name, h.Count, name, h.Sum, name, h.Count); err != nil {
			return err
		}
	}
	return nil
}
