package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// sample is one timed operation.
type sample struct {
	start time.Time
	dur   time.Duration
}

// recorder tallies the operations of one phase: durations per kind, plus
// attempted and failed counts. A failed op is one whose call returned an
// error or whose result the checker rejected. Safe for concurrent use.
type recorder struct {
	mu        sync.Mutex
	ops       map[string][]sample
	attempted int
	failed    int
	failures  []string // first few failure messages, for stderr
}

func newRecorder() *recorder { return &recorder{ops: make(map[string][]sample)} }

// add records one op. err is the op's own error or its check's verdict.
func (r *recorder) add(kind string, start time.Time, d time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 8 {
			r.failures = append(r.failures, fmt.Sprintf("%s: %v", kind, err))
		}
		return
	}
	r.ops[kind] = append(r.ops[kind], sample{start: start, dur: d})
}

// merge folds o's tallies into r.
func (r *recorder) merge(o *recorder) {
	o.mu.Lock()
	defer o.mu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, v := range o.ops {
		r.ops[k] = append(r.ops[k], v...)
	}
	r.attempted += o.attempted
	r.failed += o.failed
	r.failures = append(r.failures, o.failures...)
}

// durations returns the successful durations of the named kinds, sorted.
func (r *recorder) durations(kinds ...string) []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []time.Duration
	for _, k := range kinds {
		for _, s := range r.ops[k] {
			out = append(out, s.dur)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// busy is the summed duration of the named kinds.
func (r *recorder) busy(kinds ...string) time.Duration {
	var t time.Duration
	for _, d := range r.durations(kinds...) {
		t += d
	}
	return t
}

// report prints the first failures to stderr.
func (r *recorder) report(phase string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.failures {
		fmt.Fprintf(os.Stderr, "perfbench: %s: failed op %s\n", phase, f)
	}
}

// summary prints each kind's op count and median to stderr.
func (r *recorder) summary(phase string) {
	for _, k := range kindsOf(r) {
		d := r.durations(k)
		fmt.Fprintf(os.Stderr, "perfbench: %s: %-14s n=%-5d p50=%.3fms p90=%.3fms\n", phase, k, len(d), quantile(d, 0.5), quantile(d, 0.9))
	}
}

// quantile is the nearest-rank q-quantile of sorted durations, in
// milliseconds; 0 when there are none.
func quantile(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return ms(sorted[i])
}

// midMean is the mean of the middle half of sorted durations, in
// milliseconds; 0 when there are none. Where the samples fall in two modes
// it moves with their shares, where a median jumps from one to the other.
func midMean(sorted []time.Duration) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	mid := sorted[n/4 : n-n/4]
	var sum time.Duration
	for _, d := range mid {
		sum += d
	}
	return ms(sum) / float64(len(mid))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median of a float slice (sorted copy); 0 when empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics is a result's name → value map.
type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// table renders metrics as aligned "name value unit" lines, sorted.
func (m metrics) table() string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, k := range names {
		fmt.Fprintf(&b, "  %-36s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
	return b.String()
}
