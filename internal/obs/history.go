// Metric history: the registry is a point-in-time surface, so rates,
// regressions and anomaly detection all need the dimension it lacks —
// time. History samples a Registry on a fixed cadence into a bounded ring
// of delta-encoded points: counters and histograms record what changed
// since the previous sample (so a row is information, not a restatement),
// gauges record their level when it moves. The ring answers windowed
// queries (rate, avg, min/max, p95, EWMA) for the /history endpoint, the
// OBS_METRICS_HISTORY catalog table, and alert evaluation; the telemetry
// writer mirrors each sample into PERFDMF_METRICS_HISTORY so history
// survives the process.
package obs

import (
	"sort"
	"sync"
	"time"
)

// HistoryPoint is one metric's activity in one scrape interval.
type HistoryPoint struct {
	Name string `json:"name"`
	Kind string `json:"kind"` // "counter" | "gauge" | "histogram"
	// Value is the counter's delta since the previous sample, or the
	// gauge's level. Histograms leave it 0 and use DeltaCount/DeltaSum.
	Value float64 `json:"value"`
	// DeltaCount/DeltaSum are the histogram's new observations and their
	// sum since the previous sample.
	DeltaCount int64 `json:"delta_count,omitempty"`
	DeltaSum   int64 `json:"delta_sum,omitempty"`
	// P50/P95/P99 are the histogram's cumulative quantiles at scrape time
	// (quantiles do not delta-decompose).
	P50 int64 `json:"p50,omitempty"`
	P95 int64 `json:"p95,omitempty"`
	P99 int64 `json:"p99,omitempty"`
}

// HistorySample is one scrape: every metric that moved, plus the wall
// clock it covers.
type HistorySample struct {
	At      time.Time     `json:"at"`
	Elapsed time.Duration `json:"elapsed"` // since the previous sample; 0 on the first
	Points  []HistoryPoint
}

// DefaultHistoryRing is the in-memory ring capacity in samples: at the
// serve daemon's 1s default cadence, 12 minutes of history.
const DefaultHistoryRing = 720

// ewmaAlpha weights the newest sample in the exponentially weighted moving
// average the /history endpoint and anomaly rules read.
const ewmaAlpha = 0.3

var (
	mHistSamples = Default.Counter("obs_history_samples_total")
	mHistPoints  = Default.Counter("obs_history_points_total")
)

// History is the bounded sample ring plus the previous-snapshot state
// delta encoding needs. Sample is called from one scrape loop; readers
// (endpoint, catalog, alert evaluation) may run concurrently.
type History struct {
	mu    sync.Mutex
	cap   int
	ring  []HistorySample // ring[0:n], oldest first once wrapped via start
	start int             // index of the oldest sample
	total int64           // lifetime sample count

	prevCounters map[string]int64
	prevGauges   map[string]int64
	prevHist     map[string]histPrev
	kinds        map[string]string // every metric ever seen -> kind
	lastAt       time.Time
}

type histPrev struct{ count, sum int64 }

// NewHistory returns an empty ring holding at most capSamples scrapes.
func NewHistory(capSamples int) *History {
	if capSamples <= 0 {
		capSamples = DefaultHistoryRing
	}
	return &History{
		cap:          capSamples,
		prevCounters: make(map[string]int64),
		prevGauges:   make(map[string]int64),
		prevHist:     make(map[string]histPrev),
		kinds:        make(map[string]string),
	}
}

// DefaultHistory is the process-wide ring the telemetry scrape loop fills
// and the /history endpoint and OBS_METRICS_HISTORY catalog read.
var DefaultHistory = NewHistory(DefaultHistoryRing)

// Sample scrapes reg once: it computes every metric's delta against the
// previous scrape, appends the sample to the ring, and returns it (the
// telemetry writer persists the returned points). The registry snapshot is
// taken before the history lock so Sample never holds two locks.
func (h *History) Sample(reg *Registry) HistorySample {
	snap := reg.Snapshot()
	return h.absorb(snap, time.Now())
}

// absorb is Sample minus the clock and registry, for tests.
func (h *History) absorb(snap Snapshot, now time.Time) HistorySample {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistorySample{At: now}
	if !h.lastAt.IsZero() {
		s.Elapsed = now.Sub(h.lastAt)
	}
	h.lastAt = now

	names := make([]string, 0, len(snap.Counters))
	for name := range snap.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := snap.Counters[name]
		h.kinds[name] = "counter"
		if d := v - h.prevCounters[name]; d != 0 {
			s.Points = append(s.Points, HistoryPoint{Name: name, Kind: "counter", Value: float64(d)})
		}
		h.prevCounters[name] = v
	}

	names = names[:0]
	for name := range snap.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := snap.Gauges[name]
		prev, seen := h.prevGauges[name]
		h.kinds[name] = "gauge"
		if !seen || prev != v {
			s.Points = append(s.Points, HistoryPoint{Name: name, Kind: "gauge", Value: float64(v)})
		}
		h.prevGauges[name] = v
	}

	names = names[:0]
	for name := range snap.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		hs := snap.Histograms[name]
		prev := h.prevHist[name]
		h.kinds[name] = "histogram"
		if d := hs.Count - prev.count; d != 0 {
			s.Points = append(s.Points, HistoryPoint{
				Name: name, Kind: "histogram",
				DeltaCount: d, DeltaSum: hs.Sum - prev.sum,
				P50: hs.P50, P95: hs.P95, P99: hs.P99,
			})
		}
		h.prevHist[name] = histPrev{count: hs.Count, sum: hs.Sum}
	}

	if len(h.ring) < h.cap {
		h.ring = append(h.ring, s)
	} else {
		h.ring[h.start] = s
		h.start = (h.start + 1) % h.cap
	}
	h.total++
	mHistSamples.Inc()
	mHistPoints.Add(int64(len(s.Points)))
	return s
}

// Samples copies the ring, oldest first.
func (h *History) Samples() []HistorySample {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]HistorySample, 0, len(h.ring))
	for i := 0; i < len(h.ring); i++ {
		out = append(out, h.ring[(h.start+i)%len(h.ring)])
	}
	return out
}

// LastAt returns the newest sample's time, zero before the first scrape.
func (h *History) LastAt() time.Time {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.lastAt
}

// TotalSamples returns the lifetime scrape count (the ring holds the tail).
func (h *History) TotalSamples() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// Metrics lists every metric name the ring has ever seen, sorted.
func (h *History) Metrics() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]string, 0, len(h.kinds))
	for name := range h.kinds {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// SeriesPoint is one windowed observation of a metric: a per-second rate
// for counters and histograms, the recorded level for gauges. P95 carries
// the histogram quantile alongside.
type SeriesPoint struct {
	At    time.Time `json:"at"`
	Value float64   `json:"value"`
	P95   int64     `json:"p95,omitempty"`
}

// WindowStats are the aggregates of one metric over a trailing window —
// the /history response body and the values alert predicates compare.
type WindowStats struct {
	Metric        string  `json:"metric"`
	Kind          string  `json:"kind"`
	Samples       int     `json:"samples"`
	WindowSeconds float64 `json:"window_seconds"` // wall clock actually covered
	// RatePerSec is total delta over total elapsed (counters, histogram
	// observation counts); 0 for gauges.
	RatePerSec float64 `json:"rate_per_sec"`
	Avg        float64 `json:"avg"`
	Min        float64 `json:"min"`
	Max        float64 `json:"max"`
	// P95 is the largest histogram p95 seen in the window.
	P95  int64   `json:"p95"`
	EWMA float64 `json:"ewma"`
	Last float64 `json:"last"`
}

// Series returns the metric's windowed observations, oldest first. The
// window is anchored at the newest sample (not the wall clock), so readers
// see the same series the scrape loop recorded even if scraping stalled.
// Samples where a counter or histogram recorded no point count as rate 0;
// gauges carry their last recorded level forward. ok is false for metrics
// the ring has never seen.
func (h *History) Series(metric string, window time.Duration) (kind string, pts []SeriesPoint, ok bool) {
	kind, pts, _, ok = h.series(metric, window)
	return kind, pts, ok
}

// series is Series plus the window's weighted rate: total delta over total
// elapsed across exactly the returned points (0 for gauges), summed in the
// same locked pass so the rate and the points describe the same samples.
func (h *History) series(metric string, window time.Duration) (kind string, pts []SeriesPoint, rate float64, ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	kind, known := h.kinds[metric]
	if !known || len(h.ring) == 0 {
		return "", nil, 0, false
	}
	cutoff := h.lastAt.Add(-window)
	var gaugeLevel float64
	var gaugeSeen bool
	var sumDelta, sumElapsed float64
	for i := 0; i < len(h.ring); i++ {
		s := h.ring[(h.start+i)%len(h.ring)]
		var p *HistoryPoint
		for j := range s.Points {
			if s.Points[j].Name == metric {
				p = &s.Points[j]
				break
			}
		}
		if kind == "gauge" && p != nil {
			gaugeLevel, gaugeSeen = p.Value, true
		}
		if s.At.Before(cutoff) {
			continue
		}
		switch kind {
		case "gauge":
			if gaugeSeen {
				pts = append(pts, SeriesPoint{At: s.At, Value: gaugeLevel})
			}
		case "counter", "histogram":
			// Rates need an interval; the ring's first-ever sample has none.
			if s.Elapsed <= 0 {
				continue
			}
			var delta float64
			var p95 int64
			if p != nil {
				if kind == "counter" {
					delta = p.Value
				} else {
					delta = float64(p.DeltaCount)
					p95 = p.P95
				}
			}
			sumDelta += delta
			sumElapsed += s.Elapsed.Seconds()
			pts = append(pts, SeriesPoint{At: s.At, Value: delta / s.Elapsed.Seconds(), P95: p95})
		}
	}
	if sumElapsed > 0 {
		rate = sumDelta / sumElapsed
	}
	return kind, pts, rate, true
}

// Window aggregates the metric over the trailing window. ok is false when
// the metric is unknown or the window holds no observations.
func (h *History) Window(metric string, window time.Duration) (WindowStats, bool) {
	kind, pts, rate, known := h.series(metric, window)
	if !known || len(pts) == 0 {
		return WindowStats{}, false
	}
	st := WindowStats{Metric: metric, Kind: kind, Samples: len(pts), RatePerSec: rate}
	st.WindowSeconds = pts[len(pts)-1].At.Sub(pts[0].At).Seconds()
	st.Min = pts[0].Value
	var sum float64
	for i, p := range pts {
		if p.Value < st.Min {
			st.Min = p.Value
		}
		if p.Value > st.Max {
			st.Max = p.Value
		}
		if p.P95 > st.P95 {
			st.P95 = p.P95
		}
		sum += p.Value
		if i == 0 {
			st.EWMA = p.Value
		} else {
			st.EWMA = ewmaAlpha*p.Value + (1-ewmaAlpha)*st.EWMA
		}
	}
	st.Avg = sum / float64(len(pts))
	st.Last = pts[len(pts)-1].Value
	return st, true
}
