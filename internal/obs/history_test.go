package obs

import (
	"math"
	"testing"
	"time"
)

// histAt feeds one synthetic registry snapshot into the ring at a fixed
// clock, bypassing the wall clock via absorb.
func histAt(h *History, at time.Time, counters map[string]int64, gauges map[string]int64, hists map[string]HistSnapshot) HistorySample {
	return h.absorb(Snapshot{Counters: counters, Gauges: gauges, Histograms: hists}, at)
}

// TestHistoryDeltaEncoding: a sample records only what moved — counter and
// histogram deltas, gauge level changes — so an idle interval is an empty
// sample, not a restatement of every metric.
func TestHistoryDeltaEncoding(t *testing.T) {
	h := NewHistory(8)
	t0 := time.Unix(1000, 0)

	s1 := histAt(h, t0,
		map[string]int64{"c_total": 5},
		map[string]int64{"depth": 2},
		map[string]HistSnapshot{"lat_ns": {Count: 3, Sum: 30, P50: 8, P95: 9, P99: 10}})
	if s1.Elapsed != 0 {
		t.Fatalf("first sample elapsed = %v, want 0", s1.Elapsed)
	}
	if len(s1.Points) != 3 {
		t.Fatalf("first sample has %d points, want 3: %+v", len(s1.Points), s1.Points)
	}

	// Nothing moved: the sample must be empty.
	s2 := histAt(h, t0.Add(time.Second),
		map[string]int64{"c_total": 5},
		map[string]int64{"depth": 2},
		map[string]HistSnapshot{"lat_ns": {Count: 3, Sum: 30, P95: 9}})
	if len(s2.Points) != 0 {
		t.Fatalf("idle sample has %d points, want 0: %+v", len(s2.Points), s2.Points)
	}
	if s2.Elapsed != time.Second {
		t.Fatalf("elapsed = %v, want 1s", s2.Elapsed)
	}

	s3 := histAt(h, t0.Add(2*time.Second),
		map[string]int64{"c_total": 9},
		map[string]int64{"depth": 7},
		map[string]HistSnapshot{"lat_ns": {Count: 5, Sum: 80, P95: 40}})
	if len(s3.Points) != 3 {
		t.Fatalf("active sample has %d points, want 3: %+v", len(s3.Points), s3.Points)
	}
	for _, p := range s3.Points {
		switch p.Name {
		case "c_total":
			if p.Kind != "counter" || p.Value != 4 {
				t.Fatalf("counter point = %+v, want delta 4", p)
			}
		case "depth":
			if p.Kind != "gauge" || p.Value != 7 {
				t.Fatalf("gauge point = %+v, want level 7", p)
			}
		case "lat_ns":
			if p.Kind != "histogram" || p.DeltaCount != 2 || p.DeltaSum != 50 || p.P95 != 40 {
				t.Fatalf("histogram point = %+v, want delta 2/50 p95 40", p)
			}
		}
	}
	if got := h.TotalSamples(); got != 3 {
		t.Fatalf("TotalSamples = %d, want 3", got)
	}
	if got := h.Metrics(); len(got) != 3 {
		t.Fatalf("Metrics = %v, want all three names remembered", got)
	}
}

// TestHistorySeriesAndWindow: counters reconstruct as per-second rates with
// absent points counting as rate 0; gauges carry their level forward; the
// window aggregates (avg, weighted rate, last) come out of the same series.
func TestHistorySeriesAndWindow(t *testing.T) {
	h := NewHistory(16)
	t0 := time.Unix(2000, 0)
	totals := []int64{0, 10, 10, 18}  // deltas: -, 10, 0, 8
	gauges := []int64{3, 3, 5, 5}     // points only at t0 and t2
	for i := range totals {
		histAt(h, t0.Add(time.Duration(i)*time.Second),
			map[string]int64{"c_total": totals[i]},
			map[string]int64{"depth": gauges[i]}, nil)
	}

	kind, pts, ok := h.Series("c_total", time.Minute)
	if !ok || kind != "counter" {
		t.Fatalf("Series(c_total) kind=%q ok=%v", kind, ok)
	}
	// The first-ever sample has no interval, so three rate points remain.
	want := []float64{10, 0, 8}
	if len(pts) != len(want) {
		t.Fatalf("series has %d points, want %d: %+v", len(pts), len(want), pts)
	}
	for i, w := range want {
		if pts[i].Value != w {
			t.Fatalf("rate[%d] = %v, want %v", i, pts[i].Value, w)
		}
	}

	_, gpts, ok := h.Series("depth", time.Minute)
	if !ok || len(gpts) != 4 {
		t.Fatalf("gauge series = %+v ok=%v, want 4 carried-forward points", gpts, ok)
	}
	if gpts[1].Value != 3 || gpts[3].Value != 5 {
		t.Fatalf("gauge carry-forward broken: %+v", gpts)
	}

	st, ok := h.Window("c_total", time.Minute)
	if !ok {
		t.Fatal("Window(c_total) not ok")
	}
	if st.RatePerSec != 6 { // 18 total delta over 3 covered seconds
		t.Fatalf("weighted rate = %v, want 6", st.RatePerSec)
	}
	if st.Avg != 6 || st.Last != 8 || st.Min != 0 || st.Max != 10 {
		t.Fatalf("window stats = %+v", st)
	}

	// The window anchors at the newest sample, boundary inclusive: a 1s
	// window covers the final interval plus the sample sitting exactly on
	// the cutoff, so 8 delta over 2 covered seconds.
	st, ok = h.Window("c_total", time.Second)
	if !ok || st.RatePerSec != 4 {
		t.Fatalf("1s window rate = %v ok=%v, want 4", st.RatePerSec, ok)
	}

	if _, _, ok := h.Series("never_seen_total", time.Minute); ok {
		t.Fatal("unknown metric must report ok=false")
	}
	if _, ok := h.Window("never_seen_total", time.Minute); ok {
		t.Fatal("unknown metric window must report ok=false")
	}
}

// TestHistoryWindowRateMatchesSeries: RatePerSec is total delta over total
// elapsed across exactly the samples Series returns. The intervals are
// unequal and c_total has no point in some samples (other_total moves
// there), so the weighted rate differs from the mean of the point rates,
// and a window that cuts the ring must exclude the same samples from both.
func TestHistoryWindowRateMatchesSeries(t *testing.T) {
	h := NewHistory(16)
	t0 := time.Unix(4000, 0)
	offsets := []time.Duration{0, 500 * time.Millisecond, 2500 * time.Millisecond,
		3500 * time.Millisecond, 6500 * time.Millisecond, 6750 * time.Millisecond}
	totals := []int64{0, 4, 4, 10, 10, 13} // no c_total point at 2.5s and 6.5s
	for i := range offsets {
		histAt(h, t0.Add(offsets[i]),
			map[string]int64{"c_total": totals[i], "other_total": int64(i)}, nil, nil)
	}
	byAt := make(map[int64]HistorySample)
	for _, s := range h.Samples() {
		byAt[s.At.UnixNano()] = s
	}
	for _, window := range []time.Duration{time.Minute, 4 * time.Second, time.Second} {
		_, pts, ok := h.Series("c_total", window)
		if !ok || len(pts) == 0 {
			t.Fatalf("window %v: Series ok=%v with %d points", window, ok, len(pts))
		}
		var delta, elapsed float64
		for _, p := range pts {
			s := byAt[p.At.UnixNano()]
			elapsed += s.Elapsed.Seconds()
			for _, hp := range s.Points {
				if hp.Name == "c_total" {
					delta += hp.Value
				}
			}
		}
		st, ok := h.Window("c_total", window)
		if !ok || st.Samples != len(pts) {
			t.Fatalf("window %v: Window ok=%v samples=%d, want %d", window, ok, st.Samples, len(pts))
		}
		if want := delta / elapsed; math.Abs(st.RatePerSec-want) > 1e-12 {
			t.Fatalf("window %v: RatePerSec = %v, want %v/%v = %v", window, st.RatePerSec, delta, elapsed, want)
		}
		if window == time.Minute && math.Abs(st.RatePerSec-st.Avg) < 1 {
			t.Fatalf("weighted rate %v too close to the mean point rate %v: intervals not weighted", st.RatePerSec, st.Avg)
		}
	}
}

// TestHistoryRingWrap: the ring keeps the newest cap samples oldest-first
// while the lifetime counter keeps counting.
func TestHistoryRingWrap(t *testing.T) {
	h := NewHistory(4)
	t0 := time.Unix(3000, 0)
	for i := 0; i < 7; i++ {
		histAt(h, t0.Add(time.Duration(i)*time.Second),
			map[string]int64{"c_total": int64(i * 10)}, nil, nil)
	}
	got := h.Samples()
	if len(got) != 4 {
		t.Fatalf("ring holds %d samples, want 4", len(got))
	}
	for i := 1; i < len(got); i++ {
		if !got[i].At.After(got[i-1].At) {
			t.Fatalf("samples not oldest-first: %v then %v", got[i-1].At, got[i].At)
		}
	}
	if want := t0.Add(6 * time.Second); !got[3].At.Equal(want) {
		t.Fatalf("newest sample at %v, want %v", got[3].At, want)
	}
	if h.TotalSamples() != 7 {
		t.Fatalf("TotalSamples = %d, want 7", h.TotalSamples())
	}
	if !h.LastAt().Equal(t0.Add(6 * time.Second)) {
		t.Fatalf("LastAt = %v", h.LastAt())
	}
}
