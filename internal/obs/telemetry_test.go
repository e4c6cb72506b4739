package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSinkBackpressure proves the sink drops (and counts) entries rather
// than blocking the producer: the store callback is blocked for the whole
// test, the buffer holds Capacity entries, and every extra Offer returns
// immediately as a counted drop.
func TestSinkBackpressure(t *testing.T) {
	block := make(chan struct{})
	storeEntered := make(chan struct{})
	s := NewTelemetrySink(func(batch []SinkEntry) error {
		close(storeEntered)
		<-block // simulate a wedged database
		return nil
	}, SinkOptions{Capacity: 4})

	droppedBefore := sinkDropped.Value()
	for i := 0; i < 4; i++ {
		s.Offer(&Span{ID: int64(i + 1), Kind: "exec"}, false)
	}
	if got := s.Buffered(); got != 4 {
		t.Fatalf("buffered = %d, want 4", got)
	}

	// Flush hands the batch to the (blocked) store on this goroutine's
	// stack — run it in the background and keep producing meanwhile.
	flushDone := make(chan error, 1)
	go func() { flushDone <- s.Flush() }()
	<-storeEntered

	// The store is wedged; Offer must still complete instantly and the
	// buffer must refill up to capacity, then drop.
	done := make(chan struct{})
	go func() {
		for i := 0; i < 10; i++ {
			s.Offer(&Span{ID: int64(100 + i), Kind: "query"}, false)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Offer blocked behind a wedged store")
	}
	if got := s.Buffered(); got != 4 {
		t.Fatalf("buffered after refill = %d, want 4 (capacity)", got)
	}
	if got := sinkDropped.Value() - droppedBefore; got != 6 {
		t.Fatalf("dropped = %d, want 6", got)
	}

	close(block)
	if err := <-flushDone; err != nil {
		t.Fatalf("flush: %v", err)
	}
}

// TestSinkFlushUpTo: a bounded flush hands the store the oldest n entries
// in offer order and leaves the rest buffered for the next one; n = 0
// stores nothing but still completes a flush.
func TestSinkFlushUpTo(t *testing.T) {
	var got []int64
	s := NewTelemetrySink(func(batch []SinkEntry) error {
		for _, e := range batch {
			got = append(got, e.Span.ID)
		}
		return nil
	}, SinkOptions{Capacity: 8})
	for i := int64(1); i <= 5; i++ {
		s.Offer(&Span{ID: i, Kind: "exec"}, false)
	}
	if err := s.FlushUpTo(0); err != nil || s.Buffered() != 5 || len(got) != 0 || s.LastFlush().IsZero() {
		t.Fatalf("FlushUpTo(0): err %v, buffered %d, stored %v, last flush %v; want an empty completed flush",
			err, s.Buffered(), got, s.LastFlush())
	}
	if err := s.FlushUpTo(2); err != nil {
		t.Fatal(err)
	}
	if s.Buffered() != 3 || fmt.Sprint(got) != "[1 2]" {
		t.Fatalf("after FlushUpTo(2): stored %v, buffered %d", got, s.Buffered())
	}
	s.Offer(&Span{ID: 6, Kind: "exec"}, false)
	if err := s.FlushUpTo(10); err != nil { // more than buffered: takes all
		t.Fatal(err)
	}
	if s.Buffered() != 0 || fmt.Sprint(got) != "[1 2 3 4 5 6]" {
		t.Fatalf("after FlushUpTo(10): stored %v, buffered %d", got, s.Buffered())
	}
}

// TestSinkFlushAndClose checks batching, the stored counter, error counting,
// and that Close performs a final flush after stopping the loop.
func TestSinkFlushAndClose(t *testing.T) {
	var mu sync.Mutex
	var got []int64
	fail := false
	s := NewTelemetrySink(func(batch []SinkEntry) error {
		if fail {
			return fmt.Errorf("store down")
		}
		mu.Lock()
		for _, e := range batch {
			got = append(got, e.Span.ID)
		}
		mu.Unlock()
		return nil
	}, SinkOptions{Capacity: 100, FlushEvery: time.Hour})
	s.Start()

	storedBefore, errsBefore := sinkStored.Value(), sinkStoreErrs.Value()
	s.Offer(&Span{ID: 1}, false)
	s.Offer(&Span{ID: 2}, true)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("stored ids = %v", got)
	}
	if d := sinkStored.Value() - storedBefore; d != 2 {
		t.Fatalf("stored counter moved by %d, want 2", d)
	}

	fail = true
	s.Offer(&Span{ID: 3}, false)
	if err := s.Flush(); err == nil {
		t.Fatal("flush swallowed a store error")
	}
	if d := sinkStoreErrs.Value() - errsBefore; d != 1 {
		t.Fatalf("store error counter moved by %d, want 1", d)
	}
	fail = false

	s.Offer(&Span{ID: 4}, false)
	if err := s.Close(); err != nil { // final flush
		t.Fatal(err)
	}
	mu.Lock()
	last := got[len(got)-1]
	mu.Unlock()
	if last != 4 {
		t.Fatalf("Close did not flush the tail: %v", got)
	}
	// Close on a never-started sink still flushes.
	s2 := NewTelemetrySink(func(batch []SinkEntry) error { return nil }, SinkOptions{})
	s2.Offer(&Span{ID: 9}, false)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSinkInstall(t *testing.T) {
	if SinkActive() {
		t.Fatal("sink active before install")
	}
	s := NewTelemetrySink(func([]SinkEntry) error { return nil }, SinkOptions{})
	InstallSink(s)
	if !SinkActive() || ActiveSink() != s {
		t.Fatal("install did not take")
	}
	UninstallSink()
	if SinkActive() {
		t.Fatal("uninstall did not take")
	}
}

func TestSpanIDAndOp(t *testing.T) {
	a, b := NextSpanID(), NextSpanID()
	if b != a+1 {
		t.Fatalf("ids not monotonic: %d then %d", a, b)
	}
	sp := &Span{ID: 42, Kind: "query", Statement: "select *\n from t", Start: time.Unix(0, 0).UTC()}
	if op := sp.Op(); op != "SELECT" {
		t.Fatalf("op = %q", op)
	}
	if op := (&Span{}).Op(); op != "" {
		t.Fatalf("empty-statement op = %q", op)
	}
	line := sp.String()
	if !strings.Contains(line, "id=42") {
		t.Fatalf("log line missing span id: %s", line)
	}
	if !strings.HasPrefix(line, "1970-01-01T00:00:00Z") {
		t.Fatalf("log line missing wall-clock start: %s", line)
	}
}

// TestSnapshotQuantiles checks p50/p95/p99 surface in both exposition
// formats: precomputed fields in the JSON snapshot shape, and
// quantile-labelled series in the Prometheus text output.
func TestSnapshotQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ns")
	for i := 0; i < 99; i++ {
		h.Observe(3) // bucket [2,4)
	}
	h.Observe(1000) // bucket [512,1024)
	s := r.Snapshot().Histograms["lat_ns"]
	if s.P50 != 4 || s.P95 != 4 {
		t.Fatalf("p50=%d p95=%d, want 4", s.P50, s.P95)
	}
	if s.P99 != 4 || s.Quantile(1.0) != 1024 {
		t.Fatalf("p99=%d q100=%d", s.P99, s.Quantile(1.0))
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`lat_ns{quantile="0.5"} 4`,
		`lat_ns{quantile="0.95"} 4`,
		`lat_ns{quantile="0.99"} 4`,
		`lat_ns_bucket{le="4"} 99`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

// TestRegistryConcurrentRegistration hammers first-use registration of many
// distinct metric names from many goroutines while snapshots are taken —
// the lock-upgrade path in Counter/Gauge/Histogram under -race.
func TestRegistryConcurrentRegistration(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				name := fmt.Sprintf("m_%d", j%50)
				r.Counter(name).Inc()
				r.Gauge(name + "_g").Set(int64(j))
				r.Histogram(name + "_ns").Observe(int64(j))
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			r.Snapshot()
		}
	}()
	wg.Wait()
	if got := r.Counter("m_0").Value(); got != 8*4 {
		t.Fatalf("m_0 = %d, want 32", got)
	}
	if got := len(r.Snapshot().Counters); got != 50 {
		t.Fatalf("registered %d counters, want 50", got)
	}
}

// TestSinkDropCounterExported: drop accounting is a first-class metric —
// obs_telemetry_dropped_total lives on the default registry, so every drop
// shows up in the Prometheus exposition /metrics serves.
func TestSinkDropCounterExported(t *testing.T) {
	s := NewTelemetrySink(func([]SinkEntry) error { return nil }, SinkOptions{Capacity: 2})
	before := sinkDropped.Value()
	for i := 0; i < 5; i++ {
		s.Offer(&Span{ID: int64(i + 1), Kind: "exec"}, false)
	}
	if got := s.Dropped() - before; got != 3 {
		t.Fatalf("dropped = %d, want 3 (capacity 2, 5 offers)", got)
	}
	var buf strings.Builder
	if err := Default.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var total int64 = -1
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "obs_telemetry_dropped_total ") {
			fmt.Sscan(strings.TrimPrefix(line, "obs_telemetry_dropped_total "), &total) //nolint:errcheck // asserted below
		}
	}
	if total < before+3 {
		t.Fatalf("exposition reports obs_telemetry_dropped_total %d, want >= %d:\n%s", total, before+3, buf.String())
	}
}
