package obs

import (
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// TelemetrySink batches completed spans (and slow-query entries) and hands
// them to a storage callback, either from its own background goroutine
// (Start) or whenever the storage side pulls with Flush or FlushUpTo. The
// storage side lives elsewhere (godbc's telemetry writer pulls into the
// PERFDMF_SPANS and PERFDMF_SLOWLOG tables); this type owns the buffering
// policy and the head-sampling decision:
//
//   - Offer never blocks the query path. The buffer is bounded; when it is
//     full the entry is dropped and counted in obs_telemetry_dropped_total.
//   - With a Governor attached, Offer samples: spans are admitted at the
//     governor's current rate, decided per root operation with a stride
//     counter so every root op stays represented at any rate. Slow spans
//     and spans that carry an error are always kept — they are the rows a
//     telemetry table exists for. Sampled-out spans are counted in
//     obs_telemetry_sampled_out_total.
//   - The store callback runs outside the buffer lock, so a slow (or
//     blocked) store cannot stall producers — new entries keep accumulating
//     up to Capacity and then fall on the floor, counted.
//   - Re-entrancy safety is the producer's job: the godbc connection the
//     store writes through is marked quiet, so the sink's own INSERTs never
//     produce spans that would be offered back to the sink.
type TelemetrySink struct {
	store func([]SinkEntry) error
	cap   int
	every time.Duration
	gov   *Governor

	mu      sync.Mutex
	buf     []SinkEntry
	strides map[string]*strideCounter // per-root-op sampling state

	lastFlush atomic.Int64 // unix nanos of the last completed Flush

	startOnce sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// SinkEntry is one completed span; Slow marks entries that also crossed the
// slow-query threshold (they are mirrored into the slow-log table).
type SinkEntry struct {
	Span *Span
	Slow bool
}

// SinkOptions tunes a TelemetrySink. Zero values pick the defaults.
type SinkOptions struct {
	// Capacity bounds the number of buffered entries (default 4096).
	Capacity int
	// FlushEvery is the background flush period (default 25ms). Flushing
	// is a cheap buffer swap — the storage side coalesces batches into
	// group commits on its own cadence — so a short period buys sampling
	// feedback latency, not write amplification.
	FlushEvery time.Duration
	// Governor drives head sampling. Nil keeps every span.
	Governor *Governor
}

// Sink throughput metrics, resolved once.
var (
	sinkOffered    = Default.Counter("obs_telemetry_offered_total")
	sinkDropped    = Default.Counter("obs_telemetry_dropped_total")
	sinkSampledOut = Default.Counter("obs_telemetry_sampled_out_total")
	sinkStored     = Default.Counter("obs_telemetry_stored_total")
	sinkStoreErrs  = Default.Counter("obs_telemetry_store_errors_total")
)

// NewTelemetrySink returns a sink feeding store. Call Start to launch the
// background flusher; Flush works without it (a store that pulls, tests).
func NewTelemetrySink(store func([]SinkEntry) error, o SinkOptions) *TelemetrySink {
	if o.Capacity <= 0 {
		o.Capacity = 4096
	}
	if o.FlushEvery <= 0 {
		o.FlushEvery = 25 * time.Millisecond
	}
	return &TelemetrySink{
		store:   store,
		cap:     o.Capacity,
		every:   o.FlushEvery,
		gov:     o.Governor,
		strides: make(map[string]*strideCounter),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
}

// Start launches the background flush goroutine. Starting twice is a no-op.
func (s *TelemetrySink) Start() {
	s.startOnce.Do(func() { go s.loop() })
}

func (s *TelemetrySink) loop() {
	defer close(s.done)
	t := time.NewTicker(s.every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.Flush() //nolint:errcheck // counted in obs_telemetry_store_errors_total
		case <-s.stop:
			return
		}
	}
}

// strideCounter admits every n-th span of one root operation so that the
// admitted fraction tracks the sample rate exactly, whatever the rate.
type strideCounter struct {
	seen int64
	kept int64
}

// admit decides one span at the given rate: keep while the kept fraction
// trails seen*rate. Deterministic (no RNG) and exact: after n offers at a
// steady rate r, kept == ceil(n*r).
func (sc *strideCounter) admit(rate float64) bool {
	sc.seen++
	if float64(sc.kept) < float64(sc.seen)*rate {
		sc.kept++
		return true
	}
	return false
}

// rootOpKey groups spans by the operation of the tree they belong to: the
// root name's prefix before ':' ("upload" from "t1:e1-upload" roots comes
// out as "t1"), or the span's own op for parentless spans. Sampling per
// root op keeps rare operations visible while a hot loop is being shed.
func rootOpKey(sp *Span) string {
	if sp.Root != "" {
		if i := strings.IndexByte(sp.Root, ':'); i > 0 {
			return sp.Root[:i]
		}
		return sp.Root
	}
	return sp.Op()
}

// Offer enqueues a completed span without blocking. When a governor is
// attached the span is first sampled (slow and error spans always pass);
// when the buffer is at capacity the entry is dropped and counted —
// backpressure must never stall the statement that produced the span.
func (s *TelemetrySink) Offer(sp *Span, slow bool) {
	if sp == nil {
		return
	}
	if s.gov.Disabled() {
		// A zero budget means no persistence overhead at all — even the
		// slow/error bypass is shed (counted, so the shedding is visible).
		sinkSampledOut.Inc()
		return
	}
	s.mu.Lock()
	if s.gov != nil && !slow && sp.Err == "" {
		rate := s.gov.Rate()
		if rate < 1 {
			key := rootOpKey(sp)
			sc := s.strides[key]
			if sc == nil {
				sc = &strideCounter{}
				s.strides[key] = sc
			}
			if !sc.admit(rate) {
				s.mu.Unlock()
				sinkSampledOut.Inc()
				return
			}
		}
	}
	if len(s.buf) >= s.cap {
		s.mu.Unlock()
		sinkDropped.Inc()
		return
	}
	s.buf = append(s.buf, SinkEntry{Span: sp, Slow: slow})
	s.mu.Unlock()
	sinkOffered.Inc()
}

// Buffered returns the number of entries waiting for the next flush.
func (s *TelemetrySink) Buffered() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.buf)
}

// Dropped returns the total entries dropped under backpressure.
func (s *TelemetrySink) Dropped() int64 { return sinkDropped.Value() }

// Capacity returns the buffer's entry capacity.
func (s *TelemetrySink) Capacity() int { return s.cap }

// Governor returns the attached governor, nil when sampling is off.
func (s *TelemetrySink) Governor() *Governor { return s.gov }

// LastFlush returns when the last Flush completed (zero before the first).
func (s *TelemetrySink) LastFlush() time.Time {
	ns := s.lastFlush.Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// Flush synchronously stores everything buffered so far. Entries are handed
// to the store callback outside the buffer lock.
func (s *TelemetrySink) Flush() error { return s.FlushUpTo(math.MaxInt) }

// FlushUpTo is Flush bounded to the n oldest buffered entries, for a store
// that takes only what it has room for. With n <= 0 it stores nothing but
// still counts as a completed flush.
func (s *TelemetrySink) FlushUpTo(n int) error {
	s.mu.Lock()
	batch := s.buf
	if n = max(n, 0); n < len(batch) {
		batch, s.buf = batch[:n:n], batch[n:]
	} else {
		s.buf = nil
	}
	s.mu.Unlock()
	if len(batch) == 0 {
		s.lastFlush.Store(time.Now().UnixNano())
		return nil
	}
	if err := s.store(batch); err != nil {
		sinkStoreErrs.Inc()
		return err
	}
	sinkStored.Add(int64(len(batch)))
	s.lastFlush.Store(time.Now().UnixNano())
	return nil
}

// Close stops the background flusher (if started) and runs a final Flush.
func (s *TelemetrySink) Close() error {
	s.startOnce.Do(func() { close(s.done) }) // never started: mark loop done
	select {
	case <-s.done:
	default:
		close(s.stop)
		<-s.done
	}
	return s.Flush()
}

// --- global sink installation ---

var activeSink atomic.Pointer[TelemetrySink]

// InstallSink routes every completed span to s until UninstallSink. While a
// sink is installed, godbc starts spans even with tracing and the slow-query
// log off, so the telemetry tables see all statements.
func InstallSink(s *TelemetrySink) { activeSink.Store(s) }

// UninstallSink detaches the installed sink (it is not closed).
func UninstallSink() { activeSink.Store(nil) }

// ActiveSink returns the installed sink, nil when none.
func ActiveSink() *TelemetrySink { return activeSink.Load() }

// SinkActive reports whether a sink is installed — a single atomic load,
// cheap enough for statement hot paths.
func SinkActive() bool { return activeSink.Load() != nil }
