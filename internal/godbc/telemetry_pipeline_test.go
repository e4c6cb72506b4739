package godbc

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"perfdmf/internal/obs"
)

// testSpan builds a minimal persistable span for pipeline tests.
func testSpan(id int64, age time.Duration) *obs.Span {
	return &obs.Span{
		ID: id, Root: "load:test", Kind: "exec",
		Statement: "INSERT INTO w (n) VALUES (?)",
		Start:     time.Now().Add(-age), Total: 50 * time.Microsecond,
	}
}

// telemetryRowCount counts rows in one telemetry table through a fresh
// connection.
func telemetryRowCount(t *testing.T, dsn, table string) int64 {
	t.Helper()
	c := openT(t, dsn)
	rows, err := c.Query("SELECT COUNT(*) FROM " + table)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatalf("no row counting %s", table)
	}
	n, _ := rows.Value(0).(int64)
	return n
}

// TestTelemetryGroupCommitConcurrent is the writer's -race stress guard:
// several producers Store batches while another goroutine hammers the
// Flush barrier. The acknowledged-batch contract must hold exactly — every
// entry whose Store returned nil is committed — and the accepted-but-
// uncommitted backlog must stay bounded by the queue geometry, not grow
// with the workload.
func TestTelemetryGroupCommitConcurrent(t *testing.T) {
	dsn := freshMem(t)
	const (
		producers = 4
		batches   = 30
		batchLen  = 7
		groupSize = 32
		queueCap  = 8
	)
	st, err := OpenTelemetryStore(dsn, TelemetryOptions{
		BudgetPct:    -1, // the writer is under test, not the sampler
		GroupSize:    groupSize,
		MaxBatchAge:  2 * time.Millisecond,
		QueueBatches: queueCap,
		RetainRows:   -1, // retention off: every acknowledged span must survive
	})
	if err != nil {
		t.Fatal(err)
	}

	var acked, rejected atomic.Int64
	var ids atomic.Int64
	var maxQueued atomic.Int64
	sample := func() {
		q := int64(st.QueuedEntries())
		for {
			cur := maxQueued.Load()
			if q <= cur || maxQueued.CompareAndSwap(cur, q) {
				return
			}
		}
	}

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				batch := make([]obs.SinkEntry, batchLen)
				for i := range batch {
					batch[i] = obs.SinkEntry{Span: testSpan(ids.Add(1), 0), Slow: i == 0}
				}
				if err := st.Store(batch); err != nil {
					rejected.Add(batchLen) // queue full: shed, never blocked
				} else {
					acked.Add(batchLen)
				}
				sample()
			}
		}()
	}
	flushStop := make(chan struct{})
	var flushWG sync.WaitGroup
	flushWG.Add(1)
	go func() {
		defer flushWG.Done()
		for {
			select {
			case <-flushStop:
				return
			default:
				if err := st.Flush(); err != nil {
					t.Error(err)
					return
				}
				sample()
			}
		}
	}()
	wg.Wait()
	close(flushStop)
	flushWG.Wait()

	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if q := st.QueuedEntries(); q != 0 {
		t.Fatalf("queued entries after final flush = %d, want 0", q)
	}
	spans := telemetryRowCount(t, dsn, SpansTable)
	if spans != acked.Load() {
		t.Fatalf("lost acknowledged entries: %d spans persisted, %d acknowledged (%d rejected)",
			spans, acked.Load(), rejected.Load())
	}
	slow := telemetryRowCount(t, dsn, SlowLogTable)
	if want := acked.Load() / batchLen; slow != want {
		t.Fatalf("slowlog rows = %d, want %d (one per acknowledged batch)", slow, want)
	}
	// Bounded backlog: channel capacity + the writer's in-flight group and
	// partial batch. Far below the workload total, which is the point.
	bound := int64(queueCap*batchLen + 2*groupSize + batchLen)
	if m := maxQueued.Load(); m > bound {
		t.Fatalf("queued backlog reached %d entries, bound %d", m, bound)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Store after Close is a clean, counted error — not a panic or a hang.
	if err := st.Store([]obs.SinkEntry{{Span: testSpan(ids.Add(1), 0)}}); err == nil {
		t.Fatal("Store on a closed store succeeded")
	}
}

// TestTelemetryRetention: the writer's shutdown sweep enforces both caps —
// newest RetainRows rows survive the row cap, and rows older than
// RetainAge are pruned regardless — in both telemetry tables, with the
// losses counted.
func TestTelemetryRetention(t *testing.T) {
	dsn := freshMem(t)
	prunedSpansBefore := mTelPrunedSpans.Value()
	prunedSlowBefore := mTelPrunedSlow.Value()
	st, err := OpenTelemetryStore(dsn, TelemetryOptions{
		BudgetPct:  -1,
		RetainRows: 10,
		RetainAge:  30 * time.Minute,
		PruneEvery: time.Hour, // only the Close sweep runs in this test
	})
	if err != nil {
		t.Fatal(err)
	}
	// 40 fresh spans (every 4th slow) + 10 ancient ones. The age rule
	// removes the ancient 10; the row cap then trims the fresh 40 to the
	// newest 10.
	var batch []obs.SinkEntry
	for i := 0; i < 40; i++ {
		batch = append(batch, obs.SinkEntry{Span: testSpan(int64(i+1), 0), Slow: i%4 == 0})
	}
	for i := 0; i < 10; i++ {
		batch = append(batch, obs.SinkEntry{Span: testSpan(int64(i+100), 2*time.Hour), Slow: true})
	}
	if err := st.Store(batch); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := telemetryRowCount(t, dsn, SpansTable); n != 50 {
		t.Fatalf("pre-prune span rows = %d, want 50", n)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if n := telemetryRowCount(t, dsn, SpansTable); n != 10 {
		t.Fatalf("span rows after retention = %d, want 10", n)
	}
	// Slow rows: 10 of the fresh 40 + all 10 ancient = 20 before pruning.
	// Age prunes the ancient 10; the row cap (10) already holds after that.
	if n := telemetryRowCount(t, dsn, SlowLogTable); n != 10 {
		t.Fatalf("slowlog rows after retention = %d, want 10", n)
	}
	if d := mTelPrunedSpans.Value() - prunedSpansBefore; d != 40 {
		t.Fatalf("obs_telemetry_pruned_spans_total moved by %d, want 40", d)
	}
	if d := mTelPrunedSlow.Value() - prunedSlowBefore; d != 10 {
		t.Fatalf("obs_telemetry_pruned_slowlog_total moved by %d, want 10", d)
	}
	// The survivors are the newest fresh rows: ids 31..40.
	c := openT(t, dsn)
	rows, err := c.Query("SELECT MIN(span_id), MAX(span_id) FROM " + SpansTable)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatal("no aggregate row")
	}
	lo, _ := rows.Value(0).(int64)
	hi, _ := rows.Value(1).(int64)
	if lo != 31 || hi != 40 {
		t.Fatalf("surviving span ids [%d, %d], want [31, 40]", lo, hi)
	}
}

// TestTelemetryStoreNeverBlocks pins Store's non-blocking contract in
// isolation: with the writer wedged (none running at all), the queue
// absorbs its capacity, then sheds with a counted error — synchronously,
// with no goroutine to rescue a blocked send.
func TestTelemetryStoreNeverBlocks(t *testing.T) {
	ts := &TelemetryStore{
		queue:    make(chan []obs.SinkEntry, 2),
		flushReq: make(chan chan error),
		stopCh:   make(chan struct{}),
		done:     make(chan struct{}),
		opts:     TelemetryOptions{}.withDefaults(),
	}
	batch := []obs.SinkEntry{{Span: testSpan(1, 0)}, {Span: testSpan(2, 0)}}
	dropsBefore := mTelQueueDrops.Value()
	for i := 0; i < 2; i++ {
		if err := ts.Store(batch); err != nil {
			t.Fatalf("Store %d with queue space: %v", i, err)
		}
	}
	if q := ts.QueuedEntries(); q != 4 {
		t.Fatalf("queued = %d, want 4", q)
	}
	err := ts.Store(batch) // queue full; must return, not block
	if err == nil || !strings.Contains(err.Error(), "queue full") {
		t.Fatalf("full-queue Store error = %v", err)
	}
	if d := mTelQueueDrops.Value() - dropsBefore; d != 2 {
		t.Fatalf("obs_telemetry_writer_queue_drops_total moved by %d, want 2 (one per shed entry)", d)
	}
	if q := ts.QueuedEntries(); q != 4 {
		t.Fatalf("queued after shed = %d, want 4 (shed batch not counted)", q)
	}
	if err := ts.Store(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

// TestTelemetryBudgetResolution covers the budget precedence — explicit
// option over DSN option over default — and the DSN option's validation on
// ordinary connections.
func TestTelemetryBudgetResolution(t *testing.T) {
	cases := []struct {
		dsn      string
		explicit float64
		want     float64
	}{
		{"mem:b", 2, 2},                       // explicit wins
		{"mem:b?telemetrybudget=3.5", 2, 2},   // explicit beats DSN
		{"mem:b?telemetrybudget=3.5", 0, 3.5}, // DSN option
		{"mem:b", 0, DefaultTelemetryBudgetPct},
		{"mem:b?telemetrybudget=3.5", -1, 0}, // negative disables
		{"mem:b?telemetrybudget=0", 0, 0},    // explicit zero in the DSN disables
	}
	for _, tc := range cases {
		got, err := resolveTelemetryBudget(tc.dsn, tc.explicit)
		if err != nil {
			t.Errorf("resolveTelemetryBudget(%q, %v): %v", tc.dsn, tc.explicit, err)
			continue
		}
		if got != tc.want {
			t.Errorf("resolveTelemetryBudget(%q, %v) = %v, want %v", tc.dsn, tc.explicit, got, tc.want)
		}
	}
	if _, err := resolveTelemetryBudget("mem:b?telemetrybudget=fast", 0); err == nil {
		t.Error("bad telemetrybudget value resolved without error")
	}

	// The option is a first-class DSN key: ordinary connections accept it
	// (and validate it) even though only the telemetry store reads it.
	c, err := Open("mem:budgetopt?telemetrybudget=5")
	if err != nil {
		t.Fatalf("Open with telemetrybudget: %v", err)
	}
	c.Close()
	if _, err := Open("mem:budgetopt?telemetrybudget=fast"); err == nil ||
		!strings.Contains(err.Error(), "not a non-negative number") {
		t.Fatalf("Open with bad telemetrybudget = %v, want validation error", err)
	}
	if _, err := Open("mem:budgetopt?telemetrybudget=-1"); err == nil {
		t.Fatal("Open accepted a negative telemetrybudget")
	}

	// End to end: the DSN budget reaches the governor; a negative explicit
	// budget disables it.
	st, err := OpenTelemetryStore("mem:budgetopt?telemetrybudget=2.5", TelemetryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g := st.Governor(); g == nil || g.BudgetPct() != 2.5 {
		t.Fatalf("governor budget = %v, want 2.5", g.BudgetPct())
	}
	st.Close()
	st2, err := OpenTelemetryStore("mem:budgetopt?telemetrybudget=2.5", TelemetryOptions{BudgetPct: -1})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Governor() != nil {
		t.Fatal("governor present despite disabled budget")
	}
	st2.Close()
}

// TestCatalogTelemetry: the OBS_TELEMETRY row tracks the live pipeline —
// active with governor state while StartTelemetry runs, active=false (with
// final counters intact) after stop.
func TestCatalogTelemetry(t *testing.T) {
	dsn := freshMem(t)
	stop, err := StartTelemetry(dsn, TelemetryOptions{Sink: obs.SinkOptions{FlushEvery: time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	stopped := false
	defer func() {
		if !stopped {
			stop() //nolint:errcheck // best-effort cleanup on failure paths
		}
	}()

	c := openT(t, dsn)
	mustExec(t, c, "CREATE TABLE w (n BIGINT)")
	mustExec(t, c, "INSERT INTO w (n) VALUES (?)", int64(1))

	_, out := collect(t, c, "SELECT active, sample_rate, budget_pct, queue_capacity, retain_rows FROM OBS_TELEMETRY")
	if len(out) != 1 {
		t.Fatalf("OBS_TELEMETRY rows = %v, want exactly 1", out)
	}
	if out[0][0] != "true" {
		t.Fatalf("active = %q while pipeline runs, want true", out[0][0])
	}
	if out[0][1] != "1" {
		t.Fatalf("sample_rate = %q before any shedding, want 1", out[0][1])
	}
	if out[0][2] != "5" {
		t.Fatalf("budget_pct = %q, want default 5", out[0][2])
	}

	stopped = true
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	_, out = collect(t, c, "SELECT active, stored FROM OBS_TELEMETRY")
	if len(out) != 1 || out[0][0] != "false" {
		t.Fatalf("OBS_TELEMETRY after stop = %v, want active=false", out)
	}
}

// TestCatalogTelemetryRow: OBS_TELEMETRY always answers with exactly one
// row — active=false with NULL state when no pipeline has ever run, the
// pipeline's state otherwise, with the off/never values rendered as NULL
// so dashboards can tell "disabled" from "zero seconds ago".
func TestCatalogTelemetryRow(t *testing.T) {
	c := openT(t, freshMem(t))
	prev := activeTelemetry.Swap(nil) // as if no pipeline had ever run
	_, out := collect(t, c, "SELECT active, sample_rate, stored, history_enabled, alerts_firing FROM OBS_TELEMETRY")
	activeTelemetry.Store(prev)
	if len(out) != 1 || strings.Join(out[0], ",") != "false,<nil>,<nil>,<nil>,<nil>" {
		t.Fatalf("never-run OBS_TELEMETRY = %v, want active=false and NULLs", out)
	}

	dsn := freshMem(t)
	stop, err := StartTelemetry(dsn, TelemetryOptions{Sink: obs.SinkOptions{FlushEvery: time.Hour}, RetainRows: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer stop() //nolint:errcheck // best-effort cleanup
	_, out = collect(t, c, `SELECT retain_rows, retain_age_sec, last_flush_age_sec, history_enabled,
		last_scrape_age_ms, alert_rules, alerts_pending, alerts_firing FROM OBS_TELEMETRY`)
	if len(out) != 1 || strings.Join(out[0], ",") != "100,<nil>,<nil>,false,<nil>,0,0,0" {
		t.Fatalf("OBS_TELEMETRY off/never columns = %v", out)
	}
	// The row composes like any table: usable in a WHERE clause.
	_, out = collect(t, c, "SELECT retain_rows FROM OBS_TELEMETRY WHERE active = TRUE")
	if len(out) != 1 || out[0][0] != "100" {
		t.Fatalf("filtered catalog row = %v", out)
	}
}

// wrappedDriver opens built-in connections behind a foreign Conn type, the
// shape of a third-party driver layered over the engine.
type wrappedDriver struct{}

type wrappedConn struct{ Conn }

var registerWrapped sync.Once

func (wrappedDriver) Open(rest string) (Conn, error) {
	c, err := Open("mem:" + rest)
	if err != nil {
		return nil, err
	}
	return wrappedConn{c}, nil
}

// TestTelemetryStoreRequiresBuiltinConn: the store's writer depends on the
// built-in connection's quiet, relaxed and non-blocking transaction modes,
// so a DSN whose driver returns any other Conn fails up front instead of
// persisting through a connection that would trace itself and fsync per
// commit.
func TestTelemetryStoreRequiresBuiltinConn(t *testing.T) {
	registerWrapped.Do(func() { Register("wrapped-telemetry-test", wrappedDriver{}) })
	ts, err := OpenTelemetryStore("wrapped-telemetry-test:telemetry_wrapped", TelemetryOptions{})
	if err == nil {
		ts.Close()
		t.Fatal("OpenTelemetryStore accepted a non-built-in connection")
	}
	if !strings.Contains(err.Error(), "not a built-in perfdmf connection") {
		t.Fatalf("OpenTelemetryStore error = %v", err)
	}
}
