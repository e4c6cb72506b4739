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

// TestTelemetryGroupCommitConcurrent is the pipeline's -race stress guard:
// several producers Offer spans with sampling off, so the sink's buffer is
// the only place a span can be lost, while one goroutine hammers the
// FlushTelemetry barrier and another samples OBS_TELEMETRY. Every admitted
// span must be committed exactly once, every admitted slow span must reach
// the slow log, and the backlog (sink buffer plus the writer's pending
// entries) must stay within the buffer plus two groups, not grow with the
// workload.
func TestTelemetryGroupCommitConcurrent(t *testing.T) {
	dsn := freshMem(t)
	const (
		producers = 4
		offers    = 2000
		slowEvery = 7 // span ids divisible by this are offered as slow
	)
	offered := obs.Default.Counter("obs_telemetry_offered_total")
	dropped := obs.Default.Counter("obs_telemetry_dropped_total")
	offeredBefore, droppedBefore := offered.Value(), dropped.Value()
	stop, err := StartTelemetry(dsn, TelemetryOptions{
		FlushEvery: time.Millisecond,
		BudgetPct:  -1, // the writer is under test, not the sampler
		RetainRows: -1, // retention off: every admitted span must survive
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stop() //nolint:errcheck // stopping twice is safe; covers failure paths
	sink := activeTelemetry.Load().sink

	var ids atomic.Int64
	var wg sync.WaitGroup
	sampling := make(chan struct{}) // closed once the sampler has a first reading
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-sampling
			for i := 0; i < offers; i++ {
				id := ids.Add(1)
				sink.Offer(testSpan(id, 0), id%slowEvery == 0)
			}
		}()
	}
	done := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(2)
	go func() {
		defer bg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := FlushTelemetry(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var maxDepth, capacity int64
	go func() {
		defer bg.Done()
		for first := true; ; first = false {
			rows, err := QueryCatalog("SELECT queue_depth, queue_capacity FROM OBS_TELEMETRY")
			if first {
				close(sampling)
			}
			if err != nil || len(rows) != 1 {
				t.Errorf("OBS_TELEMETRY = %v, %v", rows, err)
				return
			}
			depth, _ := rows[0]["queue_depth"].(int64)
			capacity, _ = rows[0]["queue_capacity"].(int64)
			maxDepth = max(maxDepth, depth)
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	wg.Wait()
	close(done)
	bg.Wait()
	if err := FlushTelemetry(); err != nil {
		t.Fatal(err)
	}
	// Stop before reading the tables back: the reads' own spans would
	// otherwise reach the installed sink with ids from the shared counter.
	if err := stop(); err != nil {
		t.Fatal(err)
	}

	admitted := offered.Value() - offeredBefore
	if lost := int64(producers*offers) - admitted - (dropped.Value() - droppedBefore); lost != 0 {
		t.Fatalf("%d offers neither admitted nor dropped at the sink", lost)
	}
	if spans := telemetryRowCount(t, dsn, SpansTable); spans != admitted {
		t.Fatalf("%d spans persisted, %d admitted by the sink", spans, admitted)
	}
	var slowAdmitted int64
	c := openT(t, dsn)
	rows, err := c.Query("SELECT span_id FROM " + SpansTable)
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
		if id, _ := rows.Value(0).(int64); id%slowEvery == 0 {
			slowAdmitted++
		}
	}
	rows.Close()
	if slow := telemetryRowCount(t, dsn, SlowLogTable); slow != slowAdmitted {
		t.Fatalf("slowlog rows = %d, want %d (one per admitted slow span)", slow, slowAdmitted)
	}
	if bound := capacity + 2*telemetryGroupSize; capacity == 0 || maxDepth > bound {
		t.Fatalf("queue_depth reached %d, bound %d (capacity %d + two groups)", maxDepth, bound, capacity)
	}
	t.Logf("admitted %d, dropped %d, max queue_depth %d", admitted, dropped.Value()-droppedBefore, maxDepth)
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
	})
	if err != nil {
		t.Fatal(err)
	}
	// 40 fresh spans (every 4th slow) + 10 ancient ones. The age rule
	// removes the ancient 10; the row cap then trims the fresh 40 to the
	// newest 10.
	for i := 0; i < 40; i++ {
		st.sink.Offer(testSpan(int64(i+1), 0), i%4 == 0)
	}
	for i := 0; i < 10; i++ {
		st.sink.Offer(testSpan(int64(i+100), 2*time.Hour), true)
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

// TestTelemetryPruneStallsBehindWorkload: a periodic retention sweep obeys
// the writer's write rules. While another connection holds a transaction
// the sweep returns at once and counts one stall instead of queueing
// behind the workload; once the lock is free it runs as one relaxed
// commit, not an fsync of its own under sync=1.
func TestTelemetryPruneStallsBehindWorkload(t *testing.T) {
	dsn := "file:" + t.TempDir() + "?sync=1"
	st, err := OpenTelemetryStore(dsn, TelemetryOptions{
		FlushEvery: time.Hour, // only the barrier pulls; the test drives prune itself
		BudgetPct:  -1,
		RetainAge:  time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := int64(1); i <= 5; i++ {
		st.sink.Offer(testSpan(i, 2*time.Hour), false) // older than RetainAge
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}

	c := openT(t, dsn)
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	stalls := mTelWriterStalls.Value()
	swept := make(chan struct{})
	go func() {
		st.prune(false)
		close(swept)
	}()
	select {
	case <-swept:
	case <-time.After(2 * time.Second):
		c.Rollback() //nolint:errcheck // unblock the sweep before failing
		<-swept
		t.Fatal("retention sweep blocked behind another connection's transaction")
	}
	if d := mTelWriterStalls.Value() - stalls; d != 1 {
		t.Fatalf("obs_telemetry_writer_stalls_total moved by %d, want 1", d)
	}
	if err := c.Rollback(); err != nil {
		t.Fatal(err)
	}

	relaxed := obs.Default.Counter("reldb_wal_relaxed_appends_total")
	relaxedBefore, prunedBefore := relaxed.Value(), mTelPrunedSpans.Value()
	st.prune(false)
	if d := mTelPrunedSpans.Value() - prunedBefore; d != 5 {
		t.Fatalf("obs_telemetry_pruned_spans_total moved by %d, want 5", d)
	}
	if relaxed.Value() == relaxedBefore {
		t.Fatal("the sweep's commit did not take the relaxed WAL path")
	}
}

// TestTelemetryBudgetResolution covers the budget precedence: an explicit
// budget wins, 0 means the default, and a negative budget disables the
// governor.
func TestTelemetryBudgetResolution(t *testing.T) {
	for _, tc := range []struct{ explicit, want float64 }{
		{2, 2},
		{0, DefaultTelemetryBudgetPct},
		{-1, 0},
	} {
		if got := telemetryBudget(tc.explicit); got != tc.want {
			t.Errorf("telemetryBudget(%v) = %v, want %v", tc.explicit, got, tc.want)
		}
	}

	// End to end: the explicit budget reaches the governor; a negative
	// budget disables it.
	st, err := OpenTelemetryStore("mem:budgetopt", TelemetryOptions{BudgetPct: 2.5})
	if err != nil {
		t.Fatal(err)
	}
	if g := st.gov; g == nil || g.BudgetPct() != 2.5 {
		t.Fatalf("governor budget = %v, want 2.5", g.BudgetPct())
	}
	st.Close()
	st2, err := OpenTelemetryStore("mem:budgetopt", TelemetryOptions{BudgetPct: -1})
	if err != nil {
		t.Fatal(err)
	}
	if st2.gov != nil {
		t.Fatal("governor present despite disabled budget")
	}
	st2.Close()
}

// TestCatalogTelemetry: the OBS_TELEMETRY row tracks the live pipeline —
// active with governor state while StartTelemetry runs, active=false (with
// final counters intact) after stop.
func TestCatalogTelemetry(t *testing.T) {
	dsn := freshMem(t)
	stop, err := StartTelemetry(dsn, TelemetryOptions{FlushEvery: time.Hour})
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
	stop, err := StartTelemetry(dsn, TelemetryOptions{FlushEvery: time.Hour, RetainRows: 100})
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
