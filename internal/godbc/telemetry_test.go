package godbc

import (
	"strings"
	"testing"
	"time"

	"perfdmf/internal/obs"
)

// TestTelemetrySelfHosted is the tentpole regression test: spans produced
// by ordinary statements land in PERFDMF_SPANS / PERFDMF_SLOWLOG and are
// queryable with SQL on the same database — and the sink's own INSERTs
// provably do not trace themselves back into the sink.
func TestTelemetrySelfHosted(t *testing.T) {
	obs.SetSlowQueryThreshold(time.Nanosecond) // everything is "slow"
	defer obs.SetSlowQueryThreshold(0)

	dsn := freshMem(t)
	st, err := OpenTelemetryStore(dsn, TelemetryOptions{FlushEvery: time.Hour}) // only the barrier pulls
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sink := st.sink
	obs.InstallSink(sink)
	defer obs.UninstallSink()

	// The telemetry tables are ordinary tables: discoverable via MetaData.
	c, err := Open(dsn + "?trace=1")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tables, err := c.MetaData().Tables()
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(tables, ",")
	if !strings.Contains(joined, SpansTable) || !strings.Contains(joined, SlowLogTable) {
		t.Fatalf("telemetry tables not in metadata: %v", tables)
	}

	mustExec(t, c, "CREATE TABLE workload (id BIGINT PRIMARY KEY, v BIGINT)")
	for i := 0; i < 5; i++ {
		mustExec(t, c, "INSERT INTO workload (id, v) VALUES (?, ?)", i, i*i)
	}
	rows, err := c.Query("SELECT COUNT(*) FROM workload")
	if err != nil {
		t.Fatal(err)
	}
	rows.Close()

	if sink.Buffered() == 0 {
		t.Fatal("sink buffered nothing despite active statements")
	}
	// The writer barrier pulls the sink's buffer and commits it.
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}

	// The framework's own performance data, via the framework's own SQL.
	count := func(query string, args ...any) int64 {
		t.Helper()
		r, err := c.Query(query, args...)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if !r.Next() {
			t.Fatalf("no row from %s", query)
		}
		var n int64
		if err := r.Scan(&n); err != nil {
			t.Fatal(err)
		}
		return n
	}
	if n := count("SELECT COUNT(*) FROM PERFDMF_SPANS WHERE op = ?", "INSERT"); n < 5 {
		t.Fatalf("spans table has %d INSERT spans, want >= 5", n)
	}
	if n := count("SELECT COUNT(*) FROM PERFDMF_SPANS WHERE kind = ?", "query"); n < 1 {
		t.Fatalf("spans table has %d query spans", n)
	}
	// The ISSUE's canonical telemetry query shape: per-op aggregation.
	r, err := c.Query("SELECT op, COUNT(*), SUM(dur_us) FROM PERFDMF_SPANS GROUP BY op")
	if err != nil {
		t.Fatal(err)
	}
	ops := map[string]int64{}
	for r.Next() {
		var op string
		var n, dur int64
		if err := r.Scan(&op, &n, &dur); err != nil {
			t.Fatal(err)
		}
		ops[op] = n
	}
	r.Close()
	if ops["INSERT"] < 5 || ops["SELECT"] < 1 || ops["CREATE"] < 1 {
		t.Fatalf("GROUP BY op = %v", ops)
	}

	// Slow entries (threshold 1ns catches everything) mirror into the slow
	// log table and join back to the spans table by span_id.
	if n := count("SELECT COUNT(*) FROM PERFDMF_SLOWLOG"); n < 5 {
		t.Fatalf("slowlog table has %d rows", n)
	}
	if n := count(`SELECT COUNT(*) FROM PERFDMF_SLOWLOG s
		JOIN PERFDMF_SPANS p ON s.span_id = p.span_id`); n < 5 {
		t.Fatalf("slowlog/spans join produced %d rows", n)
	}

	// Re-entrancy: the sink's own INSERTs ran on a quiet connection, so no
	// stored span may mention the telemetry tables...
	spans, err := c.Query("SELECT statement FROM PERFDMF_SPANS")
	if err != nil {
		t.Fatal(err)
	}
	for spans.Next() {
		var stmt string
		if err := spans.Scan(&stmt); err != nil {
			t.Fatal(err)
		}
		up := strings.ToUpper(stmt)
		if strings.Contains(up, SpansTable) || strings.Contains(up, SlowLogTable) {
			// The COUNT queries this test itself ran over the telemetry
			// tables on the traced connection are expected; the sink's
			// INSERTs are not.
			if strings.HasPrefix(strings.TrimSpace(up), "INSERT") {
				t.Fatalf("sink traced its own INSERT: %q", stmt)
			}
		}
	}
	spans.Close()

	// ...and flushing leaves nothing new behind beyond the verification
	// queries above (all SELECTs on the traced conn). Drain and re-check:
	// after a flush with only quiet-connection activity, the buffer is empty.
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := sink.Buffered(); n != 0 {
		t.Fatalf("sink re-buffered %d entries after its own flush", n)
	}
}

// TestTelemetryDisabledIsFree: with no sink installed and no tracing, the
// statement path produces no spans at all.
func TestTelemetryDisabledIsFree(t *testing.T) {
	c, err := Open("mem:notelemetry")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cc := c.(*conn)
	if sp := cc.startSpan("exec", "CREATE TABLE x (id BIGINT)", 0); sp != nil {
		t.Fatal("span created with all consumers off")
	}
	s := obs.NewTelemetrySink(func([]obs.SinkEntry) error { return nil }, obs.SinkOptions{})
	obs.InstallSink(s)
	defer obs.UninstallSink()
	if sp := cc.startSpan("exec", "CREATE TABLE x (id BIGINT)", 0); sp == nil {
		t.Fatal("no span despite installed sink")
	}
}

// TestDSNUnknownOptions is the strict-parser regression suite: misspelled
// or unsupported option keys must fail Open with a clear error on both
// drivers, while every known key still opens.
func TestDSNUnknownOptions(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		dsn     string
		wantErr string // "" = must open
	}{
		// The motivating misspelling: ?trce=1 must not silently no-op.
		{"mem:strict?trce=1", `unknown DSN option "trce"`},
		{"mem:strict?slow_ms=50", `unknown DSN option "slow_ms"`},
		{"mem:strict?readonly=1&bogus=x", `unknown DSN option "bogus"`},
		// sync/checkpoint are file-driver options, not mem-driver ones.
		{"mem:strict?sync=1", `unknown DSN option "sync"`},
		{"mem:strict?checkpoint=100", `unknown DSN option "checkpoint"`},
		{"file:" + dir + "?trcae=yes", `unknown DSN option "trcae"`},
		{"file:" + dir + "?Trace=1", `unknown DSN option "Trace"`}, // keys are case-sensitive
		{"file:" + dir + "?telemetry=1", `unknown DSN option "telemetry"`},
		// readonly, sync and checkpoint are as strict as trace and columnar:
		// ?readonly=on must not open a writable connection, nor ?sync=ture
		// a non-durable archive.
		{"mem:strict?readonly=on", `option readonly="on" is not a boolean`},
		{"mem:strict?readonly=", `option readonly="" is not a boolean`},
		{"file:" + dir + "?readonly=2", `option readonly="2" is not a boolean`},
		{"file:" + dir + "?sync=ture", `option sync="ture" is not a boolean`},
		{"file:" + dir + "?checkpoint=-1", `option checkpoint="-1" is not a non-negative integer`},
		{"file:" + dir + "?checkpoint=1e3", `option checkpoint="1e3" is not a non-negative integer`},
		// All known spellings still work.
		{"mem:strict?trace=1&slowms=5&readonly=0", ""},
		{"file:" + dir + "?sync=1&checkpoint=100&trace=0&slowms=0&readonly=0", ""},
	}
	for _, tc := range cases {
		c, err := Open(tc.dsn)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("Open(%q) failed: %v", tc.dsn, err)
				continue
			}
			c.Close()
			continue
		}
		if err == nil {
			c.Close()
			t.Errorf("Open(%q) accepted an unknown option", tc.dsn)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("Open(%q) error %q does not mention %q", tc.dsn, err, tc.wantErr)
		}
		if !strings.Contains(err.Error(), "known options:") {
			t.Errorf("Open(%q) error %q does not list known options", tc.dsn, err)
		}
	}
}
