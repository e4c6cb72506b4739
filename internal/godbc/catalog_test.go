package godbc

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"perfdmf/internal/obs"
	"perfdmf/internal/reldb"
	"perfdmf/internal/sqlexec"
)

// collect drains a query into string-rendered rows for compact assertions.
func collect(t *testing.T, c Conn, src string, args ...any) (cols []string, out [][]string) {
	t.Helper()
	rows, err := c.Query(src, args...)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	defer rows.Close()
	cols = rows.Columns()
	for rows.Next() {
		rec := make([]string, len(cols))
		for i := range rec {
			rec[i] = fmt.Sprint(rows.Value(i))
		}
		out = append(out, rec)
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	return cols, out
}

// TestCatalogTablesSelectable: every OBS_* virtual table answers a plain
// SELECT * through the driver with its documented column set.
func TestCatalogTablesSelectable(t *testing.T) {
	c := openT(t, freshMem(t))
	if _, err := c.Exec("CREATE TABLE seed (id BIGINT PRIMARY KEY AUTO_INCREMENT, n BIGINT)"); err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{
		"OBS_METRICS":           {"name", "kind", "value", "count", "sum", "p50", "p95", "p99"},
		"OBS_ACTIVE_STATEMENTS": {"statement_id", "sql", "kind", "phase", "elapsed_us", "rows_scanned", "rows_returned", "workers", "killed"},
		"OBS_PLAN_CACHE":        {"conn_id", "entries", "capacity", "hits", "misses", "columnar_hits", "schema_version"},
		"OBS_TABLE_STATS":       {"table_name", "column_name", "row_count", "ndv", "null_frac", "min_value", "max_value", "live_rows", "stale", "analyzed_at"},
		"OBS_TELEMETRY": {"active", "sample_rate", "budget_pct", "write_overhead_pct",
			"governor_adjustments", "queue_depth", "queue_capacity",
			"offered", "sampled_out", "dropped", "stored", "store_errors",
			"group_commits", "pruned_spans", "pruned_slowlog",
			"retain_rows", "retain_age_sec", "last_flush_age_sec",
			"history_enabled", "last_scrape_age_ms", "alert_rules", "alerts_pending", "alerts_firing"},
		"OBS_ALERT_STATES": {"rule_id", "rule_name", "metric", "severity", "state",
			"since", "value", "episode_id"},
		"OBS_METRICS_HISTORY": {"at", "elapsed_us", "name", "kind", "value",
			"delta_count", "delta_sum", "p50", "p95", "p99"},
		"OBS_ALERTS": {"alert_id", "rule_id", "rule_name", "metric", "severity",
			"state", "value", "threshold", "detail", "pending_at", "firing_at", "resolved_at"},
	}
	for _, table := range []string{"OBS_METRICS", "OBS_ACTIVE_STATEMENTS", "OBS_PLAN_CACHE",
		"OBS_TABLE_STATS", "OBS_TELEMETRY", "OBS_ALERT_STATES", "OBS_METRICS_HISTORY", "OBS_ALERTS"} {
		cols, _ := collect(t, c, "SELECT * FROM "+table)
		if strings.Join(cols, ",") != strings.Join(want[table], ",") {
			t.Errorf("%s columns = %v, want %v", table, cols, want[table])
		}
	}
}

// TestCatalogMetricsRows: OBS_METRICS carries the engine counters, and the
// catalog's own query counter is visible through it.
func TestCatalogMetricsRows(t *testing.T) {
	c := openT(t, freshMem(t))
	_, rows := collect(t, c,
		"SELECT name, kind, value FROM OBS_METRICS WHERE name = 'obs_catalog_queries_total'")
	if len(rows) != 1 {
		t.Fatalf("obs_catalog_queries_total rows = %v", rows)
	}
	if rows[0][1] != "counter" {
		t.Fatalf("kind = %q, want counter", rows[0][1])
	}
	// The SELECT above counted itself before snapshotting the registry.
	var v float64
	fmt.Sscan(rows[0][2], &v) //nolint:errcheck // checked below
	if v < 1 {
		t.Fatalf("obs_catalog_queries_total = %v, want >= 1", rows[0][2])
	}
}

// TestCatalogActiveStatements: a running query observes itself in
// OBS_ACTIVE_STATEMENTS.
func TestCatalogActiveStatements(t *testing.T) {
	c := openT(t, freshMem(t))
	src := "SELECT statement_id, sql, kind FROM OBS_ACTIVE_STATEMENTS"
	_, rows := collect(t, c, src)
	var self bool
	for _, r := range rows {
		if strings.Contains(r[1], "OBS_ACTIVE_STATEMENTS") && r[2] == "query" {
			self = true
		}
	}
	if !self {
		t.Fatalf("querying statement not visible in OBS_ACTIVE_STATEMENTS: %v", rows)
	}
}

// TestCatalogPlanCache: per-connection cache counters surface through
// OBS_PLAN_CACHE, and repeats count as hits.
func TestCatalogPlanCache(t *testing.T) {
	c := openT(t, freshMem(t))
	if _, err := c.Exec("CREATE TABLE pc (n BIGINT)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		rows, err := c.Query("SELECT n FROM pc")
		if err != nil {
			t.Fatal(err)
		}
		rows.Close()
	}
	id := c.(*conn).id
	_, out := collect(t, c,
		"SELECT conn_id, entries, capacity, hits, misses FROM OBS_PLAN_CACHE WHERE conn_id = ?", id)
	if len(out) != 1 {
		t.Fatalf("OBS_PLAN_CACHE rows for conn %d = %v", id, out)
	}
	var entries, capacity, hits, misses int64
	fmt.Sscan(out[0][1], &entries)  //nolint:errcheck // asserted below
	fmt.Sscan(out[0][2], &capacity) //nolint:errcheck // asserted below
	fmt.Sscan(out[0][3], &hits)     //nolint:errcheck // asserted below
	fmt.Sscan(out[0][4], &misses)   //nolint:errcheck // asserted below
	if entries < 2 || capacity != stmtCacheMax || hits < 2 || misses < 2 {
		t.Fatalf("plan cache snapshot = entries %d capacity %d hits %d misses %d", entries, capacity, hits, misses)
	}
}

// TestCatalogMetricsHistoryRows: one scrape of the default registry lands
// in the ring and is readable through OBS_METRICS_HISTORY with its delta.
func TestCatalogMetricsHistoryRows(t *testing.T) {
	c := openT(t, freshMem(t))
	obs.Default.Counter("catalog_hist_probe_total").Inc()
	obs.DefaultHistory.Sample(obs.Default)
	_, rows := collect(t, c,
		"SELECT name, kind, value FROM OBS_METRICS_HISTORY WHERE name = 'catalog_hist_probe_total'")
	if len(rows) != 1 {
		t.Fatalf("catalog_hist_probe_total history rows = %v, want 1", rows)
	}
	if rows[0][1] != "counter" || rows[0][2] != "1" {
		t.Fatalf("history row = %v, want counter delta 1", rows[0])
	}
}

// TestCatalogAlertsRows: OBS_ALERTS projects the persisted episode table —
// empty (not an error) without the backing table, episode rows in id order
// with it.
func TestCatalogAlertsRows(t *testing.T) {
	c := openT(t, freshMem(t))
	if _, rows := collect(t, c, "SELECT * FROM OBS_ALERTS"); len(rows) != 0 {
		t.Fatalf("OBS_ALERTS without backing table = %v, want empty", rows)
	}
	if err := EnsureObservabilitySchema(c); err != nil {
		t.Fatal(err)
	}
	for i, state := range []string{"resolved", "firing"} {
		if _, err := c.Exec(`INSERT INTO PERFDMF_ALERTS
			(rule_id, rule_name, metric, severity, state, value, threshold, detail, pending_at)
			VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)`,
			int64(i+1), fmt.Sprintf("rule%d", i+1), "m_total", "warn", state,
			float64(i)+0.5, 1.0, "d", time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	_, rows := collect(t, c, "SELECT rule_name, state, severity FROM OBS_ALERTS")
	if len(rows) != 2 {
		t.Fatalf("OBS_ALERTS rows = %v, want 2", rows)
	}
	if rows[0][0] != "rule1" || rows[0][1] != "resolved" || rows[1][1] != "firing" {
		t.Fatalf("OBS_ALERTS projection = %v, want episodes in id order", rows)
	}
}

// TestAnalyzeFixture is the acceptance fixture: ANALYZE over a table with
// known duplicates and NULLs must produce exact row counts, NDVs, null
// fractions and min/max per column in OBS_TABLE_STATS.
func TestAnalyzeFixture(t *testing.T) {
	c := openT(t, freshMem(t))
	if _, err := c.Exec("CREATE TABLE fix (id BIGINT PRIMARY KEY AUTO_INCREMENT, name VARCHAR, v BIGINT)"); err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct {
		name any
		v    int64
	}{
		{"a", 10}, {"b", 20}, {"b", 20}, {"c", 30}, {nil, 40},
	} {
		if _, err := c.Exec("INSERT INTO fix (name, v) VALUES (?, ?)", r.name, r.v); err != nil {
			t.Fatal(err)
		}
	}
	res, err := c.Exec("ANALYZE fix")
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 3 { // one stats row per column
		t.Fatalf("ANALYZE fix affected %d rows, want 3", res.RowsAffected)
	}

	_, rows := collect(t, c, `SELECT column_name, row_count, ndv, null_frac, min_value, max_value, stale
		FROM OBS_TABLE_STATS WHERE table_name = 'fix' ORDER BY column_name`)
	want := [][]string{
		{"id", "5", "5", "0", "1", "5", "false"},
		{"name", "5", "3", "0.2", "a", "c", "false"},
		{"v", "5", "4", "0", "10", "40", "false"},
	}
	if len(rows) != len(want) {
		t.Fatalf("stats rows = %v", rows)
	}
	for i := range want {
		if strings.Join(rows[i], "|") != strings.Join(want[i], "|") {
			t.Errorf("stats[%d] = %v, want %v", i, rows[i], want[i])
		}
	}
}

// TestAnalyzeStaleness: stats go stale when the table drifts and fresh
// after re-ANALYZE; bare ANALYZE covers every user table.
func TestAnalyzeStaleness(t *testing.T) {
	c := openT(t, freshMem(t))
	if _, err := c.Exec("CREATE TABLE drift (n BIGINT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("INSERT INTO drift (n) VALUES (?)", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("ANALYZE"); err != nil {
		t.Fatal(err)
	}
	stale := func() string {
		_, rows := collect(t, c,
			"SELECT stale, row_count, live_rows FROM OBS_TABLE_STATS WHERE table_name = 'drift'")
		if len(rows) != 1 {
			t.Fatalf("drift stats = %v", rows)
		}
		return strings.Join(rows[0], "|")
	}
	if got := stale(); got != "false|1|1" {
		t.Fatalf("fresh stats = %s", got)
	}
	if _, err := c.Exec("INSERT INTO drift (n) VALUES (?)", 2); err != nil {
		t.Fatal(err)
	}
	if got := stale(); got != "true|1|2" {
		t.Fatalf("post-insert stats = %s", got)
	}
	if _, err := c.Exec("ANALYZE drift"); err != nil {
		t.Fatal(err)
	}
	if got := stale(); got != "false|2|2" {
		t.Fatalf("re-analyzed stats = %s", got)
	}
}

// TestAnalyzeErrors: unknown tables and the stats table itself are
// rejected.
func TestAnalyzeErrors(t *testing.T) {
	c := openT(t, freshMem(t))
	if _, err := c.Exec("ANALYZE nosuch"); err == nil {
		t.Error("ANALYZE of a missing table succeeded")
	}
	if _, err := c.Exec("ANALYZE PERFDMF_TABLE_STATS"); err == nil {
		t.Error("ANALYZE of the stats table succeeded")
	}
}

// TestKillSQLErrors: KILL of an unknown or non-integer statement id fails
// cleanly.
func TestKillSQLErrors(t *testing.T) {
	c := openT(t, freshMem(t))
	if _, err := c.Exec("KILL ?", int64(1)<<60); err == nil {
		t.Error("KILL of unknown id succeeded")
	}
	if _, err := c.Exec("KILL ?", "abc"); err == nil {
		t.Error("KILL of string id succeeded")
	}
	// Built non-constant so the sqlcheck analyzer skips the intentionally
	// invalid statement.
	ident := "abc"
	if _, err := c.Exec("KILL " + ident); err == nil {
		t.Error("KILL abc parsed")
	}
}

// TestKillLongRunningStatement is the end-to-end acceptance test: a second
// connection kills a long scan via SQL KILL, and the victim unwinds with
// ErrStatementKilled without returning rows. Runs under -race.
func TestKillLongRunningStatement(t *testing.T) {
	dsn := freshMem(t)
	victim := openT(t, dsn)
	killer := openT(t, dsn)
	if _, err := victim.Exec("CREATE TABLE big (id BIGINT PRIMARY KEY AUTO_INCREMENT, n BIGINT)"); err != nil {
		t.Fatal(err)
	}
	// Seed through the engine directly; 300k single-row INSERTs through the
	// driver would dominate the test's runtime.
	db := victim.(*conn).db
	if err := db.Write(func(tx *reldb.Tx) error {
		for i := 0; i < 300_000; i++ {
			if _, err := tx.Insert("big", reldb.Row{reldb.Null, reldb.Int(int64(i))}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	const victimSQL = "SELECT id FROM big WHERE n * 7 - 3 > 0"
	for attempt := 0; attempt < 20; attempt++ {
		type outcome struct {
			rows Rows
			err  error
		}
		done := make(chan outcome, 1)
		go func() {
			rows, err := victim.Query(victimSQL)
			done <- outcome{rows, err}
		}()

		// Find the victim in the live registry once it is scanning.
		var id int64
	poll:
		for {
			select {
			case o := <-done:
				if o.err != nil {
					t.Fatalf("unkilled query failed: %v", o.err)
				}
				o.rows.Close()
				id = 0
				break poll
			default:
			}
			for _, si := range sqlexec.Statements.Snapshot() {
				if si.SQL == victimSQL && si.RowsScanned > 0 {
					id = si.ID
					break poll
				}
			}
			runtime.Gosched()
		}
		if id == 0 {
			continue // finished before we saw it scanning; retry
		}
		if _, err := killer.Exec("KILL ?", id); err != nil {
			// Lost the race between snapshot and kill.
			o := <-done
			if o.err == nil {
				o.rows.Close()
			}
			continue
		}
		o := <-done
		if o.err == nil {
			// KILL raced with completion: the statement finished before the
			// cancellation could be observed. Retry for a mid-scan kill.
			o.rows.Close()
			continue
		}
		if !errors.Is(o.err, sqlexec.ErrStatementKilled) {
			t.Fatalf("killed query returned %v, want ErrStatementKilled", o.err)
		}
		if o.rows != nil {
			t.Fatal("killed query returned a partial result set")
		}
		return
	}
	t.Fatal("query finished before KILL could land in 20 attempts")
}
