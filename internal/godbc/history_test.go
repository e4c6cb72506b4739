package godbc

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"perfdmf/internal/obs"
)

// TestAlertRuleRoundTrip: AddAlertRule creates the schema on first use,
// fills defaults, and LoadAlertRules returns the decoded rule.
func TestAlertRuleRoundTrip(t *testing.T) {
	c := openT(t, freshMem(t))
	id, err := AddAlertRule(c, obs.AlertRule{Name: "r1", Metric: "godbc_exec_total", Threshold: 5})
	if err != nil {
		t.Fatal(err)
	}
	if id == 0 {
		t.Fatal("AddAlertRule returned id 0")
	}
	id2, err := AddAlertRule(c, obs.AlertRule{
		Name: "r2", Metric: "wal_pending", Kind: obs.AlertKindAnomaly,
		Agg: "last", ZScore: 4, Window: 30 * time.Second, For: 10 * time.Second,
		Severity: "critical",
	})
	if err != nil {
		t.Fatal(err)
	}
	rules, err := LoadAlertRules(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 || rules[0].ID != id || rules[1].ID != id2 {
		t.Fatalf("LoadAlertRules = %+v, want the two rules in id order", rules)
	}
	// Defaults filled on insert.
	if r := rules[0]; r.Kind != obs.AlertKindThreshold || r.Window != obs.DefaultAlertWindow || r.Severity != "warn" {
		t.Fatalf("defaults not applied: %+v", r)
	}
	if r := rules[1]; r.Window != 30*time.Second || r.For != 10*time.Second || r.ZScore != 4 {
		t.Fatalf("explicit fields lost: %+v", r)
	}

	// A rule without identity is rejected before touching the table.
	if _, err := AddAlertRule(c, obs.AlertRule{Metric: "x"}); err == nil {
		t.Fatal("nameless rule accepted")
	}

	// A database without the table simply has no rules.
	c2 := openT(t, freshMem(t))
	if rules, err := LoadAlertRules(c2); err != nil || rules != nil {
		t.Fatalf("fresh db rules = %v, %v; want nil, nil", rules, err)
	}
}

// pollSQL keeps evaluating query until pred accepts the first row's first
// value, or the deadline lapses.
func pollSQL(t *testing.T, c Conn, deadline time.Duration, query string, pred func(v any) bool, busy func()) bool {
	t.Helper()
	end := time.Now().Add(deadline)
	for time.Now().Before(end) {
		if busy != nil {
			busy()
		}
		rows, err := c.Query(query)
		if err != nil {
			t.Fatal(err)
		}
		var v any
		if rows.Next() {
			v = rows.Value(0)
		}
		rows.Close()
		if pred(v) {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return false
}

// TestContinuousObservabilityEndToEnd drives the whole continuous layer
// against a real store: the scrape loop persists metric history, a
// threshold rule walks pending→firing under load and resolves when the
// load stops, and the episode's single PERFDMF_ALERTS row carries all three
// timestamps.
func TestContinuousObservabilityEndToEnd(t *testing.T) {
	dsn := freshMem(t)
	c := openT(t, dsn)
	mustExec(t, c, "CREATE TABLE workload (id BIGINT PRIMARY KEY AUTO_INCREMENT, v BIGINT)")

	// rate(godbc_exec_total) > 1/s, held 30ms before firing, over a window
	// short enough that going idle resolves within a few hundred ms.
	if _, err := AddAlertRule(c, obs.AlertRule{
		Name: "exec-rate", Metric: "godbc_exec_total", Op: "gt", Threshold: 1,
		Window: 150 * time.Millisecond, For: 30 * time.Millisecond, Severity: "critical",
	}); err != nil {
		t.Fatal(err)
	}

	st, err := OpenTelemetryStore(dsn, TelemetryOptions{HistoryEvery: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if !st.historyEnabled() {
		t.Fatal("history not enabled despite HistoryEvery")
	}

	// Keep the exec counter moving until the rule fires.
	n := int64(0)
	busy := func() {
		for i := 0; i < 5; i++ {
			n++
			mustExec(t, c, "INSERT INTO workload (v) VALUES (?)", n)
		}
	}
	if !pollSQL(t, c, 10*time.Second,
		"SELECT COUNT(*) FROM PERFDMF_ALERTS WHERE rule_name = 'exec-rate' AND state = 'firing'",
		func(v any) bool { cnt, _ := v.(int64); return cnt >= 1 }, busy) {
		t.Fatal("alert never reached firing under sustained load")
	}

	// Load stops; the window drains to rate 0 and the episode resolves.
	if !pollSQL(t, c, 10*time.Second,
		"SELECT COUNT(*) FROM PERFDMF_ALERTS WHERE rule_name = 'exec-rate' AND state = 'resolved'",
		func(v any) bool { cnt, _ := v.(int64); return cnt >= 1 }, nil) {
		t.Fatal("alert never resolved after load stopped")
	}

	// One row tells the whole story: all three timestamps on one episode.
	rows, err := c.Query(`SELECT pending_at, firing_at, resolved_at FROM PERFDMF_ALERTS
		WHERE rule_name = 'exec-rate' AND state = 'resolved'`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatal("resolved episode row missing")
	}
	var pendingAt, firingAt, resolvedAt time.Time
	if err := rows.Scan(&pendingAt, &firingAt, &resolvedAt); err != nil {
		t.Fatal(err)
	}
	if pendingAt.IsZero() || firingAt.IsZero() || resolvedAt.IsZero() {
		t.Fatalf("episode timestamps incomplete: pending=%v firing=%v resolved=%v",
			pendingAt, firingAt, resolvedAt)
	}
	if firingAt.Before(pendingAt) || resolvedAt.Before(firingAt) {
		t.Fatalf("episode timestamps out of order: pending=%v firing=%v resolved=%v",
			pendingAt, firingAt, resolvedAt)
	}

	// The scrape loop also persisted delta-encoded metric history, and the
	// store's own history INSERTs ran quiet — godbc_exec_total's persisted
	// deltas must stay far below the row count of the history table itself
	// (self-observation would make them track each other).
	rows2, err := c.Query("SELECT COUNT(*) FROM PERFDMF_METRICS_HISTORY WHERE name = 'godbc_exec_total'")
	if err != nil {
		t.Fatal(err)
	}
	defer rows2.Close()
	if !rows2.Next() {
		t.Fatal("no count row")
	}
	var histRows int64
	if err := rows2.Scan(&histRows); err != nil {
		t.Fatal(err)
	}
	if histRows == 0 {
		t.Fatal("no godbc_exec_total history persisted")
	}

	// Store-level state: the scrape time is set, the snapshot knows the rule.
	if st.lastScrapeNS.Load() == 0 {
		t.Fatal("last scrape time still zero after scraping")
	}
	snap := st.alerts.Snapshot()
	if len(snap) != 1 || snap[0].RuleName != "exec-rate" {
		t.Fatalf("alert snapshot = %+v, want the one rule", snap)
	}
}

// TestAlertEpisodeRestore: an open episode a previous process left in
// PERFDMF_ALERTS is adopted by a new store and resolved against the same
// row once the predicate no longer holds.
func TestAlertEpisodeRestore(t *testing.T) {
	dsn := freshMem(t)
	c := openT(t, dsn)
	if err := EnsureObservabilitySchema(c); err != nil {
		t.Fatal(err)
	}
	ruleID, err := AddAlertRule(c, obs.AlertRule{
		Name: "orphan", Metric: "godbc_exec_total", Op: "gt", Threshold: 1e12,
		Window: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The "crashed process" left a firing episode behind.
	res, err := c.Exec(`INSERT INTO PERFDMF_ALERTS
		(rule_id, rule_name, metric, severity, state, value, threshold, detail, pending_at, firing_at)
		VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)`,
		ruleID, "orphan", "godbc_exec_total", "warn", obs.AlertStateFiring,
		9.9, 1e12, "inherited", time.Now().Add(-time.Minute), time.Now().Add(-time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	episodeID := res.LastInsertID

	st, err := OpenTelemetryStore(dsn, TelemetryOptions{HistoryEvery: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// An idle process cannot breach a 1e12 threshold: the inherited episode
	// must resolve in place.
	if !pollSQL(t, c, 10*time.Second,
		fmt.Sprintf("SELECT state FROM PERFDMF_ALERTS WHERE alert_id = %d", episodeID),
		func(v any) bool { s, _ := v.(string); return s == obs.AlertStateResolved }, nil) {
		t.Fatal("inherited episode never resolved")
	}
	// No second row was opened for the same episode.
	rows, err := c.Query("SELECT COUNT(*) FROM PERFDMF_ALERTS")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	rows.Next()
	var cnt int64
	if err := rows.Scan(&cnt); err != nil {
		t.Fatal(err)
	}
	if cnt != 1 {
		t.Fatalf("PERFDMF_ALERTS has %d rows, want the 1 inherited episode", cnt)
	}
}

// TestCatalogAlertStates: OBS_ALERT_STATES is empty before a
// history-enabled pipeline runs, then lists every rule's live state: a
// quiet rule stays ok with NULL since and episode, a breached one fires
// with both set.
func TestCatalogAlertStates(t *testing.T) {
	dsn := freshMem(t)
	c := openT(t, dsn)
	prev := activeTelemetry.Swap(nil) // as if no pipeline had ever run
	_, out := collect(t, c, "SELECT * FROM OBS_ALERT_STATES")
	activeTelemetry.Store(prev)
	if len(out) != 0 {
		t.Fatalf("OBS_ALERT_STATES without a pipeline = %v, want no rows", out)
	}

	for _, r := range []obs.AlertRule{
		{Name: "never", Metric: "godbc_exec_total", Op: "gt", Threshold: 1e15},
		{Name: "always", Metric: "godbc_exec_total", Op: "gt", Threshold: -1, Severity: "critical"},
	} {
		if _, err := AddAlertRule(c, r); err != nil {
			t.Fatal(err)
		}
	}
	stop, err := StartTelemetry(dsn, TelemetryOptions{HistoryEvery: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer stop() //nolint:errcheck // best-effort cleanup
	if !pollSQL(t, c, 10*time.Second, `SELECT COUNT(*) FROM OBS_ALERT_STATES
		WHERE rule_name = 'always' AND state = 'firing' AND since IS NOT NULL AND episode_id IS NOT NULL`,
		func(v any) bool { n, _ := v.(int64); return n == 1 }, nil) {
		t.Fatal("the always-breached rule never fired in OBS_ALERT_STATES")
	}
	_, out = collect(t, c, `SELECT rule_name, severity, state, since, episode_id FROM OBS_ALERT_STATES
		WHERE rule_name = 'never'`)
	if len(out) != 1 || strings.Join(out[0], ",") != "never,warn,ok,<nil>,<nil>" {
		t.Fatalf("quiet rule = %v", out)
	}
	_, out = collect(t, c, "SELECT alert_rules, alerts_firing FROM OBS_TELEMETRY")
	if strings.Join(out[0], ",") != "2,1" {
		t.Fatalf("OBS_TELEMETRY alert counts = %v, want 2 rules, 1 firing", out)
	}
}
