// The continuous-observability layer of the telemetry pipeline: on a fixed
// cadence the writer goroutine scrapes the metric registry into
// obs.DefaultHistory, mirrors the sample into PERFDMF_METRICS_HISTORY,
// reloads alert rules from PERFDMF_ALERT_RULES, evaluates them against the
// history ring, and persists episode transitions into PERFDMF_ALERTS. All
// of it rides the writer's quiet relaxed connection: history writes use
// the same non-blocking TryBegin discipline as span group commits (a
// stalled sample is shed from the table, never from the ring), and every
// write's cost feeds the sampling governor like any other telemetry.
package godbc

import (
	"fmt"
	"strings"
	"time"

	"perfdmf/internal/obs"
	"perfdmf/internal/reldb"
	"perfdmf/internal/sqlexec"
)

// Continuous-observability table names.
const (
	MetricsHistoryTable = "PERFDMF_METRICS_HISTORY"
	AlertRulesTable     = "PERFDMF_ALERT_RULES"
	AlertsTable         = sqlexec.AlertsBackingTable // "PERFDMF_ALERTS"
)

// alertRulesReload bounds how often the scrape loop re-reads the rules
// table, so sub-second scrape cadences do not turn rule loading into the
// dominant write-path query.
const alertRulesReload = time.Second

// observabilityDDL is idempotent; EnsureObservabilitySchema runs it.
var observabilityDDL = []string{
	`CREATE TABLE IF NOT EXISTS PERFDMF_METRICS_HISTORY (
		at TIMESTAMP,
		elapsed_us BIGINT,
		name VARCHAR NOT NULL,
		kind VARCHAR,
		value DOUBLE,
		delta_count BIGINT,
		delta_sum BIGINT,
		p50 BIGINT,
		p95 BIGINT,
		p99 BIGINT)`,

	`CREATE TABLE IF NOT EXISTS PERFDMF_ALERT_RULES (
		rule_id BIGINT PRIMARY KEY AUTO_INCREMENT,
		name VARCHAR NOT NULL,
		metric VARCHAR NOT NULL,
		kind VARCHAR NOT NULL,
		agg VARCHAR,
		op VARCHAR,
		threshold DOUBLE,
		zscore DOUBLE,
		window_ms BIGINT,
		for_ms BIGINT,
		severity VARCHAR,
		enabled BOOLEAN,
		created_at TIMESTAMP)`,

	`CREATE TABLE IF NOT EXISTS PERFDMF_ALERTS (
		alert_id BIGINT PRIMARY KEY AUTO_INCREMENT,
		rule_id BIGINT,
		rule_name VARCHAR,
		metric VARCHAR,
		severity VARCHAR,
		state VARCHAR NOT NULL,
		value DOUBLE,
		threshold DOUBLE,
		detail VARCHAR,
		pending_at TIMESTAMP,
		firing_at TIMESTAMP,
		resolved_at TIMESTAMP)`,
}

// History/alert writer metrics. They live in the obs_history / obs_alerts
// families next to the evaluation-side counters obs owns.
var (
	mHistPersistedPoints = obs.Default.Counter("obs_history_persisted_points_total")
	mHistPersistStalls   = obs.Default.Counter("obs_history_persist_stalls_total")
	mHistPrunedRows      = obs.Default.Counter("obs_history_pruned_rows_total")
	mAlertsPrunedRows    = obs.Default.Counter("obs_alerts_pruned_rows_total")
)

// EnsureObservabilitySchema creates the metric-history and alerting tables
// if they do not exist. The telemetry store runs it when history is
// enabled; the alerts CLI runs it before inserting rules.
func EnsureObservabilitySchema(c Conn) error {
	for _, ddl := range observabilityDDL {
		if _, err := c.Exec(ddl); err != nil {
			return fmt.Errorf("godbc: observability schema: %w", err)
		}
	}
	return nil
}

// connHasTable reports whether the connection's database has the table.
func connHasTable(c Conn, name string) bool {
	tables, err := c.MetaData().Tables()
	if err != nil {
		return false
	}
	for _, t := range tables {
		if strings.EqualFold(t, name) {
			return true
		}
	}
	return false
}

// AddAlertRule persists one alert rule (creating the schema on first use)
// and returns its rule id.
func AddAlertRule(c Conn, r obs.AlertRule) (int64, error) {
	if err := EnsureObservabilitySchema(c); err != nil {
		return 0, err
	}
	if r.Name == "" || r.Metric == "" {
		return 0, fmt.Errorf("godbc: alert rule needs a name and a metric")
	}
	if r.Kind == "" {
		r.Kind = obs.AlertKindThreshold
	}
	if r.Window <= 0 {
		r.Window = obs.DefaultAlertWindow
	}
	if r.Severity == "" {
		r.Severity = "warn"
	}
	res, err := c.Exec(`INSERT INTO PERFDMF_ALERT_RULES
		(name, metric, kind, agg, op, threshold, zscore, window_ms, for_ms, severity, enabled, created_at)
		VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)`,
		r.Name, r.Metric, r.Kind, r.Agg, r.Op, r.Threshold, r.ZScore,
		r.Window.Milliseconds(), r.For.Milliseconds(), r.Severity, true, time.Now())
	if err != nil {
		return 0, fmt.Errorf("godbc: add alert rule: %w", err)
	}
	return res.LastInsertID, nil
}

// LoadAlertRules reads the enabled alert rules, sorted by rule id. A
// database without the rules table has no rules.
func LoadAlertRules(c Conn) ([]obs.AlertRule, error) {
	if !connHasTable(c, AlertRulesTable) {
		return nil, nil
	}
	rows, err := c.Query(`SELECT rule_id, name, metric, kind, agg, op, threshold, zscore,
		window_ms, for_ms, severity FROM PERFDMF_ALERT_RULES WHERE enabled = TRUE ORDER BY rule_id`)
	if err != nil {
		return nil, fmt.Errorf("godbc: load alert rules: %w", err)
	}
	defer rows.Close()
	var out []obs.AlertRule
	for rows.Next() {
		var r obs.AlertRule
		var windowMS, forMS int64
		if err := rows.Scan(&r.ID, &r.Name, &r.Metric, &r.Kind, &r.Agg, &r.Op,
			&r.Threshold, &r.ZScore, &windowMS, &forMS, &r.Severity); err != nil {
			return nil, err
		}
		r.Window = time.Duration(windowMS) * time.Millisecond
		r.For = time.Duration(forMS) * time.Millisecond
		out = append(out, r)
	}
	return out, rows.Err()
}

// openObservability readies the continuous layer on the store's
// connection: schema, the history insert statement, the alert set with its
// rules, and the open episodes a previous process left behind (so this
// process can resolve them).
func (ts *TelemetryStore) openObservability() error {
	if err := EnsureObservabilitySchema(ts.conn); err != nil {
		return err
	}
	insHist, err := ts.conn.Prepare(`INSERT INTO PERFDMF_METRICS_HISTORY
		(at, elapsed_us, name, kind, value, delta_count, delta_sum, p50, p95, p99)
		VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)`)
	if err != nil {
		return fmt.Errorf("godbc: history prepare: %w", err)
	}
	ts.insHist = insHist
	ts.alerts = obs.NewAlertSet()
	ts.episodeByRule = make(map[int64]int64)
	rules, err := LoadAlertRules(ts.conn)
	if err != nil {
		return err
	}
	ts.alerts.SetRules(rules, time.Now())
	ts.lastRuleLoad = time.Now()
	return ts.restoreOpenEpisodes()
}

// restoreOpenEpisodes resumes pending/firing episodes from PERFDMF_ALERTS:
// their state machines pick up where the previous process stopped, and a
// later evaluation that finds the predicate no longer holding resolves the
// persisted row instead of leaving it firing forever.
func (ts *TelemetryStore) restoreOpenEpisodes() error {
	rows, err := ts.conn.Query(`SELECT alert_id, rule_id, state, value, pending_at, firing_at
		FROM PERFDMF_ALERTS WHERE state <> 'resolved'`)
	if err != nil {
		return fmt.Errorf("godbc: restore alert episodes: %w", err)
	}
	defer rows.Close()
	for rows.Next() {
		var alertID, ruleID int64
		var state string
		var value float64
		var pendingAt, firingAt time.Time
		if err := rows.Scan(&alertID, &ruleID, &state, &value, &pendingAt, &firingAt); err != nil {
			return err
		}
		since := pendingAt
		if state == obs.AlertStateFiring && !firingAt.IsZero() {
			since = firingAt
		}
		ts.alerts.Restore(ruleID, state, since, value, alertID)
		ts.episodeByRule[ruleID] = alertID
	}
	return rows.Err()
}

// historyEnabled reports whether the continuous layer is on for this store.
func (ts *TelemetryStore) historyEnabled() bool { return ts.insHist != nil }

// scrapeTick is one cadence step on the writer goroutine: reload rules (at
// most once per alertRulesReload), scrape the registry into the ring,
// mirror the sample into the history table, evaluate the rules, and
// persist any episode transitions.
func (ts *TelemetryStore) scrapeTick(now time.Time) {
	if !ts.historyEnabled() {
		return
	}
	if now.Sub(ts.lastRuleLoad) >= alertRulesReload {
		if rules, err := LoadAlertRules(ts.conn); err == nil {
			ts.pendingTrans = append(ts.pendingTrans, ts.alerts.SetRules(rules, now)...)
		} else {
			mTelWriterErrors.Inc()
		}
		ts.lastRuleLoad = now
	}
	sample := obs.DefaultHistory.Sample(obs.Default)
	ts.persistSample(sample)
	ts.pendingTrans = append(ts.pendingTrans, ts.alerts.Eval(obs.DefaultHistory, now)...)
	ts.persistTransitions()
	ts.lastScrapeNS.Store(now.UnixNano())
}

// persistSample mirrors one scrape into PERFDMF_METRICS_HISTORY through
// writeTx. A stalled write lock sheds the sample from the table (the
// in-memory ring still has it).
func (ts *TelemetryStore) persistSample(s obs.HistorySample) {
	if len(s.Points) == 0 {
		return
	}
	ran, err := ts.writeTx(false, func() error {
		for _, p := range s.Points {
			var deltaCount, deltaSum, p50, p95, p99 any
			if p.Kind == "histogram" {
				deltaCount, deltaSum = p.DeltaCount, p.DeltaSum
				p50, p95, p99 = p.P50, p.P95, p.P99
			}
			if _, err := ts.insHist.Exec(s.At, s.Elapsed.Microseconds(), p.Name, p.Kind,
				p.Value, deltaCount, deltaSum, p50, p95, p99); err != nil {
				return err
			}
		}
		return nil
	})
	switch {
	case !ran:
		mHistPersistStalls.Inc()
	case err == nil:
		mHistPersistedPoints.Add(int64(len(s.Points)))
	}
}

// persistTransitions applies the queued episode transitions in one
// transaction through writeTx. A stalled write lock leaves them queued for
// the next tick — transitions carry their own timestamps, so deferred
// persistence does not distort the episode timeline.
func (ts *TelemetryStore) persistTransitions() {
	if len(ts.pendingTrans) == 0 {
		return
	}
	ran, _ := ts.writeTx(false, func() error {
		for i := range ts.pendingTrans {
			if err := ts.applyTransitionTx(&ts.pendingTrans[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if ran {
		ts.pendingTrans = ts.pendingTrans[:0]
	}
}

// applyTransitionTx persists one transition inside the open transaction:
// a new pending episode inserts a row; firing and resolved update it in
// place, so one row tells the episode's whole pending→firing→resolved
// story through its three timestamps.
func (ts *TelemetryStore) applyTransitionTx(t *obs.AlertTransition) error {
	episode := t.EpisodeID
	if episode == 0 {
		episode = ts.episodeByRule[t.RuleID]
	}
	switch t.To {
	case obs.AlertStatePending:
		res, err := ts.conn.Exec(`INSERT INTO PERFDMF_ALERTS
			(rule_id, rule_name, metric, severity, state, value, threshold, detail, pending_at)
			VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)`,
			t.RuleID, t.RuleName, t.Metric, t.Severity, obs.AlertStatePending,
			t.Value, t.Threshold, t.Detail, t.At)
		if err != nil {
			return err
		}
		ts.episodeByRule[t.RuleID] = res.LastInsertID
		ts.alerts.SetEpisodeID(t.RuleID, res.LastInsertID)
	case obs.AlertStateFiring:
		if episode == 0 {
			// Resumed or shed episode with no durable row: open one now.
			res, err := ts.conn.Exec(`INSERT INTO PERFDMF_ALERTS
				(rule_id, rule_name, metric, severity, state, value, threshold, detail, pending_at, firing_at)
				VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)`,
				t.RuleID, t.RuleName, t.Metric, t.Severity, obs.AlertStateFiring,
				t.Value, t.Threshold, t.Detail, t.At, t.At)
			if err != nil {
				return err
			}
			ts.episodeByRule[t.RuleID] = res.LastInsertID
			ts.alerts.SetEpisodeID(t.RuleID, res.LastInsertID)
			return nil
		}
		if _, err := ts.conn.Exec(`UPDATE PERFDMF_ALERTS
			SET state = ?, value = ?, detail = ?, firing_at = ? WHERE alert_id = ?`,
			obs.AlertStateFiring, t.Value, t.Detail, t.At, episode); err != nil {
			return err
		}
	case obs.AlertStateResolved:
		delete(ts.episodeByRule, t.RuleID)
		if episode == 0 {
			return nil // the episode never reached the table; nothing to close
		}
		if _, err := ts.conn.Exec(`UPDATE PERFDMF_ALERTS
			SET state = ?, value = ?, detail = ?, resolved_at = ? WHERE alert_id = ?`,
			obs.AlertStateResolved, t.Value, t.Detail, t.At, episode); err != nil {
			return err
		}
	}
	return nil
}

// alertStateCols are OBS_ALERT_STATES's columns.
var alertStateCols = []string{"rule_id", "rule_name", "metric", "severity", "state",
	"since", "value", "episode_id"}

// alertStateRows is OBS_ALERT_STATES: every alert rule's live evaluation
// state in the most recent history-enabled pipeline, sorted by rule id, and
// no rows when none has run in this process. state is ok, pending or
// firing; since (when the state was entered) is NULL for ok, and
// episode_id (the PERFDMF_ALERTS row of the open episode) NULL without
// one. OBS_ALERTS is the persisted history of the same episodes.
func alertStateRows(*reldb.Tx) ([]reldb.Row, error) {
	ts := activeTelemetry.Load()
	if ts == nil || ts.alerts == nil {
		return nil, nil
	}
	snap := ts.alerts.Snapshot()
	rows := make([]reldb.Row, len(snap))
	for i, a := range snap {
		since, episode := reldb.Null, reldb.Null
		if !a.Since.IsZero() {
			since = reldb.Time(a.Since)
		}
		if a.EpisodeID != 0 {
			episode = reldb.Int(a.EpisodeID)
		}
		rows[i] = reldb.Row{reldb.Int(a.RuleID), reldb.Str(a.RuleName), reldb.Str(a.Metric),
			reldb.Str(a.Severity), reldb.Str(a.State), since, reldb.Float(a.Value), episode}
	}
	return rows, nil
}
