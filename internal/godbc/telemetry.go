// Self-hosted telemetry: PerfDMF stores its own spans and slow queries in
// the same relational engine it manages application profiles with. The
// paper's thesis — performance data belongs in a queryable relational
// store — applied to the framework itself:
//
//	SELECT op, COUNT(*), SUM(dur_us) FROM PERFDMF_SPANS GROUP BY op
//
// The obs.TelemetrySink owns the one buffer, backpressure and head
// sampling; TelemetryStore owns the schema and a writer goroutine that
// pulls from that buffer, commits what it pulled in relaxed-durability
// group transactions, prunes the telemetry tables by age and row cap, and
// feeds every write's cost back into the sampling governor so persistence
// stays inside the overhead budget. The store's connection is quiet (it
// never produces spans), so persisting telemetry cannot generate more
// telemetry.
package godbc

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"perfdmf/internal/obs"
	"perfdmf/internal/reldb"
)

// Telemetry table names, discoverable like any other table via MetaData().
const (
	SpansTable   = "PERFDMF_SPANS"
	SlowLogTable = "PERFDMF_SLOWLOG"
)

// telemetryDDL is idempotent; the store runs it at open. It deliberately
// still creates the original (pre-span-tree) schema: the tree columns are
// added afterwards by telemetryMigrations through ALTER TABLE, so fresh
// and pre-existing databases take the same dynamic-schema upgrade path.
var telemetryDDL = []string{
	`CREATE TABLE IF NOT EXISTS PERFDMF_SPANS (
		span_id BIGINT PRIMARY KEY,
		start_time TIMESTAMP,
		kind VARCHAR NOT NULL,
		op VARCHAR,
		statement VARCHAR,
		params BIGINT,
		parse_us BIGINT,
		plan_us BIGINT,
		execute_us BIGINT,
		materialize_us BIGINT,
		dur_us BIGINT,
		rows_scanned BIGINT,
		rows_returned BIGINT,
		index_used BOOLEAN,
		plan_summary VARCHAR,
		err VARCHAR)`,

	`CREATE TABLE IF NOT EXISTS PERFDMF_SLOWLOG (
		span_id BIGINT PRIMARY KEY,
		start_time TIMESTAMP,
		kind VARCHAR NOT NULL,
		op VARCHAR,
		statement VARCHAR,
		dur_us BIGINT,
		rows_scanned BIGINT,
		rows_returned BIGINT,
		err VARCHAR)`,
}

// telemetryMigrations lists columns added after the original schema
// shipped. Each is applied with ALTER TABLE ADD COLUMN only when
// MetaData() shows the column missing, so rows written by older versions
// survive and read back as NULL (a NULL parent_span_id is a root span).
var telemetryMigrations = []struct{ table, column, typ string }{
	{SpansTable, "parent_span_id", "BIGINT"},
	{SpansTable, "root_op", "VARCHAR"},
	{SlowLogTable, "root_op", "VARCHAR"},
}

// migrateTelemetrySchema brings an existing telemetry schema up to date,
// discovering the current shape through the connection's MetaData.
func migrateTelemetrySchema(c Conn) error {
	md := c.MetaData()
	for _, m := range telemetryMigrations {
		cols, err := md.Columns(m.table)
		if err != nil {
			return fmt.Errorf("godbc: telemetry migration: columns of %s: %w", m.table, err)
		}
		present := false
		for _, col := range cols {
			if strings.EqualFold(col.Name, m.column) {
				present = true
				break
			}
		}
		if present {
			continue
		}
		ddl := "ALTER TABLE " + m.table + " ADD COLUMN " + m.column + " " + m.typ
		if _, err := c.Exec(ddl); err != nil {
			return fmt.Errorf("godbc: telemetry migration: %s: %w", ddl, err)
		}
	}
	return nil
}

// seedSpanIDs pushes the process-wide span-id counter past the highest
// persisted span id. Ids are monotonic per process; without this, a new
// process writing into an archive another run already populated would
// collide with the span_id primary key and lose whole batches.
func seedSpanIDs(c Conn) error {
	rows, err := c.Query("SELECT MAX(span_id) FROM PERFDMF_SPANS")
	if err != nil {
		return fmt.Errorf("godbc: telemetry span-id seed: %w", err)
	}
	defer rows.Close()
	if rows.Next() {
		if max, ok := rows.Value(0).(int64); ok {
			obs.EnsureSpanIDsAbove(max)
		}
	}
	return rows.Err()
}

const telemetryStatementMax = 512 // stored statement text cap, bytes

// Telemetry pipeline defaults, exported so operators reading the docs and
// code see the same numbers.
const (
	// DefaultTelemetryBudgetPct is the end-to-end overhead budget the
	// sampling governor enforces when neither TelemetryOptions.BudgetPct
	// nor the DSN's ?telemetrybudget option sets one.
	DefaultTelemetryBudgetPct = 5.0
	// DefaultTelemetryRetainRows caps PERFDMF_SPANS / PERFDMF_SLOWLOG at
	// this many rows unless the caller picks a cap (or disables it with a
	// negative RetainRows). A long-running daemon must not let its own
	// telemetry grow the archive without bound.
	DefaultTelemetryRetainRows = 100_000
)

// The writer's fixed cadence: a group commits once telemetryGroupSize
// entries are pending or the oldest has waited telemetryMaxBatchAge, at
// most two groups are ever pending, and retention sweeps run every
// telemetryPruneEvery (and once more at Close).
const (
	telemetryGroupSize   = 512
	telemetryMaxBatchAge = 100 * time.Millisecond
	telemetryPruneEvery  = 5 * time.Second
)

// TelemetryOptions tunes the whole self-hosted telemetry pipeline. The
// zero value picks sensible defaults everywhere.
type TelemetryOptions struct {
	// FlushEvery is how often the writer pulls spans from the sink's
	// buffer (default 25ms).
	FlushEvery time.Duration
	// BudgetPct is the end-to-end overhead budget (percent) the sampling
	// governor targets. 0 defers to the DSN's ?telemetrybudget option and
	// then DefaultTelemetryBudgetPct; negative disables the governor (every
	// span is kept).
	BudgetPct float64
	// RetainAge prunes spans and slow-log rows whose start_time is older
	// (0 disables age pruning).
	RetainAge time.Duration
	// RetainRows caps the row count of each telemetry table, pruning the
	// oldest span ids beyond it. 0 picks DefaultTelemetryRetainRows;
	// negative disables the cap.
	RetainRows int
	// HistoryEvery turns on the continuous-observability layer: every
	// HistoryEvery the writer goroutine scrapes the metric registry into
	// obs.DefaultHistory, mirrors the sample into PERFDMF_METRICS_HISTORY,
	// and evaluates the PERFDMF_ALERT_RULES against the history ring. 0
	// (the default) leaves it off.
	HistoryEvery time.Duration
}

func (o TelemetryOptions) withDefaults() TelemetryOptions {
	if o.FlushEvery <= 0 {
		o.FlushEvery = 25 * time.Millisecond
	}
	if o.RetainRows == 0 {
		o.RetainRows = DefaultTelemetryRetainRows
	}
	return o
}

// Writer-side metrics, resolved once. They share the obs_telemetry family
// with the sink's counters so the whole pipeline groups on one dashboard.
var (
	mTelGroupCommits  = obs.Default.Counter("obs_telemetry_group_commits_total")
	mTelGroupCommitNS = obs.Default.Histogram("obs_telemetry_group_commit_ns")
	mTelGroupRows     = obs.Default.Histogram("obs_telemetry_group_commit_rows")
	mTelWriterErrors  = obs.Default.Counter("obs_telemetry_writer_errors_total")
	mTelWriterStalls  = obs.Default.Counter("obs_telemetry_writer_stalls_total")
	mTelPrunedSpans   = obs.Default.Counter("obs_telemetry_pruned_spans_total")
	mTelPrunedSlow    = obs.Default.Counter("obs_telemetry_pruned_slowlog_total")
	mTelPruneRuns     = obs.Default.Counter("obs_telemetry_prune_runs_total")
)

// TelemetryStore persists spans through an ordinary godbc connection. It
// owns an obs.TelemetrySink (not started: nothing flushes it on a timer)
// and one writer goroutine that owns the connection, pulls the sink's
// buffer into its pending list, commits it in groups with relaxed
// durability, and prunes the telemetry tables on a timer. Every span the
// sink accepted is committed by the time Close returns, unless the commit
// itself failed — which is counted and reported, never silent.
type TelemetryStore struct {
	conn    *conn
	insSpan Stmt
	insSlow Stmt
	gov     *obs.Governor
	sink    *obs.TelemetrySink
	opts    TelemetryOptions

	// pending holds entries pulled from the sink but not yet committed;
	// only the writer goroutine touches it. queued mirrors its length for
	// the catalog.
	pending []obs.SinkEntry
	queued  atomic.Int64

	flushReq chan chan error
	stopCh   chan struct{}
	done     chan struct{}
	active   atomic.Bool // installed by StartTelemetry and not yet stopped

	// Continuous-observability state (history.go). insHist is nil when
	// HistoryEvery is 0; the map/slice/time fields are owned by the writer
	// goroutine (seeded before it starts).
	insHist       Stmt
	alerts        *obs.AlertSet
	episodeByRule map[int64]int64
	lastRuleLoad  time.Time
	pendingTrans  []obs.AlertTransition
	lastScrapeNS  atomic.Int64

	stopOnce sync.Once
	closeErr error
}

// OpenTelemetryStore opens a dedicated quiet connection to dsn, ensures the
// PERFDMF_SPANS and PERFDMF_SLOWLOG tables exist, and starts the writer
// goroutine. The DSN should name the same database the application uses
// (mem: names and file: directories share one engine across connections),
// so the telemetry lands next to the profile data and is queryable with the
// same SQL. The sampling governor is created here from the resolved budget
// (options, then ?telemetrybudget, then the default), and so is the sink the
// writer pulls from; StartTelemetry installs it.
func OpenTelemetryStore(dsn string, o TelemetryOptions) (*TelemetryStore, error) {
	o = o.withDefaults()
	dc, err := Open(dsn)
	if err != nil {
		return nil, fmt.Errorf("godbc: telemetry store: %w", err)
	}
	c, ok := dc.(*conn)
	if !ok {
		dc.Close()
		return nil, fmt.Errorf("godbc: telemetry store: %s is not a built-in perfdmf connection", dsn)
	}
	c.quiet = true
	// Span batches ride relaxed commits: group durability is batched so
	// telemetry fsyncs never contend with the workload's own.
	c.relaxed = true
	for _, ddl := range telemetryDDL {
		if _, err := c.Exec(ddl); err != nil {
			c.Close()
			return nil, fmt.Errorf("godbc: telemetry schema: %w", err)
		}
	}
	if err := migrateTelemetrySchema(c); err != nil {
		c.Close()
		return nil, err
	}
	if err := seedSpanIDs(c); err != nil {
		c.Close()
		return nil, err
	}
	insSpan, err := c.Prepare(`INSERT INTO PERFDMF_SPANS (span_id, parent_span_id, root_op,
		start_time, kind, op, statement, params, parse_us, plan_us, execute_us, materialize_us,
		dur_us, rows_scanned, rows_returned, index_used, plan_summary, err)
		VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)`)
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("godbc: telemetry prepare: %w", err)
	}
	insSlow, err := c.Prepare(`INSERT INTO PERFDMF_SLOWLOG (span_id, root_op, start_time, kind, op,
		statement, dur_us, rows_scanned, rows_returned, err)
		VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)`)
	if err != nil {
		insSpan.Close()
		c.Close()
		return nil, fmt.Errorf("godbc: telemetry prepare: %w", err)
	}
	var gov *obs.Governor
	if budget := c.telemetryBudget(o.BudgetPct); budget > 0 {
		gov = obs.NewGovernor(budget)
	}
	ts := &TelemetryStore{
		conn:     c,
		insSpan:  insSpan,
		insSlow:  insSlow,
		gov:      gov,
		opts:     o,
		flushReq: make(chan chan error),
		stopCh:   make(chan struct{}),
		done:     make(chan struct{}),
	}
	ts.sink = obs.NewTelemetrySink(ts.take, obs.SinkOptions{Governor: gov})
	if o.HistoryEvery > 0 {
		if err := ts.openObservability(); err != nil {
			insSpan.Close()
			insSlow.Close()
			c.Close()
			return nil, err
		}
	}
	go ts.writer()
	return ts, nil
}

// telemetryBudget picks the governor budget: an explicit option wins, then
// the DSN's ?telemetrybudget, then the default. Negative (or
// telemetrybudget=0) disables the governor and returns 0.
func (o connOptions) telemetryBudget(explicit float64) float64 {
	switch {
	case explicit < 0:
		return 0
	case explicit > 0:
		return explicit
	}
	return o.budget
}

// take is the sink's store callback: the writer's pulls hand it the
// entries, and it appends them to pending.
func (ts *TelemetryStore) take(batch []obs.SinkEntry) error {
	ts.pending = append(ts.pending, batch...)
	ts.queued.Add(int64(len(batch)))
	return nil
}

// Flush blocks until every span the sink accepted before the call has been
// committed (or the store has shut down). Tests and one-shot tools use it;
// the steady-state pipeline never needs a barrier.
func (ts *TelemetryStore) Flush() error {
	ack := make(chan error, 1)
	select {
	case ts.flushReq <- ack:
		select {
		case err := <-ack:
			return err
		case <-ts.done:
			return nil
		}
	case <-ts.done:
		return nil
	}
}

// writer is the store's one goroutine: it owns the connection, pulls the
// sink's buffer every FlushEvery, commits groups on the size and age
// triggers, runs retention sweeps, and reports every write's duration to
// the governor. Steady-state writes never wait for the engine's write
// lock: a refused TryBegin reports a governor stall and the work waits for
// the next trigger — only the Flush barrier and the Close drain block for
// the lock, because their callers need certainty.
func (ts *TelemetryStore) writer() {
	defer close(ts.done)
	pull := time.NewTicker(ts.opts.FlushEvery)
	defer pull.Stop()
	age := time.NewTicker(telemetryMaxBatchAge)
	defer age.Stop()
	prune := time.NewTicker(telemetryPruneEvery)
	defer prune.Stop()
	// The scrape ticker's channel stays nil (never selected) when the
	// continuous layer is off.
	var scrapeC <-chan time.Time
	if ts.historyEnabled() && ts.opts.HistoryEvery > 0 {
		scrape := time.NewTicker(ts.opts.HistoryEvery)
		defer scrape.Stop()
		scrapeC = scrape.C
	}
	for {
		select {
		case <-pull.C:
			ts.pull(false) //nolint:errcheck // counted in obs_telemetry_writer_errors_total
		case <-age.C:
			if n := min(len(ts.pending), telemetryGroupSize); n > 0 {
				if ran, _ := ts.commitGroup(ts.pending[:n], false); ran {
					ts.pending = ts.pending[n:]
				}
			}
		case ack := <-ts.flushReq:
			ack <- ts.pull(true)
		case <-scrapeC:
			ts.scrapeTick(time.Now())
		case <-prune.C:
			ts.prune(false)
		case <-ts.stopCh:
			// Final drain: everything the sink accepted must reach the
			// tables before Close returns. Then one last scrape (so the
			// workload's closing activity makes it into the history) and
			// one last retention sweep, which waits for the write lock so
			// short-lived processes still honour the caps.
			ts.closeErr = ts.pull(true)
			ts.scrapeTick(time.Now())
			ts.prune(true)
			return
		}
	}
}

// pull moves spans from the sink's buffer into pending and commits them a
// group at a time. pending is only ever topped up to two groups, so the
// sink's bounded buffer is the one place spans wait, and Offer the one
// place they are dropped. pull takes at most what the sink held on entry,
// so producers that keep offering cannot hold the writer here. Without
// wait, a partial group stays for the age trigger and a stall leaves the
// rest for the next tick; with wait (the Flush barrier and the Close
// drain) everything is committed.
func (ts *TelemetryStore) pull(wait bool) error {
	var err error
	for left := ts.sink.Buffered(); ; {
		if room := 2*telemetryGroupSize - len(ts.pending); room > 0 {
			n := min(left, room)
			ts.sink.FlushUpTo(n) //nolint:errcheck // take never fails
			left -= n
		}
		n := min(len(ts.pending), telemetryGroupSize)
		if n == 0 || (n < telemetryGroupSize && !wait) {
			return err
		}
		ran, cerr := ts.commitGroup(ts.pending[:n], wait)
		if !ran {
			return err
		}
		ts.pending = ts.pending[n:]
		err = errors.Join(err, cerr)
	}
}

// writeTx is the telemetry writer's one write discipline: run write in a
// single relaxed-durability transaction on the store's connection, commit
// when it succeeds, roll back when it fails, and report the time spent to
// the governor as telemetry write cost. Unless wait is set it never queues
// behind the workload it measures: when another transaction holds the
// engine's write lock it reports a governor stall and returns ran=false,
// and the caller keeps its work to retry or shed under its own policy and
// stall counter. Otherwise the work is consumed, failures included: an
// error from Begin/TryBegin, write or Commit is counted in
// obs_telemetry_writer_errors_total and returned, and the caller drops the
// work — a failure that is not lock contention would only fail again.
func (ts *TelemetryStore) writeTx(wait bool, write func() error) (ran bool, err error) {
	start := time.Now()
	ok := true
	if wait {
		err = ts.conn.Begin()
	} else {
		ok, err = ts.conn.TryBegin()
	}
	if err == nil && !ok {
		ts.gov.ReportStall()
		return false, nil
	}
	if err == nil {
		if err = write(); err != nil {
			ts.conn.Rollback() //nolint:errcheck // the write error is the one to report
		} else {
			err = ts.conn.Commit()
		}
	}
	ts.gov.ReportWrite(time.Since(start))
	if err != nil {
		mTelWriterErrors.Inc()
	}
	return true, err
}

// commitGroup persists one group of sink entries through writeTx. The
// Flush barrier and the Close drain wait for the write lock; steady-state
// commits do not, and a stalled group (ran=false) counts in
// obs_telemetry_writer_stalls_total and stays with the caller to retry.
func (ts *TelemetryStore) commitGroup(group []obs.SinkEntry, wait bool) (ran bool, err error) {
	start := time.Now()
	if ran, err = ts.writeTx(wait, func() error { return ts.insertGroup(group) }); !ran {
		mTelWriterStalls.Inc()
		return false, nil
	}
	ts.queued.Add(-int64(len(group)))
	if err == nil {
		mTelGroupCommits.Inc()
		mTelGroupCommitNS.Observe(int64(time.Since(start)))
		mTelGroupRows.Observe(int64(len(group)))
	}
	return true, err
}

// insertGroup runs the group's inserts, stopping at the first failure.
func (ts *TelemetryStore) insertGroup(group []obs.SinkEntry) error {
	for _, e := range group {
		sp := e.Span
		stmt := sp.Label(telemetryStatementMax)
		// A zero ParentID persists as NULL, matching rows written before
		// the parent_span_id migration: NULL-parented rows are roots.
		var parent any
		if sp.ParentID != 0 {
			parent = sp.ParentID
		}
		if _, err := ts.insSpan.Exec(
			sp.ID, parent, sp.Root, sp.Start, sp.Kind, sp.Op(), stmt, sp.Params,
			sp.Parse.Microseconds(), sp.Plan.Microseconds(),
			sp.Execute.Microseconds(), sp.Materialize.Microseconds(),
			sp.Total.Microseconds(), sp.RowsScanned, sp.RowsReturned,
			sp.IndexUsed, sp.PlanSummary, sp.Err,
		); err != nil {
			return fmt.Errorf("godbc: telemetry insert span %d: %w", sp.ID, err)
		}
		if !e.Slow {
			continue
		}
		if _, err := ts.insSlow.Exec(
			sp.ID, sp.Root, sp.Start, sp.Kind, sp.Op(), stmt,
			sp.Total.Microseconds(), sp.RowsScanned, sp.RowsReturned, sp.Err,
		); err != nil {
			return fmt.Errorf("godbc: telemetry insert slowlog %d: %w", sp.ID, err)
		}
	}
	return nil
}

// prune runs one retention sweep in a single writeTx: rows older than
// RetainAge go first, then each table is capped at RetainRows by deleting
// below its RetainRows-th newest key. Span ids are monotonic in start
// order, so the smallest ids are the oldest rows; history rows share one
// timestamp per scrape, so their cap is approximate by up to one sample.
// With the continuous layer on, alert episodes also age out once resolved
// (open episodes are live state, not history). The periodic sweep does not
// wait for the write lock: a stall counts in
// obs_telemetry_writer_stalls_total and the next tick retries. The Close
// sweep waits, so short runs still honour the caps. Deletions reach the
// pruned counters only once the sweep commits.
func (ts *TelemetryStore) prune(wait bool) {
	if ts.opts.RetainAge <= 0 && ts.opts.RetainRows <= 0 {
		return
	}
	sw := &retentionSweep{c: ts.conn, keep: ts.opts.RetainRows}
	var spans, slow, hist, alerts int64
	ran, err := ts.writeTx(wait, func() error {
		history := ts.historyEnabled()
		if ts.opts.RetainAge > 0 {
			cutoff := time.Now().Add(-ts.opts.RetainAge)
			spans += sw.Exec("DELETE FROM PERFDMF_SPANS WHERE start_time < ?", cutoff)
			slow += sw.Exec("DELETE FROM PERFDMF_SLOWLOG WHERE start_time < ?", cutoff)
			if history {
				hist += sw.Exec("DELETE FROM PERFDMF_METRICS_HISTORY WHERE at < ?", cutoff)
				alerts += sw.Exec("DELETE FROM PERFDMF_ALERTS WHERE state = 'resolved' AND resolved_at < ?", cutoff)
			}
		}
		if sw.keep > 0 {
			spans += sw.capRows(SpansTable, "span_id")
			slow += sw.capRows(SlowLogTable, "span_id")
			if history {
				hist += sw.capRows(MetricsHistoryTable, "at")
			}
		}
		return sw.err
	})
	if !ran {
		mTelWriterStalls.Inc()
		return
	}
	mTelPruneRuns.Inc()
	if err == nil {
		mTelPrunedSpans.Add(spans)
		mTelPrunedSlow.Add(slow)
		mHistPrunedRows.Add(hist)
		mAlertsPrunedRows.Add(alerts)
	}
}

// retentionSweep runs one sweep's statements inside the writer's open
// transaction. The first error sticks: later statements are skipped and
// writeTx rolls the sweep back.
type retentionSweep struct {
	c    *conn
	keep int // RetainRows
	err  error
}

// Exec runs one DELETE and returns the number of rows it removed.
func (s *retentionSweep) Exec(query string, arg any) int64 {
	if s.err != nil {
		return 0
	}
	res, err := s.c.Exec(query, arg)
	s.err = err
	return res.RowsAffected
}

// capRows deletes the table's rows below its keep-th largest key and
// returns how many went.
func (s *retentionSweep) capRows(table, key string) int64 {
	if s.err != nil {
		return 0
	}
	rows, err := s.c.Query("SELECT "+key+" FROM "+table+" ORDER BY "+key+" DESC LIMIT 1 OFFSET ?", s.keep-1)
	if err != nil {
		s.err = err
		return 0
	}
	var keepFrom any
	if rows.Next() {
		keepFrom = rows.Value(0)
	}
	rows.Close()
	if keepFrom == nil {
		return 0 // within the cap
	}
	return s.Exec("DELETE FROM "+table+" WHERE "+key+" < ?", keepFrom)
}

// Close stops the writer (committing everything the sink accepted and
// running a final retention sweep), then releases the statements and the
// connection. It returns the final drain's commit error, if any. Closing
// twice is safe.
func (ts *TelemetryStore) Close() error {
	ts.stopOnce.Do(func() {
		close(ts.stopCh)
		<-ts.done
		ts.insSpan.Close() //nolint:errcheck
		ts.insSlow.Close() //nolint:errcheck
		if ts.insHist != nil {
			ts.insHist.Close() //nolint:errcheck
		}
		ts.closeErr = errors.Join(ts.closeErr, ts.conn.Close())
	})
	return ts.closeErr
}

// --- pipeline state: the OBS_TELEMETRY and OBS_ALERT_STATES catalog ---

// activeTelemetry is the most recent store StartTelemetry ran, for the
// catalog. It survives stop so post-run summaries still see the final
// counters, with active false.
var activeTelemetry atomic.Pointer[TelemetryStore]

// telemetryCols are OBS_TELEMETRY's columns.
var telemetryCols = []string{"active", "sample_rate", "budget_pct", "write_overhead_pct",
	"governor_adjustments", "queue_depth", "queue_capacity",
	"offered", "sampled_out", "dropped", "stored", "store_errors",
	"group_commits", "pruned_spans", "pruned_slowlog",
	"retain_rows", "retain_age_sec", "last_flush_age_sec",
	"history_enabled", "last_scrape_age_ms", "alert_rules", "alerts_pending", "alerts_firing"}

// telemetryRows is OBS_TELEMETRY: exactly one row describing the most
// recent telemetry pipeline — governor state, queue pressure (sink buffer
// plus the writer's pending entries, against the sink's capacity), lifetime throughput
// counters, retention, and the continuous layer's scrape freshness and
// alert counts. When StartTelemetry has never run in this process the row
// is active=false with every other column NULL, so the table always
// answers. NULL also marks "off" and "never": retain_age_sec without age
// pruning, last_flush_age_sec before the first flush, last_scrape_age_ms
// without history or before the first scrape.
func telemetryRows(*reldb.Tx) ([]reldb.Row, error) {
	ts := activeTelemetry.Load()
	if ts == nil {
		row := make(reldb.Row, len(telemetryCols)) // the zero Value is NULL
		row[0] = reldb.Bool(false)
		return []reldb.Row{row}, nil
	}
	gov := ts.gov
	retainAge, flushAge, scrapeAge := reldb.Null, reldb.Null, reldb.Null
	if ts.opts.RetainAge > 0 {
		retainAge = reldb.Float(ts.opts.RetainAge.Seconds())
	}
	if at := ts.sink.LastFlush(); !at.IsZero() {
		flushAge = reldb.Float(time.Since(at).Seconds())
	}
	var rules, pending, firing int64
	if ts.historyEnabled() {
		if ns := ts.lastScrapeNS.Load(); ns != 0 {
			scrapeAge = reldb.Int(time.Since(time.Unix(0, ns)).Milliseconds())
		}
		for _, a := range ts.alerts.Snapshot() {
			rules++
			switch a.State {
			case obs.AlertStatePending:
				pending++
			case obs.AlertStateFiring:
				firing++
			}
		}
	}
	counter := func(name string) reldb.Value { return reldb.Int(obs.Default.Counter(name).Value()) }
	return []reldb.Row{{
		reldb.Bool(ts.active.Load()),
		reldb.Float(gov.Rate()), reldb.Float(gov.BudgetPct()),
		reldb.Float(gov.OverheadPct()), reldb.Int(gov.Adjustments()),
		reldb.Int(int64(ts.sink.Buffered()) + ts.queued.Load()), reldb.Int(int64(ts.sink.Capacity())),
		counter("obs_telemetry_offered_total"), counter("obs_telemetry_sampled_out_total"),
		counter("obs_telemetry_dropped_total"), counter("obs_telemetry_stored_total"),
		counter("obs_telemetry_store_errors_total"), reldb.Int(mTelGroupCommits.Value()),
		reldb.Int(mTelPrunedSpans.Value()), reldb.Int(mTelPrunedSlow.Value()),
		reldb.Int(int64(ts.opts.RetainRows)), retainAge, flushAge,
		reldb.Bool(ts.historyEnabled()), scrapeAge,
		reldb.Int(rules), reldb.Int(pending), reldb.Int(firing),
	}}, nil
}

// FlushTelemetry is a barrier on the active pipeline: after a nil return,
// every span the sink had accepted before the call is committed. No-op
// when no pipeline is running.
func FlushTelemetry() error {
	ts := activeTelemetry.Load()
	if ts == nil || !ts.active.Load() {
		return nil
	}
	return ts.Flush()
}

// StartTelemetry wires the whole self-hosted telemetry path: it opens a
// TelemetryStore on dsn (starting its writer, the pipeline's one
// goroutine, with the budget governor and the sink it pulls from) and
// installs the sink globally so every connection's completed spans are
// captured. The returned stop function uninstalls the sink and closes the
// store, which commits the tail.
func StartTelemetry(dsn string, o TelemetryOptions) (stop func() error, err error) {
	st, err := OpenTelemetryStore(dsn, o)
	if err != nil {
		return nil, err
	}
	st.active.Store(true)
	activeTelemetry.Store(st)
	obs.InstallSink(st.sink)
	return func() error {
		obs.UninstallSink()
		err := st.Close()
		st.active.Store(false)
		return err
	}, nil
}
