// Self-hosted telemetry: PerfDMF stores its own spans and slow queries in
// the same relational engine it manages application profiles with. The
// paper's thesis — performance data belongs in a queryable relational
// store — applied to the framework itself:
//
//	SELECT op, COUNT(*), SUM(dur_us) FROM PERFDMF_SPANS GROUP BY op
//
// The obs.TelemetrySink owns buffering, backpressure and head sampling;
// TelemetryStore owns the schema and an asynchronous group-commit write
// path: sink batches land in a bounded queue, a dedicated writer goroutine
// coalesces them into one relaxed-durability transaction per group, prunes
// the telemetry tables by age and row cap, and feeds every write's cost
// back into the sampling governor so persistence stays inside the overhead
// budget. The store's connection is quiet (it never produces spans), so
// persisting telemetry cannot generate more telemetry.
package godbc

import (
	"errors"
	"fmt"
	"math"
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

// TelemetryOptions tunes the whole self-hosted telemetry pipeline. The
// zero value picks sensible defaults everywhere.
type TelemetryOptions struct {
	// Sink configures the buffering side (capacity, flush period). The
	// Governor field is owned by the pipeline and overwritten.
	Sink obs.SinkOptions
	// BudgetPct is the end-to-end overhead budget (percent) the sampling
	// governor targets. 0 defers to the DSN's ?telemetrybudget option and
	// then DefaultTelemetryBudgetPct; negative disables the governor (every
	// span is kept).
	BudgetPct float64
	// GroupSize caps the entries committed in one writer transaction
	// (default 512).
	GroupSize int
	// MaxBatchAge bounds how long a sub-GroupSize group may wait before it
	// is committed anyway (default 100ms).
	MaxBatchAge time.Duration
	// QueueBatches bounds the writer queue, in sink batches (default 64).
	// A full queue fails Store — the sink counts the error and the spans
	// are shed, never the workload blocked.
	QueueBatches int
	// RetainAge prunes spans and slow-log rows whose start_time is older
	// (0 disables age pruning).
	RetainAge time.Duration
	// RetainRows caps the row count of each telemetry table, pruning the
	// oldest span ids beyond it. 0 picks DefaultTelemetryRetainRows;
	// negative disables the cap.
	RetainRows int
	// PruneEvery is the retention sweep cadence on the writer goroutine
	// (default 5s). A final sweep always runs at Close.
	PruneEvery time.Duration
	// HistoryEvery turns on the continuous-observability layer: every
	// HistoryEvery the writer goroutine scrapes the metric registry into
	// obs.DefaultHistory, mirrors the sample into PERFDMF_METRICS_HISTORY,
	// and evaluates the PERFDMF_ALERT_RULES against the history ring. 0
	// (the default) leaves it off.
	HistoryEvery time.Duration
}

func (o TelemetryOptions) withDefaults() TelemetryOptions {
	if o.GroupSize <= 0 {
		o.GroupSize = 512
	}
	if o.MaxBatchAge <= 0 {
		o.MaxBatchAge = 100 * time.Millisecond
	}
	if o.QueueBatches <= 0 {
		o.QueueBatches = 64
	}
	if o.RetainRows == 0 {
		o.RetainRows = DefaultTelemetryRetainRows
	}
	if o.PruneEvery <= 0 {
		o.PruneEvery = 5 * time.Second
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
	mTelQueueDrops    = obs.Default.Counter("obs_telemetry_writer_queue_drops_total")
	mTelPrunedSpans   = obs.Default.Counter("obs_telemetry_pruned_spans_total")
	mTelPrunedSlow    = obs.Default.Counter("obs_telemetry_pruned_slowlog_total")
	mTelPruneRuns     = obs.Default.Counter("obs_telemetry_prune_runs_total")
)

// TelemetryStore persists span batches through an ordinary godbc
// connection. Store (the obs.TelemetrySink callback) only enqueues: a
// dedicated writer goroutine owns the connection, coalesces queued batches
// into group commits with relaxed durability, and prunes the telemetry
// tables on a timer. A batch acknowledged by Store (nil error) is
// guaranteed to be committed by the time Close returns, unless the commit
// itself failed — which is counted and reported, never silent.
type TelemetryStore struct {
	conn    *conn
	insSpan Stmt
	insSlow Stmt
	gov     *obs.Governor
	opts    TelemetryOptions

	queue    chan []obs.SinkEntry
	flushReq chan chan error
	stopCh   chan struct{}
	done     chan struct{}

	queued atomic.Int64 // entries accepted but not yet committed
	closed atomic.Bool

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
// (options, then ?telemetrybudget, then the default); retrieve it with
// Governor to wire the sink.
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
		queue:    make(chan []obs.SinkEntry, o.QueueBatches),
		flushReq: make(chan chan error),
		stopCh:   make(chan struct{}),
		done:     make(chan struct{}),
	}
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

// Governor returns the store's sampling governor, nil when the budget is
// disabled.
func (ts *TelemetryStore) Governor() *obs.Governor { return ts.gov }

// QueuedEntries returns the entries accepted by Store but not yet
// committed.
func (ts *TelemetryStore) QueuedEntries() int { return int(ts.queued.Load()) }

// Store hands one sink batch to the writer goroutine. It never blocks: a
// full queue (the writer has fallen behind by QueueBatches flushes) fails
// the batch, which the sink counts as a store error. It satisfies the
// obs.TelemetrySink store callback.
func (ts *TelemetryStore) Store(batch []obs.SinkEntry) error {
	if len(batch) == 0 {
		return nil
	}
	if ts.closed.Load() {
		return fmt.Errorf("godbc: telemetry store is closed")
	}
	select {
	case ts.queue <- batch:
		ts.queued.Add(int64(len(batch)))
		return nil
	default:
		mTelQueueDrops.Add(int64(len(batch)))
		return fmt.Errorf("godbc: telemetry writer queue full (%d batches pending)", cap(ts.queue))
	}
}

// Flush blocks until every batch acknowledged so far has been committed
// (or the store has shut down). Tests and one-shot tools use it; the
// steady-state pipeline never needs a barrier.
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

// writer is the group-commit loop: it owns the store's connection, absorbs
// queued sink batches, commits them in bounded groups when the size or age
// trigger fires, runs retention sweeps, and reports every write's duration
// to the governor. Steady-state commits never wait for the engine's write
// lock: a refused TryBegin leaves the group pending, reports a governor
// stall, and retries on the next trigger — only the Flush barrier and the
// Close drain block for the lock, because their callers need certainty.
func (ts *TelemetryStore) writer() {
	defer close(ts.done)
	age := time.NewTicker(ts.opts.MaxBatchAge)
	defer age.Stop()
	prune := time.NewTicker(ts.opts.PruneEvery)
	defer prune.Stop()
	// The scrape ticker's channel stays nil (never selected) when the
	// continuous layer is off.
	var scrapeC <-chan time.Time
	if ts.historyEnabled() && ts.opts.HistoryEvery > 0 {
		scrape := time.NewTicker(ts.opts.HistoryEvery)
		defer scrape.Stop()
		scrapeC = scrape.C
	}
	var pending []obs.SinkEntry
	// While commits are stalled behind the workload's write lock, stop
	// absorbing the queue once a couple of groups are pending: Store's
	// bound then holds the line (shedding, counted) instead of pending
	// growing without limit.
	maxPending := 2 * ts.opts.GroupSize
	for {
		queue := ts.queue
		if len(pending) >= maxPending {
			queue = nil
		}
		select {
		case b := <-queue:
			pending = append(pending, b...)
			for len(pending) >= ts.opts.GroupSize {
				if ran, _ := ts.commitGroup(pending[:ts.opts.GroupSize], false); !ran {
					break
				}
				pending = pending[ts.opts.GroupSize:]
			}
		case <-age.C:
			if len(pending) > 0 {
				n := len(pending)
				if n > ts.opts.GroupSize {
					n = ts.opts.GroupSize
				}
				if ran, _ := ts.commitGroup(pending[:n], false); ran {
					pending = pending[n:]
				}
			}
		case ack := <-ts.flushReq:
			// Commit the pending entries, then one queue's worth — every
			// batch acknowledged before the Flush. Draining on top of a
			// pending group, or past one queue while producers refill it,
			// would let the uncommitted backlog outgrow the queue plus
			// maxPending.
			var err error
			if len(pending) > 0 {
				_, err = ts.commitGroup(pending, true)
			}
			if drained := ts.drainQueue(nil, cap(ts.queue)); len(drained) > 0 {
				_, derr := ts.commitGroup(drained, true)
				err = errors.Join(err, derr)
			}
			pending = nil
			ack <- err
		case <-scrapeC:
			ts.scrapeTick(time.Now())
		case <-prune.C:
			ts.prune()
		case <-ts.stopCh:
			// Final drain: everything Store acknowledged must reach the
			// tables before Close returns. Then one last scrape (so the
			// workload's closing activity makes it into the history) and
			// one last retention sweep, so short-lived processes still
			// honour the caps.
			pending = ts.drainQueue(pending, math.MaxInt)
			if len(pending) > 0 {
				ts.commitGroup(pending, true) //nolint:errcheck // counted in obs_telemetry_writer_errors_total
			}
			ts.scrapeTick(time.Now())
			ts.prune()
			return
		}
	}
}

// drainQueue moves up to max queued batches into pending without blocking.
func (ts *TelemetryStore) drainQueue(pending []obs.SinkEntry, max int) []obs.SinkEntry {
	for ; max > 0; max-- {
		select {
		case b := <-ts.queue:
			pending = append(pending, b...)
		default:
			return pending
		}
	}
	return pending
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

// prune enforces the retention policy: rows older than RetainAge go first,
// then each table is capped at RetainRows by pruning the oldest span ids.
// It runs on the writer goroutine (the connection's only user) and charges
// its cost to the governor like any other telemetry write.
func (ts *TelemetryStore) prune() {
	if ts.opts.RetainAge <= 0 && ts.opts.RetainRows <= 0 {
		return
	}
	start := time.Now()
	if ts.opts.RetainAge > 0 {
		cutoff := time.Now().Add(-ts.opts.RetainAge)
		ts.pruneAge(SpansTable, cutoff, mTelPrunedSpans)
		ts.pruneAge(SlowLogTable, cutoff, mTelPrunedSlow)
	}
	if ts.opts.RetainRows > 0 {
		ts.pruneRows(SpansTable, mTelPrunedSpans)
		ts.pruneRows(SlowLogTable, mTelPrunedSlow)
	}
	ts.pruneObservability()
	ts.gov.ReportWrite(time.Since(start))
	mTelPruneRuns.Inc()
}

func (ts *TelemetryStore) pruneAge(table string, cutoff time.Time, pruned *obs.Counter) {
	res, err := ts.conn.Exec("DELETE FROM "+table+" WHERE start_time < ?", cutoff)
	if err != nil {
		mTelWriterErrors.Inc()
		return
	}
	pruned.Add(res.RowsAffected)
}

// pruneRows deletes everything older than the RetainRows-th newest span id
// of the table. Span ids are monotonic in start order, so "oldest rows"
// and "smallest ids" coincide.
func (ts *TelemetryStore) pruneRows(table string, pruned *obs.Counter) {
	rows, err := ts.conn.Query(
		"SELECT span_id FROM "+table+" ORDER BY span_id DESC LIMIT 1 OFFSET ?",
		ts.opts.RetainRows-1)
	if err != nil {
		mTelWriterErrors.Inc()
		return
	}
	defer rows.Close()
	if !rows.Next() {
		return // table is within the cap
	}
	keepFrom, ok := rows.Value(0).(int64)
	rows.Close()
	if !ok {
		return
	}
	res, err := ts.conn.Exec("DELETE FROM "+table+" WHERE span_id < ?", keepFrom)
	if err != nil {
		mTelWriterErrors.Inc()
		return
	}
	pruned.Add(res.RowsAffected)
}

// Close stops the writer (draining everything acknowledged, committing the
// tail, and running a final retention sweep), then releases the statements
// and the connection. Closing twice is safe.
func (ts *TelemetryStore) Close() error {
	ts.stopOnce.Do(func() {
		ts.closed.Store(true)
		close(ts.stopCh)
		<-ts.done
		ts.insSpan.Close() //nolint:errcheck
		ts.insSlow.Close() //nolint:errcheck
		if ts.insHist != nil {
			ts.insHist.Close() //nolint:errcheck
		}
		ts.closeErr = ts.conn.Close()
	})
	return ts.closeErr
}

// --- pipeline state: the OBS_TELEMETRY and OBS_ALERT_STATES catalog ---

// telemetryPipeline ties a running sink/store pair together for the
// catalog. The pointer survives Stop so post-run summaries still see the
// final counters, with active false.
type telemetryPipeline struct {
	sink   *obs.TelemetrySink
	store  *TelemetryStore
	active atomic.Bool
}

var activeTelemetry atomic.Pointer[telemetryPipeline]

// telemetryCols are OBS_TELEMETRY's columns.
var telemetryCols = []string{"active", "sample_rate", "budget_pct", "write_overhead_pct",
	"governor_adjustments", "queue_depth", "queue_capacity",
	"offered", "sampled_out", "dropped", "stored", "store_errors",
	"group_commits", "pruned_spans", "pruned_slowlog",
	"retain_rows", "retain_age_sec", "last_flush_age_sec",
	"history_enabled", "last_scrape_age_ms", "alert_rules", "alerts_pending", "alerts_firing"}

// telemetryRows is OBS_TELEMETRY: exactly one row describing the most
// recent telemetry pipeline — governor state, queue pressure (sink buffer
// plus writer queue, against the sink's capacity), lifetime throughput
// counters, retention, and the continuous layer's scrape freshness and
// alert counts. When StartTelemetry has never run in this process the row
// is active=false with every other column NULL, so the table always
// answers. NULL also marks "off" and "never": retain_age_sec without age
// pruning, last_flush_age_sec before the first flush, last_scrape_age_ms
// without history or before the first scrape.
func telemetryRows(*reldb.Tx) ([]reldb.Row, error) {
	p := activeTelemetry.Load()
	if p == nil {
		row := make(reldb.Row, len(telemetryCols)) // the zero Value is NULL
		row[0] = reldb.Bool(false)
		return []reldb.Row{row}, nil
	}
	ts, gov := p.store, p.store.gov
	retainAge, flushAge, scrapeAge := reldb.Null, reldb.Null, reldb.Null
	if ts.opts.RetainAge > 0 {
		retainAge = reldb.Float(ts.opts.RetainAge.Seconds())
	}
	if at := p.sink.LastFlush(); !at.IsZero() {
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
		reldb.Bool(p.active.Load()),
		reldb.Float(gov.Rate()), reldb.Float(gov.BudgetPct()),
		reldb.Float(gov.OverheadPct()), reldb.Int(gov.Adjustments()),
		reldb.Int(int64(p.sink.Buffered() + ts.QueuedEntries())), reldb.Int(int64(p.sink.Capacity())),
		counter("obs_telemetry_offered_total"), counter("obs_telemetry_sampled_out_total"),
		counter("obs_telemetry_dropped_total"), counter("obs_telemetry_stored_total"),
		counter("obs_telemetry_store_errors_total"), reldb.Int(mTelGroupCommits.Value()),
		reldb.Int(mTelPrunedSpans.Value()), reldb.Int(mTelPrunedSlow.Value()),
		reldb.Int(int64(ts.opts.RetainRows)), retainAge, flushAge,
		reldb.Bool(ts.historyEnabled()), scrapeAge,
		reldb.Int(rules), reldb.Int(pending), reldb.Int(firing),
	}}, nil
}

// FlushTelemetry drains the active pipeline end to end: the sink's buffer
// into the writer's queue, then the queue through a group commit into the
// database. It is a barrier — after a nil return, every span the sink had
// accepted before the call is committed. No-op when no pipeline is running.
func FlushTelemetry() error {
	p := activeTelemetry.Load()
	if p == nil || !p.active.Load() {
		return nil
	}
	// Drain the writer's queue first: after a burst it may be full, and a
	// sink flush into a full queue sheds the batch instead of blocking.
	// With the queue empty the sink's batch is guaranteed a slot; the
	// second store flush commits it.
	if err := p.store.Flush(); err != nil {
		return err
	}
	if err := p.sink.Flush(); err != nil {
		return err
	}
	return p.store.Flush()
}

// StartTelemetry wires the whole self-hosted telemetry path: it opens a
// TelemetryStore on dsn (starting the group-commit writer), creates the
// budget governor, starts an obs.TelemetrySink sampling and flushing into
// the store, and installs the sink globally so every connection's completed
// spans are captured. The returned stop function uninstalls the sink,
// flushes the tail through the writer, and closes the store.
func StartTelemetry(dsn string, o TelemetryOptions) (stop func() error, err error) {
	st, err := OpenTelemetryStore(dsn, o)
	if err != nil {
		return nil, err
	}
	so := o.Sink
	so.Governor = st.Governor()
	sink := obs.NewTelemetrySink(st.Store, so)
	sink.Start()
	p := &telemetryPipeline{sink: sink, store: st}
	p.active.Store(true)
	activeTelemetry.Store(p)
	obs.InstallSink(sink)
	return func() error {
		obs.UninstallSink()
		// Drain the writer's queue before the sink's final flush: after a
		// burst the queue may be full, and the tail of the telemetry would
		// be shed (a counted error) at the very moment a clean drain is
		// wanted. With the queue emptied the final batch always fits, and
		// st.Close commits it.
		err := st.Flush()
		if cerr := sink.Close(); err == nil {
			err = cerr
		}
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		p.active.Store(false)
		return err
	}, nil
}
