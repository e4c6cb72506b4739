package godbc

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"perfdmf/internal/obs"
	"perfdmf/internal/reldb"
	"perfdmf/internal/sqlexec"
	"perfdmf/internal/sqlparse"
)

// conn is the single Conn implementation, backed by a reldb engine. A conn
// is not safe for concurrent use by multiple goroutines (like a JDBC
// Connection); open one connection per goroutine — they share the engine.
type conn struct {
	db       *reldb.DB
	id       int64     // registry id, assigned at open (see admin.go)
	tx       *reldb.Tx // open explicit transaction, or nil
	closed   bool
	readonly bool // reject all mutating statements
	quiet    bool // never produce spans (the telemetry store's own
	// connection, so its INSERTs cannot trace themselves back into the sink)
	relaxed bool // commit with relaxed durability (batched WAL fsync);
	// only the telemetry writer sets this — span batches must not pay, or
	// charge the workload, one fsync per group commit
	release func() error // driver-specific close hook
	obs     obsOpts      // per-connection trace/slow-query overrides
	workers int          // ?workers=N parallelism (-1 unset, 0 serial)
	// columnar enables the vectorized aggregation path (?columnar, default
	// on). Off forces row-at-a-time execution for comparison runs.
	columnar bool
	cache    *stmtCache // per-connection statement/plan cache

	// parentSpan is the framework span statement spans are parented under,
	// set via BindSpanContext. Connections are single-goroutine, so the
	// field needs no synchronisation.
	parentSpan *obs.Span
}

func newConn(db *reldb.DB, release func() error) *conn {
	mConnsOpened.Inc()
	c := &conn{db: db, release: release, workers: -1, columnar: true, cache: newStmtCache()}
	registerConn(c)
	return c
}

func toValues(args []any) []reldb.Value {
	if len(args) == 0 {
		return nil
	}
	out := make([]reldb.Value, len(args))
	for i, a := range args {
		out[i] = reldb.FromGo(a)
	}
	return out
}

func (c *conn) check() error {
	if c.closed {
		return fmt.Errorf("godbc: connection is closed")
	}
	return nil
}

func (c *conn) Exec(query string, args ...any) (Result, error) {
	if err := c.check(); err != nil {
		return Result{}, err
	}
	// Quiet connections (the telemetry writer's own) keep the statement
	// metrics untouched: the scrape loop's history INSERTs must not show up
	// as workload activity, or exec-rate alert rules would observe the
	// observer and never resolve.
	if !c.quiet {
		mExecTotal.Inc()
	}
	entry := sqlexec.Statements.Begin(query, "exec")
	defer entry.Finish()
	sp := c.startSpan("exec", query, len(args))
	e, err := c.parseCached(query)
	if err != nil {
		if !c.quiet {
			mStmtErrors.Inc()
		}
		c.finishSpan(sp, err)
		return Result{}, err
	}
	if sp != nil {
		sp.Parse = time.Since(sp.Start)
	}
	res, err := c.execParsed(e.st, toValues(args), entry)
	if err != nil && !c.quiet {
		mStmtErrors.Inc()
	}
	c.finishSpan(sp, err)
	if sp != nil && !c.quiet {
		mExecNS.Observe(int64(sp.Total))
	}
	return res, err
}

func (c *conn) execParsed(st sqlparse.Statement, params []reldb.Value, entry *sqlexec.StmtEntry) (Result, error) {
	switch s := st.(type) {
	case *sqlparse.Begin:
		return Result{}, c.Begin()
	case *sqlparse.Commit:
		return Result{}, c.Commit()
	case *sqlparse.Rollback:
		return Result{}, c.Rollback()
	case *sqlparse.Kill:
		// KILL mutates no data, so it works on read-only connections and
		// needs no transaction.
		entry.SetPhase(sqlexec.PhaseExecute)
		res, err := sqlexec.ExecOpts(nil, s, params, sqlexec.Options{})
		if err != nil {
			return Result{}, err
		}
		return Result(res), nil
	case *sqlparse.Select:
		return Result{}, fmt.Errorf("godbc: use Query for SELECT")
	}
	if c.readonly {
		return Result{}, fmt.Errorf("godbc: connection is read-only")
	}
	entry.SetPhase(sqlexec.PhaseExecute)
	opts := c.queryOptions(nil, entry)
	if c.tx != nil {
		res, err := sqlexec.ExecOpts(c.tx, st, params, opts)
		if err != nil {
			return Result{}, err
		}
		return Result(res), nil
	}
	var res sqlexec.Result
	err := c.db.Write(func(tx *reldb.Tx) error {
		var err error
		res, err = sqlexec.ExecOpts(tx, st, params, opts)
		return err
	})
	if err != nil {
		return Result{}, err
	}
	return Result(res), nil
}

func (c *conn) Query(query string, args ...any) (Rows, error) {
	if err := c.check(); err != nil {
		return nil, err
	}
	if !c.quiet {
		mQueryTotal.Inc()
	}
	start := time.Now()
	entry := sqlexec.Statements.Begin(query, "query")
	defer entry.Finish()
	sp := c.startSpan("query", query, len(args))
	e, err := c.parseCached(query)
	if err != nil {
		if !c.quiet {
			mStmtErrors.Inc()
		}
		c.finishSpan(sp, err)
		return nil, err
	}
	if sp != nil {
		sp.Parse = time.Since(sp.Start)
	}
	var out Rows
	switch st := e.st.(type) {
	case *sqlparse.Select:
		out, err = c.queryPlanned(st, e.plan, toValues(args), sp, entry)
	case *sqlparse.Explain:
		if st.Analyze {
			out, err = c.explainAnalyzeParsed(st.Select, toValues(args))
		} else {
			out, err = c.explainParsed(st.Select, toValues(args))
		}
	default:
		err = fmt.Errorf("godbc: Query needs a SELECT (or EXPLAIN SELECT) statement")
	}
	if err != nil && !c.quiet {
		mStmtErrors.Inc()
	}
	if !c.quiet {
		mQueryNS.Observe(int64(time.Since(start)))
	}
	c.finishSpan(sp, err)
	return out, err
}

func (c *conn) queryPlanned(sel *sqlparse.Select, plan *sqlexec.Plan, params []reldb.Value, sp *obs.Span, entry *sqlexec.StmtEntry) (Rows, error) {
	opts := c.queryOptions(plan, entry)
	var rs *sqlexec.ResultSet
	if c.tx != nil {
		var err error
		rs, err = sqlexec.QueryOpts(c.tx, sel, params, sp, opts)
		if err != nil {
			return nil, err
		}
	} else {
		err := c.db.Read(func(tx *reldb.Tx) error {
			var err error
			rs, err = sqlexec.QueryOpts(tx, sel, params, sp, opts)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	return newRows(rs), nil
}

// explainParsed runs EXPLAIN SELECT: the plan description, not the data.
func (c *conn) explainParsed(sel *sqlparse.Select, params []reldb.Value) (Rows, error) {
	var rs *sqlexec.ResultSet
	if c.tx != nil {
		var err error
		rs, err = sqlexec.Explain(c.tx, sel, params)
		if err != nil {
			return nil, err
		}
	} else {
		err := c.db.Read(func(tx *reldb.Tx) error {
			var err error
			rs, err = sqlexec.Explain(tx, sel, params)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	return newRows(rs), nil
}

// explainAnalyzeParsed runs EXPLAIN ANALYZE SELECT: the plan, executed and
// annotated with measured phase timings and row counts.
func (c *conn) explainAnalyzeParsed(sel *sqlparse.Select, params []reldb.Value) (Rows, error) {
	opts := c.queryOptions(nil, nil)
	var rs *sqlexec.ResultSet
	if c.tx != nil {
		var err error
		rs, err = sqlexec.ExplainAnalyzeOpts(c.tx, sel, params, opts)
		if err != nil {
			return nil, err
		}
	} else {
		err := c.db.Read(func(tx *reldb.Tx) error {
			var err error
			rs, err = sqlexec.ExplainAnalyzeOpts(tx, sel, params, opts)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	return newRows(rs), nil
}

func (c *conn) Prepare(query string) (Stmt, error) {
	if err := c.check(); err != nil {
		return nil, err
	}
	if !c.quiet {
		mPrepareTotal.Inc()
	}
	sp := c.startSpan("prepare", query, 0)
	e, err := c.parseCached(query)
	if sp != nil {
		sp.Parse = time.Since(sp.Start)
	}
	if err != nil {
		if !c.quiet {
			mStmtErrors.Inc()
		}
		c.finishSpan(sp, err)
		return nil, err
	}
	c.finishSpan(sp, nil)
	return &stmt{c: c, entry: e, src: query}, nil
}

func (c *conn) Begin() error {
	if err := c.check(); err != nil {
		return err
	}
	if c.readonly {
		return fmt.Errorf("godbc: connection is read-only")
	}
	if c.tx != nil {
		return fmt.Errorf("godbc: transaction already open")
	}
	c.tx = c.db.Begin()
	return nil
}

// TryBegin starts a transaction only when the engine's write lock is
// immediately free, reporting ok=false (with no error) when another
// transaction holds it. The telemetry writer uses it to turn lock
// contention into a sampling-governor stall instead of queueing behind the
// workload it measures.
func (c *conn) TryBegin() (bool, error) {
	if err := c.check(); err != nil {
		return false, err
	}
	if c.readonly {
		return false, fmt.Errorf("godbc: connection is read-only")
	}
	if c.tx != nil {
		return false, fmt.Errorf("godbc: transaction already open")
	}
	tx, ok := c.db.TryBegin()
	if !ok {
		return false, nil
	}
	c.tx = tx
	return true, nil
}

func (c *conn) Commit() error {
	if err := c.check(); err != nil {
		return err
	}
	if c.tx == nil {
		return fmt.Errorf("godbc: no open transaction")
	}
	var err error
	if c.relaxed {
		err = c.tx.CommitRelaxed()
	} else {
		err = c.tx.Commit()
	}
	c.tx = nil
	return err
}

func (c *conn) Rollback() error {
	if err := c.check(); err != nil {
		return err
	}
	if c.tx == nil {
		return fmt.Errorf("godbc: no open transaction")
	}
	c.tx.Rollback()
	c.tx = nil
	return nil
}

func (c *conn) MetaData() MetaData { return &metaData{c: c} }

func (c *conn) Close() error {
	if c.closed {
		return nil
	}
	if c.tx != nil {
		c.tx.Rollback()
		c.tx = nil
	}
	c.closed = true
	unregisterConn(c)
	mConnsClosed.Inc()
	if c.release != nil {
		return c.release()
	}
	return nil
}

// stmt is a prepared statement bound to its connection. It shares its
// cache entry — parsed AST plus plan handle — with the connection's
// statement cache, so executions through either path reuse the same plan.
type stmt struct {
	c      *conn
	entry  *cacheEntry
	src    string // original statement text, for spans
	closed bool
}

func (s *stmt) Exec(args ...any) (Result, error) {
	if s.closed {
		return Result{}, fmt.Errorf("godbc: statement is closed")
	}
	if err := s.c.check(); err != nil {
		return Result{}, err
	}
	if !s.c.quiet {
		mExecTotal.Inc()
	}
	entry := sqlexec.Statements.Begin(s.src, "exec")
	defer entry.Finish()
	sp := s.c.startSpan("exec", s.src, len(args))
	res, err := s.c.execParsed(s.entry.st, toValues(args), entry)
	if err != nil && !s.c.quiet {
		mStmtErrors.Inc()
	}
	s.c.finishSpan(sp, err)
	if sp != nil && !s.c.quiet {
		mExecNS.Observe(int64(sp.Total))
	}
	return res, err
}

func (s *stmt) Query(args ...any) (Rows, error) {
	if s.closed {
		return nil, fmt.Errorf("godbc: statement is closed")
	}
	if err := s.c.check(); err != nil {
		return nil, err
	}
	sel, ok := s.entry.st.(*sqlparse.Select)
	if !ok {
		return nil, fmt.Errorf("godbc: Query needs a SELECT statement")
	}
	if !s.c.quiet {
		mQueryTotal.Inc()
	}
	start := time.Now()
	entry := sqlexec.Statements.Begin(s.src, "query")
	defer entry.Finish()
	sp := s.c.startSpan("query", s.src, len(args))
	out, err := s.c.queryPlanned(sel, s.entry.plan, toValues(args), sp, entry)
	if err != nil && !s.c.quiet {
		mStmtErrors.Inc()
	}
	if !s.c.quiet {
		mQueryNS.Observe(int64(time.Since(start)))
	}
	s.c.finishSpan(sp, err)
	return out, err
}

func (s *stmt) Close() error {
	s.closed = true
	return nil
}

// rows is the materialized cursor. Close releases the materialized result
// set (the only resource a fully-buffered cursor holds) and exhausts the
// cursor; it is idempotent, and the column names stay readable afterwards.
type rows struct {
	cols   []string
	data   [][]reldb.Value
	cur    int
	err    error
	closed bool
}

func newRows(rs *sqlexec.ResultSet) *rows {
	return &rows{cols: rs.Cols, data: rs.Rows, cur: -1}
}

func (r *rows) Columns() []string { return r.cols }

func (r *rows) Next() bool {
	if r.closed || r.cur+1 >= len(r.data) {
		return false
	}
	r.cur++
	return true
}

func (r *rows) Value(i int) any {
	if r.cur < 0 || r.cur >= len(r.data) || i < 0 || i >= len(r.data[r.cur]) {
		return nil
	}
	return r.data[r.cur][i].Go()
}

func (r *rows) Err() error { return r.err }

func (r *rows) Close() error {
	r.closed = true
	r.data = nil // release the result set for the GC
	return nil
}

func (r *rows) Scan(dest ...any) error {
	if r.closed {
		return fmt.Errorf("godbc: Scan on closed rows")
	}
	if r.cur < 0 || r.cur >= len(r.data) {
		return fmt.Errorf("godbc: Scan called without Next")
	}
	row := r.data[r.cur]
	if len(dest) != len(row) {
		return fmt.Errorf("godbc: Scan got %d destinations for %d columns", len(dest), len(row))
	}
	for i, d := range dest {
		if err := assign(d, row[i]); err != nil {
			return fmt.Errorf("godbc: column %d (%s): %w", i, r.cols[i], err)
		}
	}
	return nil
}

// assign converts a value into a destination pointer.
func assign(dest any, v reldb.Value) error {
	switch d := dest.(type) {
	case *int64:
		*d = v.AsInt()
	case *int:
		*d = int(v.AsInt())
	case *float64:
		*d = v.AsFloat()
	case *string:
		*d = v.AsString()
	case *bool:
		*d = v.AsBool()
	case *time.Time:
		*d = v.AsTime()
	case *[]byte:
		if v.IsNull() {
			*d = nil
		} else {
			*d = []byte(v.AsString())
		}
	case *any:
		*d = v.Go()
	default:
		return fmt.Errorf("unsupported Scan destination %T", dest)
	}
	return nil
}

// metaData implements schema inspection over a connection.
type metaData struct{ c *conn }

// withRead runs fn in the connection's open transaction when there is one,
// otherwise in a fresh read transaction.
func (m *metaData) withRead(fn func(tx *reldb.Tx) error) error {
	if err := m.c.check(); err != nil {
		return err
	}
	if m.c.tx != nil {
		return fn(m.c.tx)
	}
	return m.c.db.Read(fn)
}

func (m *metaData) Tables() ([]string, error) {
	var names []string
	err := m.withRead(func(tx *reldb.Tx) error {
		names = tx.TableNames()
		return nil
	})
	return names, err
}

func (m *metaData) Columns(table string) ([]ColumnInfo, error) {
	var out []ColumnInfo
	err := m.withRead(func(tx *reldb.Tx) error {
		tbl, err := tx.Table(table)
		if err != nil {
			return err
		}
		s := tbl.Schema()
		for _, col := range s.Columns {
			out = append(out, ColumnInfo{
				Name:          col.Name,
				Type:          col.Type.String(),
				NotNull:       col.NotNull,
				PrimaryKey:    strings.EqualFold(s.PrimaryKey, col.Name),
				AutoIncrement: col.AutoIncrement,
				Default:       col.Default.Go(),
			})
		}
		return nil
	})
	return out, err
}

func (m *metaData) Indexes(table string) ([]IndexInfo, error) {
	var out []IndexInfo
	err := m.withRead(func(tx *reldb.Tx) error {
		tbl, err := tx.Table(table)
		if err != nil {
			return err
		}
		for _, ix := range tbl.Indexes() {
			out = append(out, IndexInfo{
				Name:   ix.Name,
				Column: ix.Column(),
				Kind:   ix.Kind.String(),
				Unique: ix.Unique,
			})
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
		return nil
	})
	return out, err
}
