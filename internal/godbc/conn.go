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
	connOptions // the parsed DSN: readonly, obs, workers, columnar, ...
	db          *reldb.DB
	id          int64     // registry id, assigned at open (see admin.go)
	tx          *reldb.Tx // open explicit transaction, or nil
	closed      bool
	quiet       bool // never count, trace or register statements (the
	// telemetry store's connection, so its INSERTs cannot trace themselves
	// back into the sink, and QueryCatalog's)
	relaxed bool // commit with relaxed durability (batched WAL fsync);
	// only the telemetry writer sets this — span batches must not pay, or
	// charge the workload, one fsync per group commit
	release func() error // driver-specific close hook
	cache   *stmtCache   // per-connection statement/plan cache

	// parentSpan is the framework span statement spans are parented under,
	// set via BindSpanContext. Connections are single-goroutine, so the
	// field needs no synchronisation.
	parentSpan *obs.Span
}

func newConn(db *reldb.DB, o connOptions, release func() error) *conn {
	mConnsOpened.Inc()
	c := &conn{connOptions: o, db: db, release: release, cache: newStmtCache()}
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

// read runs fn in the connection's open transaction when there is one,
// otherwise in a fresh read transaction.
func (c *conn) read(fn func(tx *reldb.Tx) error) error {
	if err := c.check(); err != nil {
		return err
	}
	if c.tx != nil {
		return fn(c.tx)
	}
	return c.db.Read(fn)
}

// write runs fn in the connection's open transaction when there is one,
// otherwise in a fresh write transaction committed when fn succeeds.
func (c *conn) write(fn func(tx *reldb.Tx) error) error {
	if c.tx != nil {
		return fn(c.tx)
	}
	return c.db.Write(fn)
}

// options is the executor configuration for one statement: the DSN's
// workers and columnar settings, the statement's reusable plan and its
// live registry entry.
func (c *conn) options(plan *sqlexec.Plan, entry *sqlexec.StmtEntry) sqlexec.Options {
	return sqlexec.Options{Workers: c.workers, Plan: plan, Stmt: entry, NoColumnar: !c.columnar}
}

// parsed returns e, the prepared parse of src, or when e is nil the cached
// parse of src, timing the parse into sp.
func (c *conn) parsed(src string, e *cacheEntry, sp *obs.Span) (*cacheEntry, error) {
	if e != nil {
		return e, nil
	}
	e, err := c.parseCached(src)
	if sp != nil {
		sp.Parse = time.Since(sp.Start)
	}
	return e, err
}

func (c *conn) Exec(query string, args ...any) (Result, error) {
	return c.exec(query, nil, args)
}

// exec is the one DDL/DML path, behind both Conn.Exec and Stmt.Exec. src
// is the statement text and e its prepared parse, or nil when src is still
// to be parsed.
func (c *conn) exec(src string, e *cacheEntry, args []any) (Result, error) {
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
	entry := c.register(src, "exec")
	defer entry.Finish()
	sp := c.startSpan("exec", src, len(args))
	e, err := c.parsed(src, e, sp)
	var res sqlexec.Result
	if err == nil {
		res, err = c.execParsed(e.st, toValues(args), entry)
	}
	c.finish(sp, err)
	if sp != nil {
		mExecNS.Observe(int64(sp.Total))
	}
	if err != nil {
		return Result{}, err
	}
	return Result(res), nil
}

// register enters a statement into the live statement registry behind
// OBS_ACTIVE_STATEMENTS and KILL. A quiet connection's statements stay out
// (nil entry): they observe the engine and must not appear in what they
// observe.
func (c *conn) register(src, kind string) *sqlexec.StmtEntry {
	if c.quiet {
		return nil
	}
	return sqlexec.Statements.Begin(src, kind)
}

func (c *conn) execParsed(st sqlparse.Statement, params []reldb.Value, entry *sqlexec.StmtEntry) (sqlexec.Result, error) {
	switch s := st.(type) {
	case *sqlparse.Begin:
		return sqlexec.Result{}, c.Begin()
	case *sqlparse.Commit:
		return sqlexec.Result{}, c.Commit()
	case *sqlparse.Rollback:
		return sqlexec.Result{}, c.Rollback()
	case *sqlparse.Kill:
		// KILL mutates no data, so it works on read-only connections and
		// needs no transaction.
		entry.SetPhase(sqlexec.PhaseExecute)
		return sqlexec.ExecOpts(nil, s, params, sqlexec.Options{})
	case *sqlparse.Select, *sqlparse.Explain:
		return sqlexec.Result{}, fmt.Errorf("godbc: use Query for SELECT")
	}
	if c.readonly {
		return sqlexec.Result{}, fmt.Errorf("godbc: connection is read-only")
	}
	entry.SetPhase(sqlexec.PhaseExecute)
	opts := c.options(nil, entry)
	var res sqlexec.Result
	err := c.write(func(tx *reldb.Tx) (err error) {
		res, err = sqlexec.ExecOpts(tx, st, params, opts)
		return err
	})
	return res, err
}

func (c *conn) Query(query string, args ...any) (Rows, error) {
	return c.query(query, nil, args)
}

// query is the one read path, behind both Conn.Query and Stmt.Query, for
// SELECT, EXPLAIN and EXPLAIN ANALYZE alike. src and e are as for exec.
func (c *conn) query(src string, e *cacheEntry, args []any) (Rows, error) {
	if err := c.check(); err != nil {
		return nil, err
	}
	if !c.quiet {
		mQueryTotal.Inc()
	}
	start := time.Now()
	entry := c.register(src, "query")
	defer entry.Finish()
	sp := c.startSpan("query", src, len(args))
	e, err := c.parsed(src, e, sp)
	var rs *sqlexec.ResultSet
	if err == nil {
		rs, err = c.queryParsed(e, toValues(args), sp, entry)
	}
	if !c.quiet {
		mQueryNS.Observe(int64(time.Since(start)))
	}
	c.finish(sp, err)
	if err != nil {
		return nil, err
	}
	return newRows(rs), nil
}

// queryParsed runs a SELECT, or for EXPLAIN describes its plan and for
// EXPLAIN ANALYZE also executes it, under the statement's registry entry so
// that each can be watched and killed.
func (c *conn) queryParsed(e *cacheEntry, params []reldb.Value, sp *obs.Span, entry *sqlexec.StmtEntry) (*sqlexec.ResultSet, error) {
	sel, _ := e.st.(*sqlparse.Select)
	x, _ := e.st.(*sqlparse.Explain)
	if x != nil {
		sel = x.Select
	}
	if sel == nil {
		return nil, fmt.Errorf("godbc: Query needs a SELECT (or EXPLAIN SELECT) statement")
	}
	opts := c.options(e.plan, entry)
	var rs *sqlexec.ResultSet
	err := c.read(func(tx *reldb.Tx) (err error) {
		switch {
		case x == nil:
			rs, err = sqlexec.QueryOpts(tx, sel, params, sp, opts)
		case x.Analyze:
			rs, err = sqlexec.ExplainAnalyzeOpts(tx, sel, params, opts)
		default:
			rs, err = sqlexec.Explain(tx, sel, params)
		}
		return err
	})
	return rs, err
}

func (c *conn) Prepare(query string) (Stmt, error) {
	if err := c.check(); err != nil {
		return nil, err
	}
	if !c.quiet {
		mPrepareTotal.Inc()
	}
	sp := c.startSpan("prepare", query, 0)
	e, err := c.parsed(query, nil, sp)
	c.finish(sp, err)
	if err != nil {
		return nil, err
	}
	return &stmt{c: c, entry: e, src: query}, nil
}

// canBegin reports why a transaction cannot start on the connection, if
// it cannot.
func (c *conn) canBegin() error {
	if err := c.check(); err != nil {
		return err
	}
	if c.readonly {
		return fmt.Errorf("godbc: connection is read-only")
	}
	if c.tx != nil {
		return fmt.Errorf("godbc: transaction already open")
	}
	return nil
}

func (c *conn) Begin() error {
	if err := c.canBegin(); err != nil {
		return err
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
	if err := c.canBegin(); err != nil {
		return false, err
	}
	tx, ok := c.db.TryBegin()
	c.tx = tx
	return ok, nil
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
	if c.id != 0 { // QueryCatalog's connections are never registered
		unregisterConn(c)
		mConnsClosed.Inc()
	}
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
	return s.c.exec(s.src, s.entry, args)
}

func (s *stmt) Query(args ...any) (Rows, error) {
	if s.closed {
		return nil, fmt.Errorf("godbc: statement is closed")
	}
	return s.c.query(s.src, s.entry, args)
}

func (s *stmt) Close() error {
	s.closed = true
	return nil
}

// rows is the one cursor. It reads a result set in either form
// (sqlexec.ResultSet): projected records, or references to the source rows
// plus column ordinals, projected as Scan reads them. It holds no lock or
// transaction: a result's source rows are immutable once published, so
// writers run while it is open and the rows it returns are the ones the
// statement saw. Close releases the result set and exhausts the cursor;
// it is idempotent, and the column names stay readable afterwards.
type rows struct {
	cols   []string
	rs     *sqlexec.ResultSet
	n      int // rows in rs
	cur    int
	err    error
	closed bool
}

func newRows(rs *sqlexec.ResultSet) *rows {
	return &rows{cols: rs.Cols, rs: rs, n: rs.Len(), cur: -1}
}

func (r *rows) Columns() []string { return r.cols }

func (r *rows) Next() bool {
	if r.closed || r.cur+1 >= r.n {
		return false
	}
	r.cur++
	return true
}

func (r *rows) Value(i int) any {
	if r.closed || r.cur < 0 || r.cur >= r.n || i < 0 || i >= len(r.cols) {
		return nil
	}
	return r.rs.At(r.cur, i).Go()
}

func (r *rows) Err() error { return r.err }

func (r *rows) Close() error {
	r.closed = true
	r.rs = nil // release the result set for the GC
	return nil
}

func (r *rows) Scan(dest ...any) error {
	if r.closed {
		return fmt.Errorf("godbc: Scan on closed rows")
	}
	if r.cur < 0 || r.cur >= r.n {
		return fmt.Errorf("godbc: Scan called without Next")
	}
	if len(dest) != len(r.cols) {
		return fmt.Errorf("godbc: Scan got %d destinations for %d columns", len(dest), len(r.cols))
	}
	for i, d := range dest {
		if err := assign(d, r.rs.At(r.cur, i)); err != nil {
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

func (m *metaData) Tables() ([]string, error) {
	var names []string
	err := m.c.read(func(tx *reldb.Tx) error {
		names = tx.TableNames()
		return nil
	})
	return names, err
}

func (m *metaData) Columns(table string) ([]ColumnInfo, error) {
	var out []ColumnInfo
	err := m.c.read(func(tx *reldb.Tx) error {
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
	err := m.c.read(func(tx *reldb.Tx) error {
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
