package main

// Per-layer measurement from outside the program. The benchmark times its
// own calls into formats, core, analysis and mining; wraps every session
// connection in a timing decorator (core.NewSession accepts any
// godbc.Conn); takes before/after deltas of the engine's obs.Default
// counters; and splits statement time into parse/plan/execute/materialize
// from the engine's own statement spans, collected by an in-memory
// telemetry sink with no sampling governor.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"perfdmf/internal/godbc"
	"perfdmf/internal/obs"
)

// Engine histograms read around Begin/Commit to split a transaction's
// reldb time (write-lock wait, WAL append and fsync) from the statements
// that ran inside it.
var (
	hLockWait  = obs.Default.Histogram("reldb_lock_wait_ns")
	hWALAppend = obs.Default.Histogram("reldb_wal_append_ns")
)

func reldbNS() int64 { return hLockWait.Sum() + hWALAppend.Sum() }

// connTimes accumulates the time spent inside one decorated connection.
// A connection belongs to one goroutine, so plain fields suffice; they are
// read by that goroutine or after it has been joined.
type connTimes struct {
	exec, query, prepare, tx, rows      time.Duration
	execCalls, queryCalls, prepareCalls int64
	txReldb                             time.Duration // reldb time inside Begin/Commit/Rollback
}

// total is every decorated call's time: statements, transactions and
// cursor reads.
func (t *connTimes) total() time.Duration {
	return t.exec + t.query + t.prepare + t.tx + t.rows
}

// stmts counts statement executions (prepared or not).
func (t *connTimes) stmts() int64 { return t.execCalls + t.queryCalls }

func (t *connTimes) add(o *connTimes) {
	t.exec += o.exec
	t.query += o.query
	t.prepare += o.prepare
	t.tx += o.tx
	t.rows += o.rows
	t.execCalls += o.execCalls
	t.queryCalls += o.queryCalls
	t.prepareCalls += o.prepareCalls
	t.txReldb += o.txReldb
}

// timedConn is the timing decorator. While on is false it only forwards,
// so untraced runs and the traced run's calibration half pay one extra
// interface call per statement. on is flipped only while no worker
// goroutine is running.
type timedConn struct {
	godbc.Conn
	on bool
	t  connTimes
}

var (
	connsMu  sync.Mutex
	allConns []*timedConn
	closedT  connTimes // totals of decorated connections closed since setTiming
)

// wrapConn decorates c and registers it for setTiming and collectConns.
func wrapConn(c godbc.Conn) *timedConn {
	tc := &timedConn{Conn: c}
	connsMu.Lock()
	allConns = append(allConns, tc)
	connsMu.Unlock()
	return tc
}

// Close closes the connection and drops it from the registry, so closed
// archives can be collected; its totals are kept for collectConns.
func (c *timedConn) Close() error {
	connsMu.Lock()
	closedT.add(&c.t)
	for i, o := range allConns {
		if o == c {
			allConns = append(allConns[:i], allConns[i+1:]...)
			break
		}
	}
	connsMu.Unlock()
	return c.Conn.Close()
}

// setTiming switches every decorated connection's timing on or off and
// zeroes its totals. Callers must have joined every worker goroutine.
func setTiming(on bool) {
	connsMu.Lock()
	defer connsMu.Unlock()
	for _, c := range allConns {
		c.on = on
		c.t = connTimes{}
	}
	closedT = connTimes{}
}

// collectConns sums every decorated connection's totals, closed ones
// included.
func collectConns() connTimes {
	connsMu.Lock()
	defer connsMu.Unlock()
	sum := closedT
	for _, c := range allConns {
		sum.add(&c.t)
	}
	return sum
}

func (c *timedConn) Exec(q string, args ...any) (godbc.Result, error) {
	if !c.on {
		return c.Conn.Exec(q, args...)
	}
	t0 := time.Now()
	r, err := c.Conn.Exec(q, args...)
	c.t.exec += time.Since(t0)
	c.t.execCalls++
	return r, err
}

func (c *timedConn) Query(q string, args ...any) (godbc.Rows, error) {
	if !c.on {
		return c.Conn.Query(q, args...)
	}
	t0 := time.Now()
	rs, err := c.Conn.Query(q, args...)
	c.t.query += time.Since(t0)
	c.t.queryCalls++
	if err != nil {
		return nil, err
	}
	return &timedRows{Rows: rs, t: &c.t}, nil
}

func (c *timedConn) Prepare(q string) (godbc.Stmt, error) {
	if !c.on {
		return c.Conn.Prepare(q)
	}
	t0 := time.Now()
	st, err := c.Conn.Prepare(q)
	c.t.prepare += time.Since(t0)
	c.t.prepareCalls++
	if err != nil {
		return nil, err
	}
	return &timedStmt{Stmt: st, c: c}, nil
}

// txCall times a transaction-control call and the reldb work inside it.
func (c *timedConn) txCall(fn func() error) error {
	if !c.on {
		return fn()
	}
	r0 := reldbNS()
	t0 := time.Now()
	err := fn()
	c.t.tx += time.Since(t0)
	c.t.txReldb += time.Duration(reldbNS() - r0)
	return err
}

func (c *timedConn) Begin() error    { return c.txCall(c.Conn.Begin) }
func (c *timedConn) Commit() error   { return c.txCall(c.Conn.Commit) }
func (c *timedConn) Rollback() error { return c.txCall(c.Conn.Rollback) }

// BindSpanContext forwards span parenting so core's upload and download
// spans keep their statement children.
func (c *timedConn) BindSpanContext(ctx context.Context) {
	if b, ok := c.Conn.(godbc.SpanBinder); ok {
		b.BindSpanContext(ctx)
	}
}

// timedStmt times prepared executions into its connection's totals. It is
// only created while timing is on.
type timedStmt struct {
	godbc.Stmt
	c *timedConn
}

func (s *timedStmt) Exec(args ...any) (godbc.Result, error) {
	if !s.c.on {
		return s.Stmt.Exec(args...)
	}
	t0 := time.Now()
	r, err := s.Stmt.Exec(args...)
	s.c.t.exec += time.Since(t0)
	s.c.t.execCalls++
	return r, err
}

func (s *timedStmt) Query(args ...any) (godbc.Rows, error) {
	if !s.c.on {
		return s.Stmt.Query(args...)
	}
	t0 := time.Now()
	rs, err := s.Stmt.Query(args...)
	s.c.t.query += time.Since(t0)
	s.c.t.queryCalls++
	if err != nil {
		return nil, err
	}
	return &timedRows{Rows: rs, t: &s.c.t}, nil
}

// timedRows times cursor reads: Next/Scan/Value convert the materialized
// result into Go values.
type timedRows struct {
	godbc.Rows
	t *connTimes
}

func (r *timedRows) Next() bool {
	t0 := time.Now()
	ok := r.Rows.Next()
	r.t.rows += time.Since(t0)
	return ok
}

func (r *timedRows) Scan(dest ...any) error {
	t0 := time.Now()
	err := r.Rows.Scan(dest...)
	r.t.rows += time.Since(t0)
	return err
}

func (r *timedRows) Value(i int) any {
	t0 := time.Now()
	v := r.Rows.Value(i)
	r.t.rows += time.Since(t0)
	return v
}

// layerTimes is one worker's framework-layer accounting: whole call
// time, self time (call time minus the decorated godbc time inside it),
// calls, and statements issued inside the calls.
type layerTimes struct {
	total map[string]time.Duration
	self  map[string]time.Duration
	calls map[string]int64
	stmts map[string]int64
}

func newLayerTimes() *layerTimes {
	return &layerTimes{
		total: make(map[string]time.Duration),
		self:  make(map[string]time.Duration),
		calls: make(map[string]int64),
		stmts: make(map[string]int64),
	}
}

// charge records one call of d into layer name, g of it inside godbc.
func (l *layerTimes) charge(name string, d, g time.Duration, stmts int64) {
	l.total[name] += d
	l.self[name] += d - g
	l.calls[name]++
	l.stmts[name] += stmts
}

func (l *layerTimes) add(o *layerTimes) {
	for k, v := range o.total {
		l.total[k] += v
	}
	for k, v := range o.self {
		l.self[k] += v
	}
	for k, v := range o.calls {
		l.calls[k] += v
	}
	for k, v := range o.stmts {
		l.stmts[k] += v
	}
}

// checkSpan roots the statement spans of check connections, so the trace
// can leave the checker's own statements out of the layer totals.
func checkContext() context.Context {
	return obs.ContextWithSpan(context.Background(),
		&obs.Span{ID: obs.NextSpanID(), Kind: "bench", Name: "check", Root: "check"})
}

// spanStore is the in-memory telemetry sink's storage: it keeps every
// span until the run ends.
type spanStore struct {
	mu    sync.Mutex
	spans []*obs.Span
}

func (s *spanStore) store(batch []obs.SinkEntry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range batch {
		s.spans = append(s.spans, e.Span)
	}
	return nil
}

// tracer brackets the traced window: statement tracing on, spans into the
// in-memory sink, engine counters and Go runtime stats snapshotted.
type tracer struct {
	store   *spanStore
	sink    *obs.TelemetrySink
	before  obs.Snapshot
	mem0    runtime.MemStats
	dropped int64
}

func startTrace() *tracer {
	t := &tracer{store: &spanStore{}}
	// Capacity covers several hundred milliseconds of the busiest upload
	// stream between 10ms flushes; anything dropped is reported.
	t.sink = obs.NewTelemetrySink(t.store.store, obs.SinkOptions{Capacity: 1 << 16, FlushEvery: 10 * time.Millisecond})
	t.dropped = obs.Default.Counter("obs_telemetry_dropped_total").Value()
	runtime.ReadMemStats(&t.mem0)
	t.before = obs.Default.Snapshot()
	setTiming(true)
	t.sink.Start()
	obs.InstallSink(t.sink)
	obs.Apply(obs.Config{Trace: true})
	return t
}

// traceResult is everything the traced window measured.
type traceResult struct {
	spans   []*obs.Span
	delta   obs.Snapshot // counters and histogram sums, after − before
	conns   connTimes
	gcPause time.Duration
	alloc   uint64
	dropped int64
}

func (t *tracer) stop() (*traceResult, error) {
	obs.Apply(obs.Config{})
	obs.UninstallSink()
	if err := t.sink.Close(); err != nil {
		return nil, fmt.Errorf("flush spans: %w", err)
	}
	after := obs.Default.Snapshot()
	var mem1 runtime.MemStats
	runtime.ReadMemStats(&mem1)
	res := &traceResult{
		spans:   t.store.spans,
		delta:   obs.Snapshot{Counters: map[string]int64{}, Histograms: map[string]obs.HistSnapshot{}},
		conns:   collectConns(),
		gcPause: time.Duration(mem1.PauseTotalNs - t.mem0.PauseTotalNs),
		alloc:   mem1.TotalAlloc - t.mem0.TotalAlloc,
		dropped: obs.Default.Counter("obs_telemetry_dropped_total").Value() - t.dropped,
	}
	setTiming(false)
	for k, v := range after.Counters {
		res.delta.Counters[k] = v - t.before.Counters[k]
	}
	for k, h := range after.Histograms {
		b := t.before.Histograms[k]
		res.delta.Histograms[k] = obs.HistSnapshot{Count: h.Count - b.Count, Sum: h.Sum - b.Sum}
	}
	return res, nil
}

// writeSpans dumps the traced window's spans as JSON lines.
func writeSpans(path string, spans []*obs.Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
