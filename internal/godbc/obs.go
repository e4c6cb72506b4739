package godbc

import (
	"context"
	"time"

	"perfdmf/internal/obs"
)

// Connectivity-layer metrics, resolved once. The exec counters ride the
// bulk-upload hot path, so with tracing off and no slow-query threshold the
// per-statement cost is a single atomic add.
var (
	mConnsOpened  = obs.Default.Counter("godbc_conns_opened_total")
	mConnsClosed  = obs.Default.Counter("godbc_conns_closed_total")
	mExecTotal    = obs.Default.Counter("godbc_exec_total")
	mQueryTotal   = obs.Default.Counter("godbc_query_total")
	mPrepareTotal = obs.Default.Counter("godbc_prepare_total")
	mStmtErrors   = obs.Default.Counter("godbc_statement_errors_total")
	mQueryNS      = obs.Default.Histogram("godbc_query_ns")
	mExecNS       = obs.Default.Histogram("godbc_exec_ns") // only fed while timing is on
)

// obsOpts carries per-connection observability overrides parsed from DSN
// options (?trace=1&slowms=50). Unset knobs defer to the global obs config,
// so a connection can both enable tracing the process has off and silence a
// global slow-query threshold with slowms=0.
type obsOpts struct {
	traceSet bool
	trace    bool
	slowSet  bool
	slow     time.Duration
}

// tracingOn resolves the connection's effective tracing switch.
func (c *conn) tracingOn() bool {
	if c.obs.traceSet {
		return c.obs.trace
	}
	return obs.TracingEnabled()
}

// slowThreshold resolves the connection's effective slow-query threshold.
func (c *conn) slowThreshold() time.Duration {
	if c.obs.slowSet {
		return c.obs.slow
	}
	return obs.SlowQueryThreshold()
}

// startSpan returns a live span when some consumer (tracer, slow-query log
// or an installed telemetry sink) wants it, nil otherwise. Nil spans keep
// the statement path free of time.Now calls. Quiet connections (the
// telemetry store's own) never produce spans — that is what breaks the
// "sink INSERT traces itself into the sink" loop.
func (c *conn) startSpan(kind, stmt string, nparams int) *obs.Span {
	if c.quiet {
		return nil
	}
	if c.parentSpan == nil && !c.tracingOn() && c.slowThreshold() <= 0 && !obs.SinkActive() {
		return nil
	}
	sp := &obs.Span{ID: obs.NextSpanID(), Kind: kind, Statement: stmt, Params: nparams, Start: time.Now()}
	if p := c.parentSpan; p != nil {
		sp.ParentID = p.ID
		sp.Root = p.Root
	}
	return sp
}

// finish ends one statement's accounting. A failure counts in
// godbc_statement_errors_total unless the connection is quiet; the span, if
// any, is stamped and routed to the tracer, the slow-query log and the
// telemetry sink, honouring the connection's per-DSN trace/slowms
// overrides.
func (c *conn) finish(sp *obs.Span, err error) {
	if err != nil && !c.quiet {
		mStmtErrors.Inc()
	}
	if sp == nil {
		return
	}
	sp.Total = time.Since(sp.Start)
	if err != nil {
		sp.Err = err.Error()
	}
	obs.RouteSpan(sp, c.tracingOn(), c.slowThreshold())
}

// SpanBinder is implemented by connections that can parent their statement
// spans under a framework span carried by a context (see obs.StartSpan).
// It is deliberately not part of the Conn interface: callers type-assert,
// so drivers without span support keep working.
type SpanBinder interface {
	// BindSpanContext makes subsequent statements' spans children of the
	// span carried by ctx. A nil or span-less context clears the binding.
	// Like every other method on a connection, it is not safe for
	// concurrent use with statements on the same connection.
	BindSpanContext(ctx context.Context)
}

// BindSpanContext implements SpanBinder.
func (c *conn) BindSpanContext(ctx context.Context) {
	c.parentSpan = obs.SpanFromContext(ctx)
}
