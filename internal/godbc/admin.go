package godbc

import (
	"sort"
	"sync"
	"sync/atomic"

	"perfdmf/internal/reldb"
	"perfdmf/internal/sqlexec"
)

// The live-connection registry: every open conn (monitoring connections
// aside) is tracked by id so the introspection catalog (OBS_PLAN_CACHE) can
// enumerate per-connection state without the connections' cooperation.
var (
	connRegMu sync.Mutex
	connReg   = make(map[int64]*conn)
	connIDs   atomic.Int64
)

func registerConn(c *conn) {
	c.id = connIDs.Add(1)
	connRegMu.Lock()
	connReg[c.id] = c
	connRegMu.Unlock()
}

func unregisterConn(c *conn) {
	connRegMu.Lock()
	delete(connReg, c.id)
	connRegMu.Unlock()
}

// monitorDB is the engine QueryCatalog's connections bind to. It stays empty:
// the live OBS_* tables snapshot process state, not stored rows.
var monitorDB = reldb.NewMemory()

// QueryCatalog runs query — a SELECT over the live OBS_* catalog — and
// returns its rows as maps keyed by column name, an empty non-nil slice
// for no rows. It is the one read path monitoring surfaces (the HTTP
// endpoints, CLI summaries) take to live engine state, and it never shows
// up in what it monitors: each call runs on a fresh quiet, read-only
// connection, closed before it returns, whose statements move no godbc_*
// or plan-cache counters, emit no spans and are not listed in
// OBS_ACTIVE_STATEMENTS, and which stays out of the live-connection
// registry (so out of OBS_PLAN_CACHE). Its database is empty, so stored
// tables, OBS_ALERTS and OBS_TABLE_STATS read as empty. Safe for
// concurrent use.
func QueryCatalog(query string) ([]map[string]any, error) {
	c := &conn{connOptions: connOptions{readonly: true, columnar: true}, db: monitorDB,
		quiet: true, cache: newStmtCache()}
	defer c.Close()
	rows, err := c.Query(query)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	cols := rows.Columns()
	out := []map[string]any{}
	for rows.Next() {
		obj := make(map[string]any, len(cols))
		for i, col := range cols {
			obj[col] = rows.Value(i)
		}
		out = append(out, obj)
	}
	return out, rows.Err()
}

// planCacheCols are OBS_PLAN_CACHE's columns.
var planCacheCols = []string{"conn_id", "entries", "capacity", "hits", "misses",
	"columnar_hits", "schema_version"}

// planCacheRows is OBS_PLAN_CACHE: one row per live connection's statement
// cache, sorted by connection id, with the process-wide schema version DDL
// staleness is judged against. columnar_hits counts executions of cached
// plans that took the vectorized aggregation path.
func planCacheRows(*reldb.Tx) ([]reldb.Row, error) {
	connRegMu.Lock()
	conns := make([]*conn, 0, len(connReg))
	for _, c := range connReg {
		conns = append(conns, c)
	}
	connRegMu.Unlock()
	sort.Slice(conns, func(i, j int) bool { return conns[i].id < conns[j].id })
	sv := reldb.Int(reldb.CurrentSchemaVersion())
	rows := make([]reldb.Row, len(conns))
	for i, c := range conns {
		entries, hits, misses := c.cache.snapshot()
		rows[i] = reldb.Row{reldb.Int(c.id), reldb.Int(int64(entries)), reldb.Int(stmtCacheMax),
			reldb.Int(hits), reldb.Int(misses), reldb.Int(c.cache.columnarHits()), sv}
	}
	return rows, nil
}

func init() {
	sqlexec.RegisterCatalog("OBS_PLAN_CACHE", planCacheCols, planCacheRows)
	sqlexec.RegisterCatalog("OBS_TELEMETRY", telemetryCols, telemetryRows)
	sqlexec.RegisterCatalog("OBS_ALERT_STATES", alertStateCols, alertStateRows)
}

// KillStatement cancels the running statement with the given id: the
// DELETE-style admin entry point (the /statements endpoint and `perfdmf
// top -kill` use it; `KILL <id>` is the SQL spelling). It reports whether
// a live statement was found; the statement unwinds at its next
// cancellation check with sqlexec.ErrStatementKilled.
func KillStatement(id int64) bool {
	return sqlexec.Statements.Kill(id)
}
