package sqlexec

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ErrStatementKilled is the base error a cancelled statement's execution
// returns. Callers can match it with errors.Is.
var ErrStatementKilled = errors.New("sqlexec: statement killed")

// cancelCheckRows is how many rows a scan or aggregation loop processes
// between cancellation checks. It is well below the 4096-row scan chunk, so
// a KILL takes effect within one chunk of work.
const cancelCheckRows = 1024

// maxStmtSQL bounds the SQL text kept per registry entry; the catalog is a
// diagnostic surface, not an archive.
const maxStmtSQL = 512

// StmtPhase identifies where in its lifecycle a statement currently is.
type StmtPhase int32

// Statement lifecycle phases, in execution order.
const (
	PhaseParse StmtPhase = iota
	PhasePlan
	PhaseExecute
	PhaseMaterialize
)

// String returns the phase name OBS_ACTIVE_STATEMENTS reports.
func (p StmtPhase) String() string {
	switch p {
	case PhaseParse:
		return "parse"
	case PhasePlan:
		return "plan"
	case PhaseExecute:
		return "execute"
	case PhaseMaterialize:
		return "materialize"
	}
	return "unknown"
}

// StmtEntry is one live statement's accounting record. The driving
// connection creates it with StmtRegistry.Begin, the executor updates the
// counters as it runs, and Finish retires it. Cancellation is context-based:
// Kill cancels the entry's context, and every scan/aggregate loop polls it
// between row batches.
type StmtEntry struct {
	id    int64
	sql   string
	kind  string
	start time.Time

	phase        atomic.Int32
	rowsScanned  atomic.Int64
	rowsReturned atomic.Int64
	workers      atomic.Int32
	killed       atomic.Bool

	ctx    context.Context
	cancel context.CancelFunc
	reg    *StmtRegistry
}

// ID returns the registry-assigned statement id — the value KILL takes.
func (e *StmtEntry) ID() int64 { return e.id }

// Context returns the statement's cancellation context. It is done once the
// statement has been killed or finished.
func (e *StmtEntry) Context() context.Context { return e.ctx }

// SetPhase records the statement's current lifecycle phase.
func (e *StmtEntry) SetPhase(p StmtPhase) {
	if e != nil {
		e.phase.Store(int32(p))
	}
}

// Err returns a wrapped ErrStatementKilled once the statement's context has
// been cancelled, nil otherwise. A nil entry never errors, so execution
// paths call it unconditionally.
func (e *StmtEntry) Err() error {
	if e == nil || e.ctx.Err() == nil {
		return nil
	}
	return fmt.Errorf("%w (statement %d)", ErrStatementKilled, e.id)
}

// Finish retires the entry: it leaves the registry and its context is
// released. Safe on a nil entry and idempotent.
func (e *StmtEntry) Finish() {
	if e == nil {
		return
	}
	e.cancel()
	r := e.reg
	r.mu.Lock()
	delete(r.entries, e.id)
	mStmtActive.Set(int64(len(r.entries)))
	r.mu.Unlock()
}

// StmtInfo is a point-in-time copy of one statement's accounting: one
// OBS_ACTIVE_STATEMENTS row, its JSON keys the table's column names.
type StmtInfo struct {
	ID           int64  `json:"statement_id"`
	SQL          string `json:"sql"`
	Kind         string `json:"kind"`
	Phase        string `json:"phase"`
	ElapsedUS    int64  `json:"elapsed_us"`
	RowsScanned  int64  `json:"rows_scanned"`
	RowsReturned int64  `json:"rows_returned"`
	Workers      int    `json:"workers"`
	Killed       bool   `json:"killed"`
}

// StmtRegistry tracks every statement currently executing in the process.
// godbc registers statements as connections run them; the executor threads
// the entry through Options so scans can account rows and observe kills.
type StmtRegistry struct {
	mu      sync.Mutex
	nextID  int64
	entries map[int64]*StmtEntry
}

// Statements is the process-wide registry backing OBS_ACTIVE_STATEMENTS
// and KILL.
var Statements = &StmtRegistry{entries: make(map[int64]*StmtEntry)}

// Begin registers a new statement and returns its accounting entry. sql is
// truncated to a diagnostic-sized prefix; kind is "query" or "exec".
func (r *StmtRegistry) Begin(sql, kind string) *StmtEntry {
	if len(sql) > maxStmtSQL {
		sql = sql[:maxStmtSQL]
	}
	ctx, cancel := context.WithCancel(context.Background())
	e := &StmtEntry{sql: sql, kind: kind, start: now(), ctx: ctx, cancel: cancel, reg: r}
	mStmtStarted.Inc()
	r.mu.Lock()
	r.nextID++
	e.id = r.nextID
	r.entries[e.id] = e
	mStmtActive.Set(int64(len(r.entries)))
	r.mu.Unlock()
	return e
}

// Kill cancels the statement with the given id. It reports whether a live
// statement was found; the statement itself unwinds at its next
// cancellation check and returns ErrStatementKilled.
func (r *StmtRegistry) Kill(id int64) bool {
	r.mu.Lock()
	e := r.entries[id]
	r.mu.Unlock()
	if e == nil {
		return false
	}
	e.killed.Store(true)
	e.cancel()
	mStmtKilled.Inc()
	return true
}

// Snapshot returns the live statements sorted by id.
func (r *StmtRegistry) Snapshot() []StmtInfo {
	r.mu.Lock()
	ids := make([]int64, 0, len(r.entries))
	for id := range r.entries {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	entries := make([]*StmtEntry, len(ids))
	for i, id := range ids {
		entries[i] = r.entries[id]
	}
	r.mu.Unlock()
	out := make([]StmtInfo, len(entries))
	for i, e := range entries {
		out[i] = StmtInfo{
			ID:           e.id,
			SQL:          e.sql,
			Kind:         e.kind,
			Phase:        StmtPhase(e.phase.Load()).String(),
			ElapsedUS:    since(e.start).Microseconds(),
			RowsScanned:  e.rowsScanned.Load(),
			RowsReturned: e.rowsReturned.Load(),
			Workers:      int(e.workers.Load()),
			Killed:       e.killed.Load(),
		}
	}
	return out
}
