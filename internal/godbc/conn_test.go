package godbc

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"perfdmf/internal/obs"
	"perfdmf/internal/reldb"
	"perfdmf/internal/sqlexec"
)

// stmtRun is one statement driven through Exec (query=false) or Query.
type stmtRun struct {
	query bool
	sql   string
	args  []any
}

// runBoth executes each statement through the connection's own Exec/Query
// (prepared=false) or through Prepare + Stmt.Exec/Stmt.Query, and returns
// the rows each returned and the error text of each that failed.
func runBoth(t *testing.T, c Conn, prepared bool, runs []stmtRun) []string {
	t.Helper()
	stmts := make([]Stmt, len(runs))
	if prepared {
		for i, r := range runs {
			s, err := c.Prepare(r.sql)
			if err != nil {
				t.Fatalf("Prepare(%q): %v", r.sql, err)
			}
			stmts[i] = s
		}
	}
	var out []string
	for i, r := range runs {
		var rows Rows
		var err error
		switch {
		case !r.query && prepared:
			_, err = stmts[i].Exec(r.args...)
		case !r.query:
			_, err = c.Exec(r.sql, r.args...)
		case prepared:
			rows, err = stmts[i].Query(r.args...)
		default:
			rows, err = c.Query(r.sql, r.args...)
		}
		if err != nil {
			out = append(out, "error: "+err.Error())
			continue
		}
		for rows != nil && rows.Next() {
			out = append(out, fmt.Sprint(rows.Value(0)))
		}
	}
	return out
}

// accounting is what one pass of runBoth leaves in the statement counters
// and the tracer.
type accounting struct {
	exec, query, errs, prepare int64
	spans                      []string // kind, rows returned, failed
}

func account(t *testing.T, c Conn, prepared bool, runs []stmtRun) (accounting, []string) {
	t.Helper()
	obs.DefaultTracer.Reset()
	e0, q0, x0, p0 := counter("godbc_exec_total"), counter("godbc_query_total"),
		counter("godbc_statement_errors_total"), counter("godbc_prepare_total")
	out := runBoth(t, c, prepared, runs)
	a := accounting{
		exec:    counter("godbc_exec_total") - e0,
		query:   counter("godbc_query_total") - q0,
		errs:    counter("godbc_statement_errors_total") - x0,
		prepare: counter("godbc_prepare_total") - p0,
	}
	for _, sp := range obs.DefaultTracer.Recent() {
		if sp.Kind != "prepare" {
			a.spans = append(a.spans, fmt.Sprintf("%s rows=%d failed=%v", sp.Kind, sp.RowsReturned, sp.Err != ""))
		}
	}
	return a, out
}

// TestConnAndStmtAccountAlike runs an INSERT, a SELECT, a failing statement
// and an EXPLAIN through Conn.Exec/Query and through Stmt.Exec/Query: both
// entry points must move the statement counters alike, register the same
// statement kinds, and emit the same spans. On a quiet connection neither
// moves a counter or emits a span.
func TestConnAndStmtAccountAlike(t *testing.T) {
	dsn := freshMem(t)
	c := openT(t, dsn+"?trace=1")
	mustExec(t, c, "CREATE TABLE acct (id BIGINT PRIMARY KEY, kind VARCHAR)")
	// The INSERT and the SELECT read their own registry entry's kind.
	const ins = "INSERT INTO acct (id, kind) VALUES (?, (SELECT kind FROM OBS_ACTIVE_STATEMENTS WHERE sql = ?))"
	const sel = "SELECT kind FROM OBS_ACTIVE_STATEMENTS WHERE sql = ?"
	runs := func(id int) []stmtRun {
		return []stmtRun{
			{false, ins, []any{id, ins}},
			{true, sel, []any{sel}},
			{false, "INSERT INTO nosuch (id) VALUES (?)", []any{id}},
			{true, "SELECT id FROM nosuch", nil},
			{true, "EXPLAIN SELECT kind FROM acct WHERE id = ?", []any{id}},
		}
	}
	viaConn, outConn := account(t, c, false, runs(1))
	viaStmt, outStmt := account(t, c, true, runs(2))
	if viaStmt.prepare != 5 || viaConn.prepare != 0 {
		t.Fatalf("prepare counts conn=%d stmt=%d, want 0 and 5", viaConn.prepare, viaStmt.prepare)
	}
	viaStmt.prepare = 0
	want := accounting{exec: 2, query: 3, errs: 2, spans: []string{
		"exec rows=0 failed=false", "query rows=1 failed=false", "exec rows=0 failed=true",
		"query rows=0 failed=true", "query rows=0 failed=false",
	}}
	if !reflect.DeepEqual(viaConn, want) {
		t.Errorf("Conn accounting = %+v, want %+v", viaConn, want)
	}
	if !reflect.DeepEqual(viaStmt, viaConn) {
		t.Errorf("Stmt accounting = %+v, Conn accounting = %+v", viaStmt, viaConn)
	}
	if !reflect.DeepEqual(outStmt, outConn) {
		t.Errorf("Stmt results = %q, Conn results = %q", outStmt, outConn)
	}
	_, kinds := queryAll(t, c, "SELECT kind FROM acct ORDER BY id")
	if fmt.Sprint(kinds) != "[[exec] [exec]]" || outConn[0] != "query" {
		t.Errorf("registry kinds: INSERTs %v, SELECT %q; want exec and query", kinds, outConn[0])
	}

	q := openT(t, dsn+"?trace=1")
	q.(*conn).quiet = true
	for i, prepared := range []bool{false, true} {
		a, _ := account(t, q, prepared, runs(3+i))
		if !reflect.DeepEqual(a, accounting{}) {
			t.Errorf("quiet connection (prepared=%v) accounted %+v", prepared, a)
		}
	}
}

// TestPreparedExplain: a prepared EXPLAIN or EXPLAIN ANALYZE runs like the
// same text through Conn.Query.
func TestPreparedExplain(t *testing.T) {
	c := openT(t, freshMem(t))
	mustExec(t, c, "CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT)")
	for i := 0; i < 10; i++ {
		mustExec(t, c, "INSERT INTO t (id, v) VALUES (?, ?)", i, i)
	}
	const explain = "EXPLAIN SELECT v FROM t WHERE id = ?"
	_, direct := queryAll(t, c, explain, 7)
	s, err := c.Prepare(explain)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := s.Query(7)
	if err != nil {
		t.Fatalf("prepared EXPLAIN: %v", err)
	}
	var prepared [][]any
	for rows.Next() {
		prepared = append(prepared, []any{rows.Value(0)})
	}
	if len(direct) == 0 || !reflect.DeepEqual(prepared, direct) {
		t.Fatalf("prepared EXPLAIN rows %v, Conn.Query rows %v", prepared, direct)
	}

	s, err = c.Prepare("EXPLAIN ANALYZE SELECT v FROM t WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	rows, err = s.Query(7)
	if err != nil {
		t.Fatalf("prepared EXPLAIN ANALYZE: %v", err)
	}
	var last string
	for rows.Next() {
		last = fmt.Sprint(rows.Value(0))
	}
	if want := "actual: rows scanned=1, rows returned=1 (index access)"; last != want {
		t.Fatalf("prepared EXPLAIN ANALYZE ends with %q, want %q", last, want)
	}
}

// TestKillExplainAnalyze: EXPLAIN ANALYZE runs under its statement's
// registry entry, so OBS_ACTIVE_STATEMENTS shows its scan progress and KILL
// from a second connection stops it.
func TestKillExplainAnalyze(t *testing.T) {
	dsn := freshMem(t)
	victim := openT(t, dsn)
	killer := openT(t, dsn)
	mustExec(t, victim, "CREATE TABLE big (id BIGINT PRIMARY KEY AUTO_INCREMENT, n BIGINT)")
	if err := victim.(*conn).db.Write(func(tx *reldb.Tx) error {
		for i := 0; i < 300_000; i++ {
			if _, err := tx.Insert("big", reldb.Row{reldb.Null, reldb.Int(int64(i))}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	const victimSQL = "EXPLAIN ANALYZE SELECT id FROM big WHERE n * 7 - 3 > 0"
	for attempt := 0; attempt < 20; attempt++ {
		done := make(chan error, 1)
		go func() {
			rows, err := victim.Query(victimSQL)
			if err == nil {
				rows.Close()
			}
			done <- err
		}()
		var id int64
		for id == 0 {
			_, seen := queryAll(t, killer,
				"SELECT statement_id FROM OBS_ACTIVE_STATEMENTS WHERE sql = ? AND rows_scanned > 0", victimSQL)
			if len(seen) == 1 {
				id = seen[0][0].(int64)
				break
			}
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("unkilled EXPLAIN ANALYZE failed: %v", err)
				}
				id = -1 // finished before it was seen scanning; retry
			default:
				runtime.Gosched()
			}
		}
		if id < 0 {
			continue
		}
		if _, err := killer.Exec("KILL ?", id); err != nil {
			<-done // lost the race between snapshot and kill
			continue
		}
		err := <-done
		if err == nil {
			continue // finished before the kill was observed
		}
		if !errors.Is(err, sqlexec.ErrStatementKilled) {
			t.Fatalf("killed EXPLAIN ANALYZE returned %v, want ErrStatementKilled", err)
		}
		return
	}
	t.Fatal("EXPLAIN ANALYZE was never seen scanning, or finished before KILL landed, in 20 attempts")
}
