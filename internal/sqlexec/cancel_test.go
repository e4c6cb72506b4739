package sqlexec

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"perfdmf/internal/reldb"
	"perfdmf/internal/sqlparse"
)

// cancelFixture builds a table large enough that a scan crosses many
// cancellation checkpoints (cancelCheckRows apart) before finishing, giving
// the kill tests a wide window to land in.
func cancelFixture(t testing.TB, nrows int) *reldb.DB {
	t.Helper()
	db := reldb.NewMemory()
	st, err := sqlparse.Parse(`CREATE TABLE big (
		id BIGINT PRIMARY KEY AUTO_INCREMENT,
		grp VARCHAR NOT NULL,
		n BIGINT NOT NULL,
		x DOUBLE)`)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Write(func(tx *reldb.Tx) error {
		if _, err := Exec(tx, st, nil); err != nil {
			return err
		}
		for i := 0; i < nrows; i++ {
			row := reldb.Row{
				reldb.Null,
				reldb.Str(fmt.Sprintf("g%d", i%37)),
				reldb.Int(int64(i)),
				reldb.Float(float64(i) / 3.0),
			}
			if _, err := tx.Insert("big", row); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return db
}

// killDuring runs src with the given worker budget and kills the statement
// once ready(entry) reports the execution reached the targeted stage. It
// reports whether the kill landed (false: the query finished first, caller
// should retry), failing the test if a landed kill produced anything other
// than ErrStatementKilled with no result set.
func killDuring(t *testing.T, db *reldb.DB, src string, workers int, ready func(*StmtEntry) bool) bool {
	t.Helper()
	sel, err := sqlparse.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	entry := Statements.Begin(src, "query")
	type outcome struct {
		rs  *ResultSet
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		defer entry.Finish()
		var rs *ResultSet
		qerr := db.Read(func(tx *reldb.Tx) error {
			var err error
			rs, err = QueryOpts(tx, sel.(*sqlparse.Select), nil, nil, Options{Workers: workers, Stmt: entry})
			return err
		})
		done <- outcome{rs, qerr}
	}()

	for {
		select {
		case o := <-done:
			// The query outran the poller; nothing was killed.
			if o.err != nil {
				t.Fatalf("unkilled query failed: %v", o.err)
			}
			return false
		default:
		}
		if ready(entry) {
			break
		}
		runtime.Gosched()
	}
	if !Statements.Kill(entry.ID()) {
		// Finished between the readiness check and the kill.
		o := <-done
		if o.err != nil {
			t.Fatalf("unkilled query failed: %v", o.err)
		}
		return false
	}
	o := <-done
	if o.err == nil {
		// The kill raced with the statement's completion (it landed after
		// the final cancellation check but before Finish deregistered the
		// entry). The result is complete, not partial; retry for a kill
		// that lands mid-execution.
		return false
	}
	if !errors.Is(o.err, ErrStatementKilled) {
		t.Fatalf("killed query returned err=%v, want ErrStatementKilled", o.err)
	}
	if o.rs != nil {
		t.Fatalf("killed query returned a partial result set (%d rows)", len(o.rs.Rows))
	}
	return true
}

// retryKill runs killDuring until the kill lands, tolerating runs where the
// query finishes before the poller catches it.
func retryKill(t *testing.T, db *reldb.DB, src string, workers int, ready func(*StmtEntry) bool) {
	t.Helper()
	for attempt := 0; attempt < 20; attempt++ {
		if killDuring(t, db, src, workers, ready) {
			return
		}
	}
	t.Fatalf("query finished before the kill could land in 20 attempts: %s", src)
}

// midScan waits for the first scan checkpoint: the executor only publishes
// rows_scanned every cancelCheckRows rows, so a non-zero count means the
// statement is genuinely inside a scan.
func midScan(e *StmtEntry) bool { return e.rowsScanned.Load() > 0 }

// midMaterialize waits for the materialize phase, where grouped queries run
// chunked aggregation.
func midMaterialize(e *StmtEntry) bool {
	return StmtPhase(e.phase.Load()) == PhaseMaterialize
}

func TestKillPreCancelled(t *testing.T) {
	db := cancelFixture(t, 10)
	sel, err := sqlparse.Parse(`SELECT * FROM big`)
	if err != nil {
		t.Fatal(err)
	}
	entry := Statements.Begin("SELECT * FROM big", "query")
	defer entry.Finish()
	if !Statements.Kill(entry.ID()) {
		t.Fatal("Kill did not find the registered statement")
	}
	err = db.Read(func(tx *reldb.Tx) error {
		_, err := QueryOpts(tx, sel.(*sqlparse.Select), nil, nil, Options{Stmt: entry})
		return err
	})
	if !errors.Is(err, ErrStatementKilled) {
		t.Fatalf("pre-cancelled query returned %v, want ErrStatementKilled", err)
	}
}

func TestKillMidScanSerial(t *testing.T) {
	db := cancelFixture(t, 300_000)
	retryKill(t, db, `SELECT id, grp FROM big WHERE n * 3 + 1 > 0`, 1, midScan)
}

func TestKillMidScanParallel(t *testing.T) {
	db := cancelFixture(t, 300_000)
	retryKill(t, db, `SELECT id, grp FROM big WHERE n * 3 + 1 > 0`, 4, midScan)
}

func TestKillMidAggregation(t *testing.T) {
	db := cancelFixture(t, 300_000)
	src := `SELECT grp, COUNT(*), SUM(x), AVG(n) FROM big GROUP BY grp`
	retryKill(t, db, src, 1, midMaterialize)
	retryKill(t, db, src, 4, midMaterialize)
}

// TestKillLeavesNoGoroutines: after killing parallel statements the worker
// pool must drain back to baseline — cancellation tears workers down via
// the same stop-flag path as errors.
func TestKillLeavesNoGoroutines(t *testing.T) {
	db := cancelFixture(t, 300_000)
	baseline := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		retryKill(t, db, `SELECT id FROM big WHERE n > 1`, 8, midScan)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after kills: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	// The registry must be empty again: Finish removes killed entries too.
	for _, si := range Statements.Snapshot() {
		if si.SQL == `SELECT id FROM big WHERE n > 1` {
			t.Fatalf("killed statement still registered: %+v", si)
		}
	}
}

// TestKillUnknownStatement: killing an id that is not registered reports
// false and is otherwise a no-op.
func TestKillUnknownStatement(t *testing.T) {
	if Statements.Kill(1 << 60) {
		t.Fatal("Kill(unknown) = true")
	}
}

// TestStatementAccounting: a completed statement reports its scan and
// return counts through the registry snapshot while still live.
func TestStatementAccounting(t *testing.T) {
	db := cancelFixture(t, 10)
	sel, err := sqlparse.Parse(`SELECT id FROM big WHERE n >= 4`)
	if err != nil {
		t.Fatal(err)
	}
	entry := Statements.Begin("SELECT id FROM big WHERE n >= 4", "query")
	var rs *ResultSet
	if err := db.Read(func(tx *reldb.Tx) error {
		var err error
		rs, err = QueryOpts(tx, sel.(*sqlparse.Select), nil, nil, Options{Stmt: entry})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 6 {
		t.Fatalf("rows = %d, want 6", rs.Len())
	}
	snap := Statements.Snapshot()
	var found bool
	for _, si := range snap {
		if si.ID == entry.ID() {
			found = true
			if si.RowsScanned != 10 || si.RowsReturned != 6 {
				t.Fatalf("accounting = scanned %d returned %d, want 10/6", si.RowsScanned, si.RowsReturned)
			}
			if si.Phase != "materialize" {
				t.Fatalf("phase = %q, want materialize", si.Phase)
			}
		}
	}
	if !found {
		t.Fatal("live statement missing from snapshot")
	}
	entry.Finish()
	for _, si := range Statements.Snapshot() {
		if si.ID == entry.ID() {
			t.Fatal("finished statement still in snapshot")
		}
	}
}

// probeFixture adds to the cancellation fixture an index on big.grp and a
// 37-row table of its group names, so a join from probe onto big takes the
// index nested-loop path and every big row is a candidate.
func probeFixture(t *testing.T, nrows int) *reldb.DB {
	t.Helper()
	db := cancelFixture(t, nrows)
	run(t, db, "CREATE INDEX ix_big_grp ON big (grp)")
	run(t, db, "CREATE TABLE probe (g VARCHAR)")
	for i := 0; i < 37; i++ {
		run(t, db, "INSERT INTO probe VALUES (?)", reldb.Str(fmt.Sprintf("g%d", i)))
	}
	return db
}

// TestKillMidIndexJoin: a KILL landing while an index nested-loop join is
// probing unwinds the statement with no result.
func TestKillMidIndexJoin(t *testing.T) {
	db := probeFixture(t, 300_000)
	retryKill(t, db, `SELECT COUNT(*), SUM(b.x) FROM probe p JOIN big b ON b.grp = p.g`, 1,
		func(e *StmtEntry) bool { return StmtPhase(e.phase.Load()) == PhaseExecute })
}

// TestKillIndexJoinBound: the probe polls for cancellation per left row and
// per fetched candidate, so a kill that lands before the join unwinds it
// within cancelCheckRows candidates, even though each key matches far more
// rows than that.
func TestKillIndexJoinBound(t *testing.T) {
	db := probeFixture(t, 100*int(cancelCheckRows))
	src := `SELECT COUNT(*) FROM probe p JOIN big b ON b.grp = p.g`
	st, err := sqlparse.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	sel := st.(*sqlparse.Select)
	entry := Statements.Begin(src, "query")
	defer entry.Finish()
	if err := db.Read(func(tx *reldb.Tx) error {
		q := &query{tx: tx, st: sel, opts: Options{Stmt: entry}}
		if err := q.compile(); err != nil {
			return err
		}
		left, err := q.scanAll("probe")
		if err != nil {
			return err
		}
		if !Statements.Kill(entry.ID()) {
			t.Fatal("Kill did not find the registered statement")
		}
		polled, scanned := q.polled, q.scanned
		if err := q.execJoin(left, 0, func(reldb.Row) error { return nil }); !errors.Is(err, ErrStatementKilled) {
			t.Fatalf("killed join returned %v, want ErrStatementKilled", err)
		}
		if !strings.Contains(q.joins[0], "index nested-loop join") {
			t.Fatalf("join strategy %q, want the index nested-loop join", q.joins[0])
		}
		if n := q.polled - polled; n > cancelCheckRows {
			t.Fatalf("join ran %d polls after the kill, want at most %d", n, cancelCheckRows)
		}
		// Each key matches ~2,800 rows: the kill must land inside the first
		// key's fetch, before its rows are counted as scanned.
		if q.scanned != scanned {
			t.Fatalf("join fetched %d rows before it polled", q.scanned-scanned)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
