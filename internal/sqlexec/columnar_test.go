package sqlexec

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"perfdmf/internal/reldb"
	"perfdmf/internal/sqlparse"
)

// compact runs a COMPACT statement, sealing columnar segments so the
// vectorized path engages without waiting for the lazy heuristic.
func compact(t testing.TB, db *reldb.DB, src string) Result {
	t.Helper()
	st, err := sqlparse.Parse(src)
	if err != nil {
		t.Fatalf("parse %s: %v", src, err)
	}
	var res Result
	if err := db.Write(func(tx *reldb.Tx) error {
		var err error
		res, err = Exec(tx, st, nil)
		return err
	}); err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	return res
}

// queryPath runs a SELECT with full Options control (worker budget and
// row-path forcing).
func queryPath(db *reldb.DB, src string, o Options, params ...any) (*ResultSet, error) {
	st, err := sqlparse.Parse(src)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*sqlparse.Select)
	if !ok {
		return nil, fmt.Errorf("not a SELECT: %s", src)
	}
	vals := make([]reldb.Value, len(params))
	for i, p := range params {
		vals[i] = reldb.FromGo(p)
	}
	var rs *ResultSet
	err = db.Read(func(tx *reldb.Tx) error {
		var err error
		rs, err = QueryOpts(tx, sel, vals, nil, o)
		return err
	})
	return rs, err
}

// columnarCorpus is the vectorized-vs-row differential corpus. Every query
// is executed through the forced row path (NoColumnar) and through the
// columnar path at several worker budgets; results must be bitwise
// identical. The fixture sprinkles NULLs through excl and subr, so NULL
// group keys, NULL-skipping aggregates and NULL predicate semantics are
// all on the line. Queries the vectorized planner rejects (LIKE, DISTINCT
// aggregates, expression predicates) ride along to pin the fallback.
var columnarCorpus = []string{
	// grouped aggregation over dict, int and multi-column keys
	`SELECT event, COUNT(*), SUM(excl), AVG(excl), MIN(excl), MAX(excl) FROM ilp GROUP BY event ORDER BY event`,
	`SELECT metric, COUNT(*) FROM ilp GROUP BY metric`,
	`SELECT thread, SUM(calls), MIN(excl), MAX(excl) FROM ilp GROUP BY thread ORDER BY thread`,
	`SELECT event, metric, COUNT(*), AVG(excl) FROM ilp GROUP BY event, metric ORDER BY event, metric`,
	`SELECT subr, COUNT(*), SUM(excl) FROM ilp GROUP BY subr ORDER BY subr`,
	`SELECT excl, COUNT(*) FROM ilp GROUP BY excl ORDER BY excl LIMIT 40`,
	`SELECT event, STDDEV(excl) FROM ilp GROUP BY event ORDER BY event`,
	// global aggregation, incl. COUNT(col) NULL skipping
	`SELECT COUNT(*), COUNT(excl), COUNT(subr), SUM(excl), AVG(excl), MIN(excl), MAX(excl) FROM ilp`,
	`SELECT SUM(calls), MIN(id), MAX(id), MIN(event), MAX(event) FROM ilp`,
	// vectorized predicates: comparisons, BETWEEN, IS [NOT] NULL, params
	`SELECT event, COUNT(*), SUM(excl) FROM ilp WHERE excl > 9000.0 GROUP BY event ORDER BY event`,
	`SELECT event, COUNT(*) FROM ilp WHERE thread BETWEEN 17 AND 141 GROUP BY event ORDER BY event`,
	`SELECT event, COUNT(*) FROM ilp WHERE subr IS NULL GROUP BY event ORDER BY event`,
	`SELECT metric, AVG(excl) FROM ilp WHERE subr IS NOT NULL AND excl < 5000.0 GROUP BY metric ORDER BY metric`,
	`SELECT event, COUNT(*) FROM ilp WHERE event = 'ev7' GROUP BY event`,
	`SELECT event, COUNT(*) FROM ilp WHERE metric = 'TIME' AND thread >= 100 GROUP BY event ORDER BY event`,
	`SELECT event, SUM(calls) FROM ilp WHERE thread = ? GROUP BY event ORDER BY event`,
	`SELECT COUNT(*) FROM ilp WHERE 50 < thread`,
	// few or zero survivors: the direct-aggregation tail, incl. the
	// zero-row global group and the empty grouped result
	`SELECT COUNT(*), SUM(excl), MIN(excl) FROM ilp WHERE thread < 0`,
	`SELECT event, COUNT(*) FROM ilp WHERE thread < 0 GROUP BY event ORDER BY event`,
	`SELECT event, COUNT(*) FROM ilp WHERE thread = 3 GROUP BY event ORDER BY event`,
	// HAVING, ORDER BY aggregates, LIMIT
	`SELECT event, AVG(excl) FROM ilp WHERE thread < 300 GROUP BY event HAVING COUNT(*) > 10 ORDER BY AVG(excl) DESC, event`,
	`SELECT thread, SUM(calls) FROM ilp GROUP BY thread ORDER BY SUM(calls) DESC, thread LIMIT 7`,
	// shapes the vectorized planner must refuse, falling back cleanly
	`SELECT event, COUNT(DISTINCT thread) FROM ilp GROUP BY event ORDER BY event`,
	`SELECT event, COUNT(*) FROM ilp WHERE event LIKE 'ev1%' GROUP BY event ORDER BY event`,
	`SELECT event, COUNT(*) FROM ilp WHERE calls * 2 > 1000 GROUP BY event ORDER BY event`,
	`SELECT event, COUNT(*) FROM ilp WHERE excl > (SELECT AVG(excl) FROM ilp) GROUP BY event ORDER BY event`,
	// DISTINCT aggregates over a DOUBLE column spanning several fold
	// chunks (row path on both sides; pins that the fallback agrees)
	`SELECT COUNT(DISTINCT excl), SUM(DISTINCT excl), AVG(DISTINCT excl) FROM ilp`,
	`SELECT metric, SUM(DISTINCT excl), AVG(DISTINCT excl) FROM ilp GROUP BY metric ORDER BY metric`,
	// global aggregate over a vectorized WHERE that keeps zero rows
	`SELECT COUNT(*), SUM(excl), AVG(excl), MAX(event) FROM ilp WHERE excl > 1000000.0`,
	// HAVING-only aggregates, kept and dropped
	`SELECT COUNT(*) FROM ilp HAVING MAX(excl) > 1000.0`,
	`SELECT SUM(calls) FROM ilp WHERE thread < 0 HAVING COUNT(*) > 0`,
	// small-table GROUP BY (below the columnar threshold)
	`SELECT grp, COUNT(*) FROM event_group GROUP BY grp ORDER BY grp`,
	// GROUP BY over a join of more than one aggregation chunk (joins take
	// the row path; pins that it agrees)
	`SELECT g.grp, i.metric, COUNT(*), SUM(i.excl), AVG(i.excl), STDDEV(i.excl) FROM ilp i JOIN event_group g ON i.event = g.event GROUP BY g.grp, i.metric ORDER BY g.grp, i.metric`,
}

// TestColumnarRowEquivalence is the differential harness: forced row path
// vs columnar path at workers 1, 4 and 8, bit for bit.
func TestColumnarRowEquivalence(t *testing.T) {
	db := parallelFixture(t)
	compact(t, db, `COMPACT ilp`)
	for _, src := range columnarCorpus {
		var params []any
		if strings.Contains(src, "?") {
			params = []any{217}
		}
		row, rerr := queryPath(db, src, Options{Workers: 1, NoColumnar: true}, params...)
		if rerr != nil {
			t.Fatalf("row path %s: %v", src, rerr)
		}
		for _, w := range []int{1, 4, 8} {
			col, cerr := queryPath(db, src, Options{Workers: w}, params...)
			if cerr != nil {
				t.Fatalf("columnar workers=%d %s: %v", w, src, cerr)
			}
			if !reflect.DeepEqual(row, col) {
				t.Errorf("columnar workers=%d diverges from row path for %s:\nrow cols=%v rows=%d\ncolumnar cols=%v rows=%d",
					w, src, row.Cols, len(row.Rows), col.Cols, len(col.Rows))
			}
		}
	}
}

// explainAnalyzeText returns the concatenated EXPLAIN ANALYZE output for src.
func explainAnalyzeText(t *testing.T, db *reldb.DB, src string, workers int) string {
	t.Helper()
	st, err := sqlparse.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := db.Read(func(tx *reldb.Tx) error {
		rs, err := ExplainAnalyzeOpts(tx, st.(*sqlparse.Select), nil, Options{Workers: workers})
		if err != nil {
			return err
		}
		for _, r := range rs.Rows {
			sb.WriteString(r[0].S)
			sb.WriteString("\n")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestColumnarExplainAndDMLFallback pins the observable plan annotation and
// the freshness contract: after COMPACT the grouped query reports
// columnar(n); one DML invalidates the segments and the very next execution
// falls back to the row path; segmentBuildAfter further eligible reads
// reseal and the annotation returns.
func TestColumnarExplainAndDMLFallback(t *testing.T) {
	db := parallelFixture(t)
	compact(t, db, `COMPACT`)
	src := `SELECT event, COUNT(*), SUM(excl) FROM ilp GROUP BY event ORDER BY event`

	if plan := explainAnalyzeText(t, db, src, 4); !strings.Contains(plan, "columnar(") {
		t.Fatalf("no columnar(n) annotation after COMPACT:\n%s", plan)
	}

	if err := db.Write(func(tx *reldb.Tx) error {
		_, err := tx.Insert("ilp", reldb.Row{
			reldb.Null, reldb.Str("ev0"), reldb.Int(1), reldb.Str("TIME"),
			reldb.Float(1), reldb.Int(1), reldb.Null,
		})
		return err
	}); err != nil {
		t.Fatal(err)
	}

	// The invalidated snapshot must never serve another query; the lazy
	// heuristic takes over and reseals only after enough eligible reads.
	sawFallback := 0
	for {
		plan := explainAnalyzeText(t, db, src, 4)
		if strings.Contains(plan, "columnar(") {
			break
		}
		sawFallback++
		if sawFallback > 10 {
			t.Fatalf("segments never resealed after DML; last plan:\n%s", plan)
		}
	}
	if sawFallback == 0 {
		t.Fatal("query served from a stale segment set right after DML")
	}
}

// TestColumnarSmallTableStaysRowPath: under parallelMinRows the planner
// must not even try the vectorized path.
func TestColumnarSmallTableStaysRowPath(t *testing.T) {
	db := fixture(t)
	compact(t, db, `COMPACT trial`)
	if plan := explainAnalyzeText(t, db, `SELECT node_count, COUNT(*) FROM trial GROUP BY node_count`, 8); strings.Contains(plan, "columnar(") {
		t.Fatalf("small table took the columnar path:\n%s", plan)
	}
}

// TestColumnarPlanCacheHits: executions through an attached Plan handle
// that take the vectorized path bump Plan.Columnar — the source of the
// OBS_PLAN_CACHE columnar_hits column.
func TestColumnarPlanCacheHits(t *testing.T) {
	db := parallelFixture(t)
	compact(t, db, `COMPACT ilp`)
	st, err := sqlparse.Parse(`SELECT event, COUNT(*) FROM ilp GROUP BY event ORDER BY event`)
	if err != nil {
		t.Fatal(err)
	}
	sel := st.(*sqlparse.Select)
	plan := NewPlan(sel)
	for i := 0; i < 3; i++ {
		if err := db.Read(func(tx *reldb.Tx) error {
			_, err := QueryOpts(tx, sel, nil, nil, Options{Plan: plan})
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got := plan.Columnar.Load(); got != 3 {
		t.Fatalf("plan.Columnar = %d after 3 vectorized executions, want 3", got)
	}
}

// TestCompactStatement pins the statement surface: COMPACT <table> reports
// the rows it sealed, COMPACT with no table sweeps every user table, and a
// missing table is an error.
func TestCompactStatement(t *testing.T) {
	db := parallelFixture(t)
	if res := compact(t, db, `COMPACT ilp`); res.RowsAffected != 6200 {
		t.Fatalf("COMPACT ilp sealed %d rows, want 6200", res.RowsAffected)
	}
	if res := compact(t, db, `COMPACT`); res.RowsAffected < 6200 {
		t.Fatalf("bare COMPACT sealed %d rows, want at least the ilp table", res.RowsAffected)
	}
	st, err := sqlparse.Parse(`COMPACT no_such_table`)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Write(func(tx *reldb.Tx) error {
		_, err := Exec(tx, st, nil)
		return err
	}); err == nil {
		t.Fatal("COMPACT of a missing table did not fail")
	}
}

// TestColumnarKill: a statement killed while the vectorized path is
// scanning or folding must surface ErrStatementKilled and never a partial
// result, at serial and parallel budgets. killDuring (cancel_test.go)
// asserts both.
// TestColumnarGroupByAllocsSurviveGC: a columnar GROUP BY allocates no
// more right after collections than in steady state, because its group
// states come from a free list that a collection does not empty. (With a
// sync.Pool the run after two collections allocated every group block
// anew, about twice the steady bytes on this fixture.)
func TestColumnarGroupByAllocsSurviveGC(t *testing.T) {
	db := parallelFixture(t)
	compact(t, db, `COMPACT ilp`)
	src := `SELECT thread, SUM(calls), MIN(excl), MAX(excl) FROM ilp GROUP BY thread ORDER BY thread`
	run := func() uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := queryPath(db, src, Options{Workers: 1}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc
	}
	run()
	steady := run()
	runtime.GC()
	runtime.GC()
	if after := run(); after > steady+steady/4 {
		t.Fatalf("GROUP BY after two collections allocated %d bytes, steady state %d", after, steady)
	}
}

func TestColumnarKill(t *testing.T) {
	db := cancelFixture(t, 300_000)
	compact(t, db, `COMPACT big`)
	src := `SELECT grp, COUNT(*), SUM(x), AVG(n) FROM big WHERE n >= 0 GROUP BY grp`
	inExecute := func(e *StmtEntry) bool {
		return StmtPhase(e.phase.Load()) == PhaseExecute
	}
	retryKill(t, db, src, 1, inExecute)
	retryKill(t, db, src, 4, inExecute)
}

// TestColumnarGoroutineHygiene: the columnar worker pools must drain back
// to baseline after the corpus, including the fallback and error shapes.
func TestColumnarGoroutineHygiene(t *testing.T) {
	db := parallelFixture(t)
	compact(t, db, `COMPACT ilp`)
	baseline := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		for _, src := range columnarCorpus {
			if strings.Contains(src, "?") {
				continue
			}
			if _, err := queryPath(db, src, Options{Workers: 8}); err != nil {
				t.Fatalf("%s: %v", src, err)
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}
