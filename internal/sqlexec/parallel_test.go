package sqlexec

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"perfdmf/internal/reldb"
	"perfdmf/internal/sqlparse"
)

// parallelFixture builds a database large enough that the parallel scan and
// chunked-aggregation paths actually engage (above parallelMinRows), plus a
// small dimension table for joins and a two-row table whose scalar subquery
// misuse produces a runtime error mid-filter.
//
// Row values come from a tiny deterministic LCG so the fixture is identical
// on every run without storing a 6000-row literal.
func parallelFixture(t testing.TB) *reldb.DB {
	t.Helper()
	db := reldb.NewMemory()
	exec := func(src string) {
		st, err := sqlparse.Parse(src)
		if err != nil {
			t.Fatalf("parse %s: %v", src, err)
		}
		if err := db.Write(func(tx *reldb.Tx) error {
			_, err := Exec(tx, st, nil)
			return err
		}); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
	}
	exec(`CREATE TABLE ilp (
		id BIGINT PRIMARY KEY AUTO_INCREMENT,
		event VARCHAR NOT NULL,
		thread BIGINT NOT NULL,
		metric VARCHAR NOT NULL,
		excl DOUBLE,
		calls BIGINT,
		subr BIGINT)`)
	exec(`CREATE TABLE event_group (event VARCHAR NOT NULL, grp VARCHAR NOT NULL)`)
	exec(`CREATE TABLE dup2 (v BIGINT)`)

	if err := db.Write(func(tx *reldb.Tx) error {
		seed := int64(42)
		next := func(mod int64) int64 {
			seed = (seed*6364136223846793005 + 1442695040888963407) % (1 << 31)
			if seed < 0 {
				seed = -seed
			}
			return seed % mod
		}
		const nrows = 6200
		for i := 0; i < nrows; i++ {
			ev := fmt.Sprintf("ev%d", next(23))
			th := next(400)
			metric := "TIME"
			if next(4) == 0 {
				metric = "PAPI_FP_OPS"
			}
			excl := reldb.Float(float64(next(100000)) / 7.0)
			if next(50) == 0 {
				excl = reldb.Null // sprinkle NULLs through the aggregates
			}
			subr := reldb.Int(next(9))
			if next(3) == 0 {
				subr = reldb.Null
			}
			_, err := tx.Insert("ilp", reldb.Row{
				reldb.Null, reldb.Str(ev), reldb.Int(th), reldb.Str(metric),
				excl, reldb.Int(1 + next(1000)), subr,
			})
			if err != nil {
				return err
			}
		}
		for g := 0; g < 23; g++ {
			grp := "MPI"
			if g%2 == 0 {
				grp = "COMPUTE"
			}
			row := reldb.Row{reldb.Str(fmt.Sprintf("ev%d", g)), reldb.Str(grp)}
			if _, err := tx.Insert("event_group", row); err != nil {
				return err
			}
		}
		for _, v := range []int64{1, 2} {
			if _, err := tx.Insert("dup2", reldb.Row{reldb.Int(v)}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatalf("seed fixture: %v", err)
	}
	return db
}

// queryWorkers runs a SELECT with an explicit worker budget.
func queryWorkers(db *reldb.DB, src string, workers int, params ...any) (*ResultSet, error) {
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
		rs, err = QueryOpts(tx, sel, vals, nil, Options{Workers: workers})
		return err
	})
	return rs, err
}

// parallelCorpus is the differential-correctness corpus: every query here is
// executed serially (workers=1) and with several fan-outs, and the result
// sets must be identical — same rows, same order, same values bit for bit.
var parallelCorpus = []string{
	// plain scans and filters
	`SELECT * FROM ilp`,
	`SELECT id, event, excl FROM ilp WHERE excl > 9000.0`,
	`SELECT * FROM ilp WHERE event = 'ev7' AND thread >= 100`,
	`SELECT id FROM ilp WHERE thread BETWEEN 17 AND 41`,
	`SELECT id, event FROM ilp WHERE event IN ('ev1', 'ev5', 'ev9') AND metric = 'TIME'`,
	`SELECT COUNT(*) FROM ilp WHERE event LIKE 'ev1%'`,
	`SELECT COUNT(*) FROM ilp WHERE subr IS NULL`,
	`SELECT COUNT(*) FROM ilp WHERE subr IS NOT NULL AND excl < 500.0`,
	`SELECT id FROM ilp WHERE thread = ?`,
	// subqueries inside the filtered scan (evaluated per worker env)
	`SELECT COUNT(*) FROM ilp WHERE excl > (SELECT AVG(excl) FROM ilp)`,
	`SELECT COUNT(*) FROM ilp WHERE subr IN (SELECT v FROM dup2)`,
	// aggregation: global and grouped, every aggregate kind
	`SELECT COUNT(*), COUNT(excl), SUM(excl), AVG(excl), MIN(excl), MAX(excl), STDDEV(excl) FROM ilp`,
	`SELECT SUM(calls), MIN(id), MAX(id) FROM ilp WHERE thread > 50`,
	`SELECT event, COUNT(*), SUM(excl), AVG(excl), MIN(excl), MAX(excl) FROM ilp GROUP BY event ORDER BY event`,
	`SELECT event, metric, COUNT(*) FROM ilp GROUP BY event, metric ORDER BY event, metric`,
	`SELECT event, STDDEV(excl) FROM ilp GROUP BY event ORDER BY event`,
	`SELECT thread, SUM(calls) FROM ilp GROUP BY thread ORDER BY SUM(calls) DESC, thread LIMIT 7`,
	`SELECT event, AVG(excl) FROM ilp WHERE thread < 300 GROUP BY event HAVING COUNT(*) > 10 ORDER BY AVG(excl) DESC, event`,
	`SELECT event, COUNT(DISTINCT thread) FROM ilp GROUP BY event ORDER BY event`,
	// ordering, limits, distinct
	`SELECT DISTINCT event FROM ilp ORDER BY event`,
	`SELECT event, thread, excl FROM ilp ORDER BY excl DESC, id LIMIT 25 OFFSET 5`,
	`SELECT id FROM ilp ORDER BY id LIMIT 100`,
	// joins on base (join disables the partitioned scan; result must agree)
	`SELECT i.event, g.grp, i.excl FROM ilp i JOIN event_group g ON i.event = g.event WHERE i.excl > 13000.0 ORDER BY i.id`,
	`SELECT g.grp, COUNT(*), SUM(i.excl) FROM ilp i JOIN event_group g ON i.event = g.event GROUP BY g.grp ORDER BY g.grp`,
	`SELECT g.grp, i.id FROM ilp i LEFT JOIN event_group g ON i.event = g.event WHERE i.thread = 3 ORDER BY i.id`,
	// GROUP BY over a join of ~6,000 rows: the joined pairs fold straight
	// into several aggregation chunks, with a WHERE checked on each pair
	`SELECT i.event, g.grp, COUNT(*), SUM(i.excl), AVG(i.excl), STDDEV(i.excl), MIN(i.calls), MAX(i.excl) FROM ilp i JOIN event_group g ON i.event = g.event WHERE i.metric = 'TIME' OR i.thread > 10 GROUP BY i.event, g.grp ORDER BY i.event, g.grp`,
	// DISTINCT aggregates over a DOUBLE column spanning several fold
	// chunks, with duplicates on both sides of the chunk boundaries
	`SELECT COUNT(DISTINCT excl), SUM(DISTINCT excl), AVG(DISTINCT excl), MIN(DISTINCT excl), MAX(DISTINCT excl), STDDEV(DISTINCT excl) FROM ilp`,
	`SELECT metric, COUNT(DISTINCT excl), SUM(DISTINCT excl), AVG(DISTINCT excl) FROM ilp GROUP BY metric ORDER BY metric`,
	// global aggregate over a WHERE that keeps zero rows
	`SELECT COUNT(*), SUM(excl), AVG(excl), MIN(event), COUNT(DISTINCT excl) FROM ilp WHERE thread < 0`,
	// HAVING-only aggregates, kept and dropped
	`SELECT COUNT(*) FROM ilp HAVING MAX(excl) > 1000.0`,
	`SELECT SUM(calls) FROM ilp WHERE thread < 0 HAVING COUNT(*) > 0`,
	// small-table GROUP BY
	`SELECT grp, COUNT(*), MIN(event), MAX(event) FROM event_group GROUP BY grp ORDER BY grp`,
}

func TestParallelSerialEquivalence(t *testing.T) {
	db := parallelFixture(t)
	for _, src := range parallelCorpus {
		var params []any
		if strings.Contains(src, "?") {
			params = []any{217}
		}
		serial, serr := queryWorkers(db, src, 1, params...)
		if serr != nil {
			t.Fatalf("serial %s: %v", src, serr)
		}
		for _, w := range []int{2, 3, 8} {
			par, perr := queryWorkers(db, src, w, params...)
			if perr != nil {
				t.Fatalf("workers=%d %s: %v", w, src, perr)
			}
			if !reflect.DeepEqual(serial, par) {
				t.Errorf("workers=%d diverges from serial for %s:\nserial cols=%v rows=%d\nparallel cols=%v rows=%d",
					w, src, serial.Cols, len(serial.Rows), par.Cols, len(par.Rows))
			}
		}
	}
}

// TestParallelErrorEquivalence checks that a query failing mid-scan fails
// identically at any fan-out: same error, and the first failing partition in
// row order wins — exactly what the serial executor reports.
func TestParallelErrorEquivalence(t *testing.T) {
	db := parallelFixture(t)
	src := `SELECT COUNT(*) FROM ilp WHERE excl > (SELECT v FROM dup2)`
	_, serr := queryWorkers(db, src, 1)
	if serr == nil {
		t.Fatalf("expected serial error for %s", src)
	}
	for _, w := range []int{2, 8} {
		_, perr := queryWorkers(db, src, w)
		if perr == nil {
			t.Fatalf("workers=%d: expected error for %s", w, src)
		}
		if perr.Error() != serr.Error() {
			t.Errorf("workers=%d error diverges:\nserial:   %v\nparallel: %v", w, serr, perr)
		}
	}
}

// TestParallelGoroutineHygiene is the manual goleak check: after running the
// corpus — including the error path, which tears workers down early — the
// goroutine count must return to its baseline. Workers are reaped via
// WaitGroup even on error, so any growth here is a leak.
func TestParallelGoroutineHygiene(t *testing.T) {
	db := parallelFixture(t)
	baseline := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		for _, src := range parallelCorpus {
			if strings.Contains(src, "?") {
				continue
			}
			if _, err := queryWorkers(db, src, 8); err != nil {
				t.Fatalf("%s: %v", src, err)
			}
		}
		// Error path: workers observe the stop flag and drain.
		if _, err := queryWorkers(db, `SELECT id FROM ilp WHERE excl > (SELECT v FROM dup2)`, 8); err == nil {
			t.Fatal("expected scalar-subquery error")
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

// TestParallelSmallTableStaysSerial pins the fallback: under parallelMinRows
// live rows the executor must not spin up workers (q.par stays 0, and no
// parallel(n) annotation appears in the span).
func TestParallelSmallTableStaysSerial(t *testing.T) {
	db := fixture(t) // handful of rows, far below the threshold
	st, err := sqlparse.Parse(`SELECT * FROM trial WHERE node_count > 0`)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Read(func(tx *reldb.Tx) error {
		rs, err := ExplainAnalyzeOpts(tx, st.(*sqlparse.Select), nil, Options{Workers: 8})
		if err != nil {
			return err
		}
		for _, r := range rs.Rows {
			if strings.Contains(r[0].S, "parallel(") {
				return fmt.Errorf("small table took the parallel path: %v", r[0].S)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestParallelExplainAnalyze pins the observable plan annotation: a large
// filtered scan run with workers=4 reports parallel(4).
func TestParallelExplainAnalyze(t *testing.T) {
	db := parallelFixture(t)
	st, err := sqlparse.Parse(`SELECT id FROM ilp WHERE excl > 100.0`)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Read(func(tx *reldb.Tx) error {
		rs, err := ExplainAnalyzeOpts(tx, st.(*sqlparse.Select), nil, Options{Workers: 4})
		if err != nil {
			return err
		}
		for _, r := range rs.Rows {
			if strings.Contains(r[0].S, "parallel(4)") {
				return nil
			}
		}
		return fmt.Errorf("no parallel(4) annotation in plan: %v", rs.Rows)
	}); err != nil {
		t.Fatal(err)
	}
}

// TestDistinctAggregateBits pins SUM(DISTINCT)/AVG(DISTINCT) to the bits of
// one left fold over the column's distinct non-NULL values in first-
// occurrence order, computed here straight from the table. The fixture's
// excl column spans two fold chunks, with values that first occur in the
// first chunk and recur in the second, so the chunk merge is exercised.
func TestDistinctAggregateBits(t *testing.T) {
	db := parallelFixture(t)
	var vals []float64
	straddles := false
	if err := db.Read(func(tx *reldb.Tx) error {
		firstAt := make(map[uint64]int)
		i := 0
		err := tx.Scan("ilp", func(_ int, row reldb.Row) bool {
			defer func() { i++ }()
			v := row[4]
			if v.IsNull() {
				return true
			}
			bits := math.Float64bits(v.F)
			if at, seen := firstAt[bits]; seen {
				straddles = straddles || (at < aggChunkRows && i >= aggChunkRows)
				return true
			}
			firstAt[bits] = i
			vals = append(vals, v.F)
			return true
		})
		if i <= aggChunkRows {
			t.Fatalf("fixture has %d rows, want more than one fold chunk (%d)", i, aggChunkRows)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if !straddles {
		t.Fatal("no excl value recurs across the first chunk boundary; the merge goes untested")
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	avg := sum / float64(len(vals))

	src := `SELECT COUNT(DISTINCT excl), SUM(DISTINCT excl), AVG(DISTINCT excl) FROM ilp`
	for _, o := range []Options{{Workers: 1}, {Workers: 4}, {Workers: 4, NoColumnar: true}} {
		rs, err := queryPath(db, src, o)
		if err != nil {
			t.Fatalf("%+v: %v", o, err)
		}
		got := rs.Rows[0]
		if got[0].I != int64(len(vals)) {
			t.Errorf("%+v: COUNT(DISTINCT) = %d, want %d", o, got[0].I, len(vals))
		}
		if math.Float64bits(got[1].F) != math.Float64bits(sum) {
			t.Errorf("%+v: SUM(DISTINCT) = %v, want %v bit for bit", o, got[1].F, sum)
		}
		if math.Float64bits(got[2].F) != math.Float64bits(avg) {
			t.Errorf("%+v: AVG(DISTINCT) = %v, want %v bit for bit", o, got[2].F, avg)
		}
	}
}

// TestMalformedAggregateRejected: X(*) for X other than COUNT and an
// aggregate with other than one argument fail with the same error whether
// the table is empty, small or spans several fold chunks, at any worker
// count, on either the row or the columnar path.
func TestMalformedAggregateRejected(t *testing.T) {
	cases := []struct{ src, want string }{
		{`SELECT grp, SUM(*) FROM big GROUP BY grp`, "sqlexec: SUM(*) is not valid"},
		{`SELECT grp, AVG(x, x) FROM big GROUP BY grp`, "sqlexec: AVG expects one argument"},
		{`SELECT grp, COUNT() FROM big GROUP BY grp`, "sqlexec: COUNT expects one argument"},
		{`SELECT SUM(*) FROM big`, "sqlexec: SUM(*) is not valid"},
	}
	for _, nrows := range []int{0, 10, 5000} {
		db := cancelFixture(t, nrows)
		if nrows >= parallelMinRows {
			compact(t, db, `COMPACT big`)
		}
		for _, c := range cases {
			for _, o := range []Options{
				{Workers: 1}, {Workers: 4},
				{Workers: 1, NoColumnar: true}, {Workers: 4, NoColumnar: true},
			} {
				_, err := queryPath(db, c.src, o)
				if err == nil || err.Error() != c.want {
					t.Errorf("rows=%d %+v %s: err=%v, want %q", nrows, o, c.src, err, c.want)
				}
			}
		}
	}
}

// joinFoldCorpus holds GROUP BY queries over joins of more than
// aggChunkRows rows, each with its joined rows as a SELECT of their own
// (inner) and the same aggregation over those rows as a derived table
// (outer).
var joinFoldCorpus = []struct{ folded, inner, outer string }{
	{
		`SELECT g.grp, COUNT(*), SUM(i.excl), AVG(i.excl), STDDEV(i.excl), MIN(i.excl) FROM ilp i JOIN event_group g ON i.event = g.event GROUP BY g.grp ORDER BY g.grp`,
		`SELECT g.grp AS grp, i.excl AS excl FROM ilp i JOIN event_group g ON i.event = g.event`,
		`SELECT grp, COUNT(*), SUM(excl), AVG(excl), STDDEV(excl), MIN(excl) FROM (%s) d GROUP BY grp ORDER BY grp`,
	},
	{
		`SELECT i.event, COUNT(i.excl), AVG(i.excl), MAX(i.calls), COUNT(DISTINCT i.thread) FROM ilp i JOIN event_group g ON i.event = g.event WHERE g.grp = 'MPI' OR i.thread < 200 GROUP BY i.event HAVING COUNT(*) > 1`,
		`SELECT i.event AS event, i.excl AS excl, i.calls AS calls, i.thread AS thread FROM ilp i JOIN event_group g ON i.event = g.event WHERE g.grp = 'MPI' OR i.thread < 200`,
		`SELECT event, COUNT(excl), AVG(excl), MAX(calls), COUNT(DISTINCT thread) FROM (%s) d GROUP BY event HAVING COUNT(*) > 1`,
	},
}

// TestJoinFoldMatchesMaterialized: a GROUP BY over a join folds each
// joined pair into its aggregation chunk as the join produces it. The
// result must equal, bit for bit and at every worker count, aggregating
// the same joined rows materialized first (as a derived table), whose
// chunks fold concurrently.
func TestJoinFoldMatchesMaterialized(t *testing.T) {
	db := parallelFixture(t)
	for _, tc := range joinFoldCorpus {
		if n := len(run(t, db, tc.inner).Rows); n <= aggChunkRows {
			t.Fatalf("%s: %d joined rows, want more than %d", tc.inner, n, aggChunkRows)
		}
		for _, w := range []int{1, 2, 4} {
			folded, err := queryWorkers(db, tc.folded, w)
			if err != nil {
				t.Fatal(err)
			}
			materialized, err := queryWorkers(db, fmt.Sprintf(tc.outer, tc.inner), w)
			if err != nil {
				t.Fatal(err)
			}
			if diff := sameBits(folded, materialized); diff != "" {
				t.Errorf("workers=%d %s: folded join and materialized join differ: %s", w, tc.folded, diff)
			}
		}
	}
}
