package sqlexec

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"perfdmf/internal/reldb"
	"perfdmf/internal/sqlparse"
)

// TestPlanTimeErrors: unknown and ambiguous columns and missing parameters
// fail when the statement compiles, so they are reported whether or not a
// table holds any row — in every SELECT clause and in UPDATE and DELETE.
func TestPlanTimeErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{`SELECT nosuch FROM t`, "unknown column nosuch"},
		{`SELECT a FROM t WHERE nosuch = 1`, "unknown column nosuch"},
		{`SELECT a FROM t WHERE a = ?`, "missing parameter 1"},
		{`SELECT a FROM t WHERE a = 1 AND b = ?`, "missing parameter 1"},
		{`SELECT a + ? FROM t`, "missing parameter 1"},
		{`SELECT a FROM t ORDER BY nosuch`, "unknown column nosuch"},
		{`SELECT a FROM t GROUP BY nosuch`, "unknown column nosuch"},
		{`SELECT a, COUNT(*) FROM t GROUP BY a HAVING SUM(nosuch) > 1`, "unknown column nosuch"},
		{`SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > ?`, "missing parameter 1"},
		{`SELECT SUM(nosuch) FROM t`, "unknown column nosuch"},
		{`SELECT a FROM t LIMIT ?`, "missing parameter 1"},
		{`SELECT a FROM t LIMIT 5 OFFSET ?`, "missing parameter 1"},
		{`SELECT t.a FROM t JOIN u ON u.nosuch = t.a`, "unknown column u.nosuch"},
		{`SELECT t.a FROM t JOIN u ON u.a = t.a AND u.c = ?`, "missing parameter 1"},
		{`SELECT a FROM t JOIN u ON u.a = t.a`, "ambiguous column a"},
		{`SELECT t.a FROM t JOIN u ON u.a = t.a WHERE a = 1`, "ambiguous column a"},
		{`SELECT t.a FROM t LEFT JOIN u ON u.a = t.a ORDER BY a`, "ambiguous column a"},
		{`UPDATE t SET b = nosuch`, "unknown column nosuch"},
		{`UPDATE t SET b = 1 WHERE nosuch = 1`, "unknown column nosuch"},
		{`UPDATE t SET b = ? WHERE a = 1`, "missing parameter 1"},
		{`UPDATE t SET b = 1 WHERE a = ?`, "missing parameter 1"},
		{`UPDATE t SET nosuch = 1`, "has no column nosuch"},
		{`DELETE FROM t WHERE nosuch = 1`, "unknown column nosuch"},
		{`DELETE FROM t WHERE a = ?`, "missing parameter 1"},
		{`DELETE FROM t WHERE a IN (1, ?)`, "missing parameter 1"},
	}
	for _, rows := range []int{0, 1} {
		db := reldb.NewMemory()
		run(t, db, `CREATE TABLE t (a BIGINT, b BIGINT)`)
		run(t, db, `CREATE TABLE u (a BIGINT, c BIGINT)`)
		for i := 0; i < rows; i++ {
			run(t, db, `INSERT INTO t VALUES (1, 2)`)
			run(t, db, `INSERT INTO u VALUES (1, 3)`)
		}
		for _, c := range cases {
			_, _, err := tryRun(db, c.src)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%d rows: %s: got %v, want an error containing %q", rows, c.src, err, c.want)
			}
		}
	}
}

// TestCompiledProgramSharedByWorkers: one plan's compiled program serves
// repeated executions whose partitioned scans and aggregate folds run on
// several workers at once; under -race any write to the shared program
// would show. Every execution matches the serial result.
func TestCompiledProgramSharedByWorkers(t *testing.T) {
	db := parallelFixture(t)
	for _, src := range []string{
		`SELECT event, thread, excl * 2 + calls FROM ilp WHERE thread BETWEEN ? AND 300 AND metric = 'TIME'`,
		`SELECT event, COUNT(*), SUM(excl), MAX(calls) FROM ilp WHERE calls > ? GROUP BY event HAVING COUNT(*) > 3 ORDER BY event`,
	} {
		st, err := sqlparse.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		sel := st.(*sqlparse.Select)
		params := []reldb.Value{reldb.Int(10)}
		want, err := queryWorkers(db, src, 1, 10)
		if err != nil {
			t.Fatal(err)
		}
		plan := NewPlan(sel)
		for i := 0; i < 3; i++ {
			var rs *ResultSet
			if err := db.Read(func(tx *reldb.Tx) (err error) {
				rs, err = QueryOpts(tx, sel, params, nil, Options{Workers: 4, Plan: plan, NoColumnar: true})
				return err
			}); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rs, want) {
				t.Fatalf("%s: execution %d differs from the serial result", src, i)
			}
		}
		if plan.prog == nil {
			t.Fatalf("%s: plan cached no program", src)
		}
	}
	// Concurrent executions of one compiled program from separate
	// transactions' goroutines.
	src := `SELECT thread, excl FROM ilp WHERE metric = ? ORDER BY id`
	st, _ := sqlparse.Parse(src)
	sel := st.(*sqlparse.Select)
	var prog *selectProg
	if err := db.Read(func(tx *reldb.Tx) (err error) {
		prog, _, err = compileSelect(tx, sel, nil)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	want, err := queryWorkers(db, src, 1, "TIME")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[g] = db.Read(func(tx *reldb.Tx) error {
				plan := &Plan{Select: sel, prog: prog}
				rs, err := QueryOpts(tx, sel, []reldb.Value{reldb.Str("TIME")}, nil, Options{Workers: 2, Plan: plan})
				if err == nil && !reflect.DeepEqual(rs, want) {
					t.Errorf("goroutine %d: result differs from the serial one", g)
				}
				return err
			})
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
