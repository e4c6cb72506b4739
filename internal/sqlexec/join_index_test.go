package sqlexec

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"perfdmf/internal/obs"
	"perfdmf/internal/reldb"
	"perfdmf/internal/sqlparse"
)

// An index nested-loop join must return exactly what the hash join returns:
// the same rows, in the same order, with bitwise-identical floats (so AVG
// and STDDEV fold in the same order). The differential below runs each join
// query with the right tables' indexes in place, drops the indexes, runs it
// again, and compares.

// tracedQuery runs a SELECT with a span and returns its rows and the span's
// PlanSummary, which names the strategy each join took.
func tracedQuery(t *testing.T, db *reldb.DB, src string) (*ResultSet, string) {
	t.Helper()
	st, err := sqlparse.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	sp := &obs.Span{}
	var rs *ResultSet
	if err := db.Read(func(tx *reldb.Tx) error {
		var err error
		rs, err = QueryTraced(tx, st.(*sqlparse.Select), nil, sp)
		return err
	}); err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	return rs, sp.PlanSummary
}

// sameBits reports the first difference between two result sets, comparing
// floats by bit pattern, or "" when they are identical.
func sameBits(a, b *ResultSet) string {
	if len(a.Rows) != len(b.Rows) {
		return fmt.Sprintf("%d rows vs %d", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		if len(a.Rows[i]) != len(b.Rows[i]) {
			return fmt.Sprintf("row %d: width %d vs %d", i, len(a.Rows[i]), len(b.Rows[i]))
		}
		for j, x := range a.Rows[i] {
			y := b.Rows[i][j]
			if x.T != y.T || x.I != y.I || x.S != y.S || math.Float64bits(x.F) != math.Float64bits(y.F) {
				return fmt.Sprintf("row %d col %d: %#v vs %#v", i, j, x, y)
			}
		}
	}
	return ""
}

// joinDiff runs every query, executes the drops, runs every query again and
// requires identical results. It returns how many queries took an index
// nested-loop join before the drops; after them none may.
func joinDiff(t *testing.T, db *reldb.DB, queries, drops []string) int {
	t.Helper()
	probed := 0
	before := make([]*ResultSet, len(queries))
	for i, q := range queries {
		var plan string
		before[i], plan = tracedQuery(t, db, q)
		if strings.Contains(plan, "index nested-loop join") {
			probed++
		}
	}
	for _, d := range drops {
		run(t, db, d)
	}
	for i, q := range queries {
		after, plan := tracedQuery(t, db, q)
		if strings.Contains(plan, "index nested-loop join") {
			t.Fatalf("%s: probed a dropped index: %s", q, plan)
		}
		if diff := sameBits(before[i], after); diff != "" {
			t.Fatalf("%s: index probe and hash join differ: %s", q, diff)
		}
	}
	return probed
}

const joinDiffDDL = `
CREATE TABLE l (id BIGINT PRIMARY KEY AUTO_INCREMENT, k BIGINT, f DOUBLE, g VARCHAR);
CREATE TABLE r (id BIGINT PRIMARY KEY AUTO_INCREMENT, k BIGINT, fk DOUBLE, x DOUBLE);
CREATE TABLE q (rid BIGINT, y DOUBLE);
CREATE INDEX ix_r_k ON r (k);
CREATE INDEX ix_r_fk ON r (fk) USING btree;
CREATE INDEX ix_q_rid ON q (rid)`

var joinDiffDrops = []string{
	"DROP INDEX ix_r_k ON r",
	"DROP INDEX ix_r_fk ON r",
	"DROP INDEX ix_q_rid ON q",
}

// joinDiffQueries cover INNER and LEFT joins, either operand order, extra ON
// conjuncts, float keys against an integer index and integer keys against a
// float index, a 3-way join, and grouped AVG/STDDEV folds.
var joinDiffQueries = []string{
	`SELECT l.id, r.id, r.x FROM l JOIN r ON r.k = l.k`,
	`SELECT l.id, r.id, r.x FROM l LEFT JOIN r ON r.k = l.k`,
	`SELECT l.id, r.id FROM l LEFT JOIN r ON l.k = r.k AND r.x > 5.0`,
	`SELECT l.id, r.id FROM l JOIN r ON r.k = l.f`,
	`SELECT l.id, r.id FROM l LEFT JOIN r ON r.fk = l.k`,
	`SELECT l.id, r.id, q.y FROM l JOIN r ON r.k = l.k JOIN q ON q.rid = r.id`,
	`SELECT l.g, COUNT(*), SUM(r.x), AVG(r.x), STDDEV(r.x), MIN(r.x), MAX(r.x)
		FROM l JOIN r ON r.k = l.k GROUP BY l.g`,
	`SELECT l.g, COUNT(q.y), AVG(q.y), STDDEV(q.y)
		FROM l JOIN r ON r.k = l.k LEFT JOIN q ON q.rid = r.id GROUP BY l.g ORDER BY l.g`,
	`SELECT COUNT(*), SUM(r.x) FROM l JOIN r ON r.k = l.k WHERE l.id <= 3`,
}

func joinDiffSchema(t *testing.T) *reldb.DB {
	t.Helper()
	db := reldb.NewMemory()
	for _, s := range strings.Split(joinDiffDDL, ";") {
		run(t, db, s)
	}
	return db
}

// TestJoinIndexDifferential: the fixed corpus, with NULL and duplicate keys,
// a key with no match, -0.0 and a fractional float key, and index slot
// lists reordered by deletes whose slots later inserts reuse.
func TestJoinIndexDifferential(t *testing.T) {
	db := joinDiffSchema(t)
	for _, row := range []string{
		"(1, 1.0, 'a')", "(2, 2.5, 'b')", "(2, 2.0, 'a')", "(NULL, NULL, 'b')",
		"(7, -0.0, 'a')", "(3, 3.0, 'b')", "(0, 0.0, 'a')",
	} {
		run(t, db, "INSERT INTO l (k, f, g) VALUES "+row)
	}
	insR := func(i int) {
		k := reldb.Int(int64(i % 5))
		if i%7 == 0 {
			k = reldb.Null
		}
		fk := reldb.Float(float64(i % 4))
		if i%6 == 0 {
			fk = reldb.Float(0.5)
		}
		run(t, db, "INSERT INTO r (k, fk, x) VALUES (?, ?, ?)", k, fk, reldb.Float(float64(i)/3+0.1))
	}
	for i := 0; i < 60; i++ {
		insR(i)
	}
	for i := 0; i < 80; i++ {
		run(t, db, "INSERT INTO q (rid, y) VALUES (?, ?)",
			reldb.Int(int64(i%50+1)), reldb.Float(float64(i)*0.7/3))
	}
	// Free slots across the table, then refill them: index slot lists are
	// now out of slot order and new rows sit below old ones.
	run(t, db, "DELETE FROM r WHERE id % 3 = 0")
	run(t, db, "DELETE FROM q WHERE rid % 4 = 1")
	for i := 60; i < 75; i++ {
		insR(i)
	}
	if probed := joinDiff(t, db, joinDiffQueries, joinDiffDrops); probed != len(joinDiffQueries) {
		t.Fatalf("only %d of %d queries took an index nested-loop join", probed, len(joinDiffQueries))
	}
}

// TestJoinIndexFoldDifferential: GROUP BY over joins of more than one
// aggregation chunk, whose joined pairs fold straight into the chunks,
// gives the same bits through the index probe as through the hash join.
func TestJoinIndexFoldDifferential(t *testing.T) {
	db := joinDiffSchema(t)
	for i := 0; i < 60; i++ {
		run(t, db, "INSERT INTO l (k, f, g) VALUES (?, ?, ?)", i%5, float64(i%7), string(rune('a'+i%3)))
	}
	for i := 0; i < 500; i++ {
		k := reldb.Int(int64(i % 5))
		if i%11 == 0 {
			k = reldb.Null
		}
		run(t, db, "INSERT INTO r (k, fk, x) VALUES (?, ?, ?)", k, reldb.Float(float64(i%4)), reldb.Float(float64(i)/3+0.1))
	}
	queries := []string{
		`SELECT l.g, COUNT(*), SUM(r.x), AVG(r.x), STDDEV(r.x), MIN(r.x), MAX(r.x) FROM l JOIN r ON r.k = l.k GROUP BY l.g ORDER BY l.g`,
		`SELECT r.k, l.g, COUNT(*), AVG(r.x) FROM l JOIN r ON r.k = l.k WHERE l.f < 5.0 GROUP BY r.k, l.g`,
	}
	if n := run(t, db, "SELECT COUNT(*) FROM l JOIN r ON r.k = l.k").Rows[0][0].AsInt(); n <= aggChunkRows {
		t.Fatalf("%d joined rows, want more than %d", n, aggChunkRows)
	}
	if probed := joinDiff(t, db, queries, joinDiffDrops); probed != len(queries) {
		t.Fatalf("only %d of %d queries took an index nested-loop join", probed, len(queries))
	}
}

// FuzzJoinIndexDifferential drives the same differential from fuzzed
// tables. Each input byte picks keys and a payload for new rows: the first
// 8 bytes add rows to l, the next 32 add a row to r and one to q, and each
// later byte deletes an r row and inserts another, so probes see index slot
// lists that deletes reordered and rows in reused slots. Keys are NULL,
// integers, or integral and fractional floats.
func FuzzJoinIndexDifferential(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0, 17, 9, 2, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{255, 128, 64, 32, 16, 8, 4, 2, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			data = data[:64]
		}
		key := func(b byte) reldb.Value {
			switch b % 8 {
			case 0:
				return reldb.Null
			case 1:
				return reldb.Float(float64(b%5) + 0.5)
			case 2:
				return reldb.Float(float64(b % 5))
			}
			return reldb.Int(int64(b % 5))
		}
		db := joinDiffSchema(t)
		for i, b := range data {
			x := reldb.Float(float64(b)/7 + float64(i))
			switch {
			case i < 8:
				run(t, db, "INSERT INTO l (k, f, g) VALUES (?, ?, ?)",
					reldb.Int(int64(b%5)), key(b), reldb.Str(fmt.Sprint(b%3)))
			case i < 40:
				run(t, db, "INSERT INTO r (k, fk, x) VALUES (?, ?, ?)", key(b), key(b>>3), x)
				run(t, db, "INSERT INTO q (rid, y) VALUES (?, ?)", reldb.Int(int64(b%16)), x)
			default:
				run(t, db, "DELETE FROM r WHERE id = ?", reldb.Int(int64(b%32+1)))
				run(t, db, "INSERT INTO r (k, fk, x) VALUES (?, ?, ?)", key(b), key(b>>2), x)
			}
		}
		joinDiff(t, db, joinDiffQueries, joinDiffDrops)
	})
}

// TestJoinNumericKeys: a DOUBLE key equal to a BIGINT key matches on every
// join path. The hash join used to bucket by type tag and miss it, while
// the nested loop, which only evaluates ON, found it.
func TestJoinNumericKeys(t *testing.T) {
	db := reldb.NewMemory()
	run(t, db, "CREATE TABLE a (x DOUBLE)")
	run(t, db, "CREATE TABLE b (k BIGINT)")
	run(t, db, "INSERT INTO a VALUES (5.0)")
	run(t, db, "INSERT INTO b VALUES (5)")
	check := func(src, strategy string) {
		t.Helper()
		rs, plan := tracedQuery(t, db, src)
		if !strings.Contains(plan, strategy) {
			t.Fatalf("%s: plan %q, want %s", src, plan, strategy)
		}
		if len(rs.Rows) != 1 {
			t.Fatalf("%s (%s): %d rows, want 1", src, strategy, len(rs.Rows))
		}
	}
	check("SELECT * FROM a JOIN b ON a.x = b.k", "inner hash join b")
	check("SELECT * FROM b JOIN a ON a.x = b.k", "inner hash join a")
	check("SELECT * FROM a JOIN b ON a.x = b.k + 0", "inner nested-loop join b")
	run(t, db, "CREATE INDEX ix_b_k ON b (k)")
	// One left row against one right row: still a hash join.
	check("SELECT * FROM a JOIN b ON a.x = b.k", "inner hash join b")
	run(t, db, "INSERT INTO b VALUES (6)")
	check("SELECT * FROM a JOIN b ON a.x = b.k", "inner index nested-loop join b via ix_b_k")
	check("SELECT * FROM a LEFT JOIN b ON b.k = a.x", "left index nested-loop join b via ix_b_k")
}

// TestIndexedWhereNumericProbe: an indexed equality lookup converts the
// probe to the column's type, so k = 5.0 finds k = 5 with or without the
// index, on a fresh plan, a memoized one, and an IN-list union; a
// fractional probe finds nothing on every path.
func TestIndexedWhereNumericProbe(t *testing.T) {
	db := reldb.NewMemory()
	run(t, db, "CREATE TABLE b (k BIGINT)")
	run(t, db, "INSERT INTO b VALUES (5)")
	run(t, db, "INSERT INTO b VALUES (6)")
	run(t, db, "INSERT INTO b VALUES (?)", reldb.Int(1<<60))
	run(t, db, "INSERT INTO b VALUES (?)", reldb.Int(1<<60+1))
	count := func(src string, params ...any) int {
		t.Helper()
		return len(run(t, db, src, params...).Rows)
	}
	for _, indexed := range []bool{false, true} {
		if indexed {
			run(t, db, "CREATE INDEX ix_b_k ON b (k)")
		}
		for src, want := range map[string]int{
			"SELECT * FROM b WHERE k = 5.0":         1,
			"SELECT * FROM b WHERE 5.0 = k":         1,
			"SELECT * FROM b WHERE k = 5.5":         0,
			"SELECT * FROM b WHERE k IN (5.0, 6.5)": 1,
			"SELECT * FROM b WHERE k IN (5.0, 6.0)": 2,
		} {
			if got := count(src); got != want {
				t.Errorf("indexed=%v %s: %d rows, want %d", indexed, src, got, want)
			}
		}
		if got := count("SELECT * FROM b WHERE k = ?", 5.0); got != 1 {
			t.Errorf("indexed=%v param 5.0: %d rows, want 1", indexed, got)
		}
		// 2^60 and 2^60+1 both convert to the float 2^60, so Compare calls
		// both equal to it; the index cannot answer and the scan does.
		if got := count("SELECT * FROM b WHERE k = ?", float64(1<<60)); got != 2 {
			t.Errorf("indexed=%v param 2^60: %d rows, want 2", indexed, got)
		}
	}
	// A memoized equality plan replays the conversion.
	st, err := sqlparse.Parse("SELECT * FROM b WHERE k = ?")
	if err != nil {
		t.Fatal(err)
	}
	plan := NewPlan(st.(*sqlparse.Select))
	for _, p := range []reldb.Value{reldb.Float(5.0), reldb.Float(5.0), reldb.Float(6.5), reldb.Int(6)} {
		var rs *ResultSet
		if err := db.Read(func(tx *reldb.Tx) error {
			var err error
			rs, err = QueryOpts(tx, plan.Select, []reldb.Value{p}, nil, Options{Plan: plan})
			return err
		}); err != nil {
			t.Fatal(err)
		}
		want := 1
		if p.T == reldb.TFloat && p.F != math.Trunc(p.F) {
			want = 0
		}
		if rs.Len() != want {
			t.Errorf("memoized plan, k = %v: %d rows, want %d", p.Go(), rs.Len(), want)
		}
	}
}

// TestExplainIndexJoin: EXPLAIN names the index a keyed join may probe and
// the left-side size below which it does; EXPLAIN ANALYZE reports the
// strategy the run took.
func TestExplainIndexJoin(t *testing.T) {
	db := fixture(t)
	plan := explainPlan(t, db, `SELECT a.name, t.name FROM trial t JOIN application a ON a.id = t.application`)
	if !hasLine(plan, "inner hash join application AS a (build application, key cols 1=0), or index nested-loop join via pk_application when the left side has fewer than 3 rows") {
		t.Fatalf("keyed join over a primary key: %v", plan)
	}
	st, err := sqlparse.Parse(`EXPLAIN ANALYZE SELECT a.name, t.name FROM application a
		JOIN trial t ON t.id = a.id WHERE a.id = 2`)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	if err := db.Read(func(tx *reldb.Tx) error {
		rs, err := ExplainAnalyze(tx, st.(*sqlparse.Explain).Select, nil)
		if err != nil {
			return err
		}
		for _, row := range rs.Rows {
			lines = append(lines, row[0].S)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !hasLine(lines, "rows scanned=2, rows returned=1 (index access; inner index nested-loop join trial AS t via pk_trial)") {
		t.Fatalf("analyze output: %v", lines)
	}
}
