package godbc

import (
	"fmt"
	"strings"
	"testing"

	"perfdmf/internal/obs"
)

func counter(name string) int64 { return obs.Default.Counter(name).Value() }

// queryAll drains a query into ([][]any, cols).
func queryAll(t *testing.T, c Conn, q string, args ...any) ([]string, [][]any) {
	t.Helper()
	rows, err := c.Query(q, args...)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	defer rows.Close()
	cols := rows.Columns()
	var out [][]any
	for rows.Next() {
		r := make([]any, len(cols))
		for i := range r {
			r[i] = rows.Value(i)
		}
		out = append(out, r)
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return cols, out
}

// TestStatementCacheHits proves the statement cache short-circuits parsing:
// the first execution of a text is a miss, every repeat on the same
// connection is a hit, and the hit/miss counters move accordingly.
func TestStatementCacheHits(t *testing.T) {
	c := openT(t, freshMem(t))
	mustExec(t, c, "CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT)")
	for i := 0; i < 5; i++ {
		mustExec(t, c, "INSERT INTO t (id, v) VALUES (?, ?)", i, i*10)
	}

	const q = "SELECT v FROM t WHERE id = ?"
	misses0, hits0 := counter("sqlexec_plan_cache_misses_total"), counter("sqlexec_plan_cache_hits_total")
	if _, rows := queryAll(t, c, q, 3); len(rows) != 1 || rows[0][0].(int64) != 30 {
		t.Fatalf("first run: %v", rows)
	}
	if d := counter("sqlexec_plan_cache_misses_total") - misses0; d != 1 {
		t.Fatalf("misses after first run = %d, want 1", d)
	}
	for i := 0; i < 4; i++ {
		queryAll(t, c, q, 3)
	}
	if d := counter("sqlexec_plan_cache_hits_total") - hits0; d != 4 {
		t.Fatalf("hits after repeats = %d, want 4", d)
	}
	// The INSERT text was also cached: repeating it is a hit, not a reparse.
	hits1 := counter("sqlexec_plan_cache_hits_total")
	mustExec(t, c, "INSERT INTO t (id, v) VALUES (?, ?)", 99, 990)
	if d := counter("sqlexec_plan_cache_hits_total") - hits1; d != 1 {
		t.Fatalf("repeated INSERT text not served from cache (hit delta %d)", d)
	}
}

// TestPreparedPlanInvalidation is the stale-schema proof: ALTER TABLE after
// Prepare must invalidate the cached plan, so the prepared statement sees
// the new schema (never results shaped by the old one).
func TestPreparedPlanInvalidation(t *testing.T) {
	c := openT(t, freshMem(t))
	mustExec(t, c, "CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT)")
	mustExec(t, c, "INSERT INTO t (id, v) VALUES (1, 10), (2, 20)")

	st, err := c.Prepare("SELECT * FROM t WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	rows, err := st.Query(1)
	if err != nil {
		t.Fatal(err)
	}
	if got := rows.Columns(); len(got) != 2 {
		t.Fatalf("pre-ALTER columns: %v", got)
	}
	rows.Close()

	mustExec(t, c, "ALTER TABLE t ADD COLUMN note VARCHAR DEFAULT 'x'")

	inval0 := counter("sqlexec_plan_cache_invalidations_total")
	rows, err = st.Query(1)
	if err != nil {
		t.Fatal(err)
	}
	cols := rows.Columns()
	if len(cols) != 3 || cols[2] != "note" {
		t.Fatalf("post-ALTER columns = %v, want stale plan replaced by 3-column schema", cols)
	}
	if !rows.Next() {
		t.Fatal("no row")
	}
	if got := rows.Value(2); got != "x" {
		t.Fatalf("new column value = %v, want default 'x'", got)
	}
	rows.Close()
	if d := counter("sqlexec_plan_cache_invalidations_total") - inval0; d < 1 {
		t.Fatalf("invalidation counter did not move (delta %d)", d)
	}
}

// TestPreparedPlanSchemaChanges: ADD COLUMN and DROP COLUMN on the base
// table or a joined table shift the row ordinals a compiled plan reads, so
// prepared SELECT * and join statements must recompile and return the rows
// the new schemas give.
func TestPreparedPlanSchemaChanges(t *testing.T) {
	c := openT(t, freshMem(t))
	mustExec(t, c, "CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT, w BIGINT)")
	mustExec(t, c, "CREATE TABLE u (id BIGINT PRIMARY KEY, t_id BIGINT, x VARCHAR, y VARCHAR)")
	mustExec(t, c, "INSERT INTO t (id, v, w) VALUES (1, 10, 100), (2, 20, 200)")
	mustExec(t, c, "INSERT INTO u (id, t_id, x, y) VALUES (1, 1, 'a', 'p'), (2, 2, 'b', 'q')")
	srcs := []string{
		"SELECT * FROM t WHERE id = ?",
		"SELECT * FROM t JOIN u ON u.t_id = t.id WHERE t.id = ?",
		"SELECT t.w, u.y FROM t JOIN u ON u.t_id = t.id WHERE t.id = ?",
	}
	stmts := make([]Stmt, len(srcs))
	for i, src := range srcs {
		st, err := c.Prepare(src)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		stmts[i] = st
	}
	steps := []struct {
		ddl  string
		want [3]string
	}{
		{"", [3]string{"[[2 20 200]]", "[[2 20 200 2 2 b q]]", "[[200 q]]"}},
		{"ALTER TABLE u ADD COLUMN z VARCHAR DEFAULT 'z'", [3]string{"[[2 20 200]]", "[[2 20 200 2 2 b q z]]", "[[200 q]]"}},
		{"ALTER TABLE t DROP COLUMN v", [3]string{"[[2 200]]", "[[2 200 2 2 b q z]]", "[[200 q]]"}},
		{"ALTER TABLE u DROP COLUMN x", [3]string{"[[2 200]]", "[[2 200 2 2 q z]]", "[[200 q]]"}},
		{"ALTER TABLE t ADD COLUMN note VARCHAR DEFAULT 'n'", [3]string{"[[2 200 n]]", "[[2 200 n 2 2 q z]]", "[[200 q]]"}},
	}
	for _, step := range steps {
		if step.ddl != "" {
			mustExec(t, c, step.ddl)
		}
		// Twice: the recompiling run and the cached-program run.
		for run := 0; run < 2; run++ {
			for i, st := range stmts {
				rows, err := st.Query(2)
				if err != nil {
					t.Fatalf("after %q: %s: %v", step.ddl, srcs[i], err)
				}
				var got [][]any
				for rows.Next() {
					r := make([]any, len(rows.Columns()))
					for j := range r {
						r[j] = rows.Value(j)
					}
					got = append(got, r)
				}
				rows.Close()
				if s := fmt.Sprint(got); s != step.want[i] {
					t.Errorf("after %q, run %d: %s = %s, want %s", step.ddl, run, srcs[i], s, step.want[i])
				}
			}
		}
	}
}

// TestPreparedPlanTracksIndexDDL: a prepared statement's memoized access
// path must follow CREATE INDEX / DROP INDEX issued after Prepare.
func TestPreparedPlanTracksIndexDDL(t *testing.T) {
	c := openT(t, freshMem(t))
	mustExec(t, c, "CREATE TABLE t (id BIGINT PRIMARY KEY, tag BIGINT, v BIGINT)")
	for i := 0; i < 50; i++ {
		mustExec(t, c, "INSERT INTO t (id, tag, v) VALUES (?, ?, ?)", i, i%7, i*3)
	}

	st, err := c.Prepare("SELECT v FROM t WHERE tag = ? ORDER BY v")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	drain := func() int {
		t.Helper()
		rows, err := st.Query(3)
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		n := 0
		for rows.Next() {
			n++
		}
		return n
	}

	want := drain() // full scan: memoizes the full-scan decision
	reuse0 := counter("sqlexec_access_plan_reuse_total")
	if got := drain(); got != want {
		t.Fatalf("repeat run rows = %d, want %d", got, want)
	}
	if d := counter("sqlexec_access_plan_reuse_total") - reuse0; d < 1 {
		t.Fatalf("memoized access path not reused (delta %d)", d)
	}

	// An index created after Prepare must be picked up (schema version bump
	// invalidates the full-scan memo and the replan finds the index).
	mustExec(t, c, "CREATE INDEX ix_tag ON t (tag)")
	idx0 := counter("sqlexec_index_access_total")
	if got := drain(); got != want {
		t.Fatalf("post-CREATE INDEX rows = %d, want %d", got, want)
	}
	if d := counter("sqlexec_index_access_total") - idx0; d < 1 {
		t.Fatal("prepared statement did not switch to the new index")
	}

	// Dropping it must not leave the plan pointing at a dead index.
	mustExec(t, c, "DROP INDEX ix_tag ON t")
	if got := drain(); got != want {
		t.Fatalf("post-DROP INDEX rows = %d, want %d", got, want)
	}
}

// TestWorkersDSNOption pins the ?workers=N contract: strict validation at
// Open, and accepted values execute queries correctly.
func TestWorkersDSNOption(t *testing.T) {
	for _, bad := range []string{"workers=abc", "workers=-1", "workers=1.5", "workers="} {
		if _, err := Open(fmt.Sprintf("mem:workers_bad?%s", bad)); err == nil {
			t.Errorf("DSN option %q accepted, want error", bad)
		} else if !strings.Contains(err.Error(), "workers") {
			t.Errorf("DSN option %q: error %v does not name the option", bad, err)
		}
	}

	name := freshMem(t)
	seed := openT(t, name)
	mustExec(t, seed, "CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT)")
	for i := 0; i < 10; i++ {
		mustExec(t, seed, "INSERT INTO t (id, v) VALUES (?, ?)", i, i)
	}
	for _, opt := range []string{"workers=0", "workers=1", "workers=8"} {
		c := openT(t, name+"?"+opt)
		_, rows := queryAll(t, c, "SELECT COUNT(*) FROM t")
		if len(rows) != 1 || rows[0][0].(int64) != 10 {
			t.Errorf("%s: COUNT = %v", opt, rows)
		}
	}
}

// TestStatementCacheEviction fills the FIFO past its bound and checks the
// cache still serves correct results (evicted texts simply reparse).
func TestStatementCacheEviction(t *testing.T) {
	c := openT(t, freshMem(t))
	mustExec(t, c, "CREATE TABLE t (id BIGINT PRIMARY KEY)")
	mustExec(t, c, "INSERT INTO t (id) VALUES (7)")
	for i := 0; i < stmtCacheMax+10; i++ {
		// Distinct texts so each occupies a cache slot.
		_, rows := queryAll(t, c, fmt.Sprintf("SELECT id FROM t WHERE id = %d", i))
		if i == 7 && len(rows) != 1 {
			t.Fatalf("query 7: %v", rows)
		}
	}
	cc := c.(*conn)
	if n := len(cc.cache.entries); n > stmtCacheMax {
		t.Fatalf("cache grew past bound: %d entries", n)
	}
	// The earliest text was evicted; re-running it still works.
	if _, rows := queryAll(t, c, "SELECT id FROM t WHERE id = 7"); len(rows) != 1 {
		t.Fatalf("evicted text rerun: %v", rows)
	}
}
