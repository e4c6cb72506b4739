package godbc

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

var memCounter int

// freshMem returns a DSN for a brand-new shared in-memory database.
func freshMem(t *testing.T) string {
	t.Helper()
	memCounter++
	return fmt.Sprintf("mem:godbc_test_%s_%d", t.Name(), memCounter)
}

func openT(t *testing.T, dsn string) Conn {
	t.Helper()
	c, err := Open(dsn)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestOpenErrors(t *testing.T) {
	if _, err := Open("nocolon"); err == nil {
		t.Error("malformed DSN accepted")
	}
	if _, err := Open("oracle:whatever"); err == nil {
		t.Error("unknown driver accepted")
	}
	if _, err := Open("file:"); err == nil {
		t.Error("empty file path accepted")
	}
	if _, err := Open("file:/tmp/x?checkpoint=abc"); err == nil {
		t.Error("bad option accepted")
	}
}

func TestExecQueryScan(t *testing.T) {
	c := openT(t, freshMem(t))
	if _, err := c.Exec(`CREATE TABLE m (id BIGINT PRIMARY KEY AUTO_INCREMENT,
		name VARCHAR, val DOUBLE, ok BOOLEAN, at TIMESTAMP)`); err != nil {
		t.Fatal(err)
	}
	when := time.Date(2005, 8, 1, 0, 0, 0, 0, time.UTC)
	res, err := c.Exec("INSERT INTO m (name, val, ok, at) VALUES (?, ?, ?, ?)",
		"TIME", 1.25, true, when)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 1 || res.LastInsertID != 1 {
		t.Fatalf("result: %+v", res)
	}
	rows, err := c.Query("SELECT id, name, val, ok, at FROM m WHERE id = ?", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if got := rows.Columns(); len(got) != 5 || got[1] != "name" {
		t.Fatalf("columns: %v", got)
	}
	if !rows.Next() {
		t.Fatal("no row")
	}
	var (
		id   int64
		name string
		val  float64
		ok   bool
		at   time.Time
	)
	if err := rows.Scan(&id, &name, &val, &ok, &at); err != nil {
		t.Fatal(err)
	}
	if id != 1 || name != "TIME" || val != 1.25 || !ok || !at.Equal(when) {
		t.Fatalf("scanned: %d %s %g %v %v", id, name, val, ok, at)
	}
	if rows.Next() {
		t.Fatal("extra row")
	}
}

func TestScanErrors(t *testing.T) {
	c := openT(t, freshMem(t))
	c.Exec("CREATE TABLE t (a BIGINT)")
	c.Exec("INSERT INTO t VALUES (1)")
	rows, _ := c.Query("SELECT a FROM t")
	var x int64
	if err := rows.Scan(&x); err == nil {
		t.Error("Scan before Next should fail")
	}
	rows.Next()
	var y, z int64
	if err := rows.Scan(&y, &z); err == nil {
		t.Error("wrong arity should fail")
	}
	var ch chan int
	if err := rows.Scan(&ch); err == nil {
		t.Error("unsupported dest should fail")
	}
}

func TestPreparedStatements(t *testing.T) {
	c := openT(t, freshMem(t))
	c.Exec("CREATE TABLE t (id BIGINT PRIMARY KEY AUTO_INCREMENT, n BIGINT)")
	ins, err := c.Prepare("INSERT INTO t (n) VALUES (?)")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := ins.Exec(i * i); err != nil {
			t.Fatal(err)
		}
	}
	ins.Close()
	if _, err := ins.Exec(1); err == nil {
		t.Error("closed statement usable")
	}
	sel, err := c.Prepare("SELECT COUNT(*) FROM t WHERE n >= ?")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := sel.Query(50 * 50)
	if err != nil {
		t.Fatal(err)
	}
	rows.Next()
	var n int64
	rows.Scan(&n)
	if n != 50 {
		t.Fatalf("count = %d", n)
	}
}

func TestTransactions(t *testing.T) {
	c := openT(t, freshMem(t))
	c.Exec("CREATE TABLE t (a BIGINT)")
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := c.Begin(); err == nil {
		t.Error("nested Begin allowed")
	}
	c.Exec("INSERT INTO t VALUES (1)")
	// Queries inside the transaction see its writes.
	rows, err := c.Query("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	rows.Next()
	var n int64
	rows.Scan(&n)
	if n != 1 {
		t.Fatalf("in-tx count = %d", n)
	}
	if err := c.Rollback(); err != nil {
		t.Fatal(err)
	}
	rows, _ = c.Query("SELECT COUNT(*) FROM t")
	rows.Next()
	rows.Scan(&n)
	if n != 0 {
		t.Fatalf("post-rollback count = %d", n)
	}
	// SQL-level transaction control.
	c.Exec("BEGIN")
	c.Exec("INSERT INTO t VALUES (2)")
	c.Exec("COMMIT")
	rows, _ = c.Query("SELECT COUNT(*) FROM t")
	rows.Next()
	rows.Scan(&n)
	if n != 1 {
		t.Fatalf("post-commit count = %d", n)
	}
	if err := c.Commit(); err == nil {
		t.Error("Commit without Begin allowed")
	}
}

// TestTryBegin pins the non-blocking transaction contract the telemetry
// writer depends on: ok=false (no error) while another connection holds
// the engine's write lock, ok=true once it is released, and the same
// refusals as Begin for read-only connections and open transactions.
func TestTryBegin(t *testing.T) {
	dsn := freshMem(t)
	c1 := openT(t, dsn)
	c2 := openT(t, dsn)
	c1.Exec("CREATE TABLE t (a BIGINT)")

	trier := c2.(*conn)

	// Uncontended: TryBegin opens a real transaction.
	if ok, err := trier.TryBegin(); err != nil || !ok {
		t.Fatalf("uncontended TryBegin = (%v, %v), want (true, nil)", ok, err)
	}
	if _, err := c2.Exec("INSERT INTO t VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	// A transaction is already open on this connection: refused with error,
	// exactly like Begin.
	if ok, err := trier.TryBegin(); err == nil || ok {
		t.Fatalf("TryBegin inside open tx = (%v, %v), want (false, error)", ok, err)
	}
	if err := c2.Commit(); err != nil {
		t.Fatal(err)
	}

	// Contended: c1 holds the write lock; TryBegin yields instead of
	// queueing, with no error.
	if err := c1.Begin(); err != nil {
		t.Fatal(err)
	}
	if ok, err := trier.TryBegin(); err != nil || ok {
		t.Fatalf("contended TryBegin = (%v, %v), want (false, nil)", ok, err)
	}
	if err := c1.Commit(); err != nil {
		t.Fatal(err)
	}
	if ok, err := trier.TryBegin(); err != nil || !ok {
		t.Fatalf("TryBegin after release = (%v, %v), want (true, nil)", ok, err)
	}
	if err := c2.Rollback(); err != nil {
		t.Fatal(err)
	}

	// Read-only connections refuse transactions outright.
	ro := openT(t, dsn+"?readonly=1")
	if ok, err := ro.(*conn).TryBegin(); err == nil || ok {
		t.Fatalf("read-only TryBegin = (%v, %v), want (false, error)", ok, err)
	}
}

func TestSharedMemoryDatabase(t *testing.T) {
	dsn := freshMem(t)
	c1 := openT(t, dsn)
	c2 := openT(t, dsn)
	c1.Exec("CREATE TABLE t (a BIGINT)")
	c1.Exec("INSERT INTO t VALUES (42)")
	rows, err := c2.Query("SELECT a FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatal("second connection does not see shared data")
	}
}

func TestFileDriverDurability(t *testing.T) {
	dir := t.TempDir()
	dsn := "file:" + dir
	c := openT(t, dsn)
	c.Exec("CREATE TABLE t (a BIGINT)")
	c.Exec("INSERT INTO t VALUES (7)")
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c2 := openT(t, dsn)
	rows, err := c2.Query("SELECT a FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatal("data lost across reopen")
	}
	var a int64
	rows.Scan(&a)
	if a != 7 {
		t.Fatalf("a = %d", a)
	}
}

func TestFileDriverSharedHandle(t *testing.T) {
	dir := t.TempDir()
	dsn := "file:" + dir + "?checkpoint=1000"
	c1 := openT(t, dsn)
	c2 := openT(t, dsn)
	c1.Exec("CREATE TABLE t (a BIGINT)")
	rows, err := c2.Query("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatalf("second handle does not share engine: %v", err)
	}
	rows.Next()
	// Closing one connection keeps the engine open for the other.
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Exec("INSERT INTO t VALUES (1)"); err != nil {
		t.Fatalf("engine closed too early: %v", err)
	}
}

func TestMetaData(t *testing.T) {
	c := openT(t, freshMem(t))
	c.Exec(`CREATE TABLE application (
		id BIGINT PRIMARY KEY AUTO_INCREMENT,
		name VARCHAR NOT NULL,
		version VARCHAR DEFAULT 'unknown')`)
	c.Exec("CREATE INDEX ix_name ON application (name) USING btree")
	md := c.MetaData()
	tables, err := md.Tables()
	if err != nil || len(tables) != 1 || tables[0] != "application" {
		t.Fatalf("tables: %v %v", tables, err)
	}
	cols, err := md.Columns("application")
	if err != nil || len(cols) != 3 {
		t.Fatalf("columns: %v %v", cols, err)
	}
	if !cols[0].PrimaryKey || !cols[0].AutoIncrement || cols[0].Type != "BIGINT" {
		t.Errorf("id: %+v", cols[0])
	}
	if !cols[1].NotNull || cols[1].Type != "VARCHAR" {
		t.Errorf("name: %+v", cols[1])
	}
	if cols[2].Default != "unknown" {
		t.Errorf("version default: %+v", cols[2])
	}
	ixs, err := md.Indexes("application")
	if err != nil || len(ixs) != 1 || ixs[0].Kind != "BTREE" || ixs[0].Column != "name" {
		t.Fatalf("indexes: %v %v", ixs, err)
	}
	// The flexible-schema flow: add a column, see it via metadata.
	c.Exec("ALTER TABLE application ADD COLUMN compiler VARCHAR")
	cols, _ = md.Columns("application")
	if len(cols) != 4 || cols[3].Name != "compiler" {
		t.Fatalf("columns after ALTER: %v", cols)
	}
	if _, err := md.Columns("nosuch"); err == nil {
		t.Error("metadata for missing table")
	}
}

func TestClosedConn(t *testing.T) {
	c := openT(t, freshMem(t))
	c.Exec("CREATE TABLE t (a BIGINT)")
	c.Close()
	if _, err := c.Exec("INSERT INTO t VALUES (1)"); err == nil {
		t.Error("Exec on closed conn")
	}
	if _, err := c.Query("SELECT * FROM t"); err == nil {
		t.Error("Query on closed conn")
	}
	if err := c.Close(); err != nil {
		t.Error("double close should be a no-op")
	}
}

func TestCloseRollsBackOpenTx(t *testing.T) {
	dsn := freshMem(t)
	c := openT(t, dsn)
	c.Exec("CREATE TABLE t (a BIGINT)")
	c.Begin()
	c.Exec("INSERT INTO t VALUES (1)")
	c.Close()
	c2 := openT(t, dsn)
	rows, _ := c2.Query("SELECT COUNT(*) FROM t")
	rows.Next()
	var n int64
	rows.Scan(&n)
	if n != 0 {
		t.Fatalf("uncommitted data survived Close: %d", n)
	}
}

func TestQueryExecMismatch(t *testing.T) {
	c := openT(t, freshMem(t))
	c.Exec("CREATE TABLE t (a BIGINT)")
	if _, err := c.Exec("SELECT * FROM t"); err == nil || !strings.Contains(err.Error(), "Query") {
		t.Errorf("Exec(SELECT): %v", err)
	}
	if _, err := c.Query("INSERT INTO t VALUES (1)"); err == nil {
		t.Error("Query(INSERT) accepted")
	}
}

func TestExplainThroughConn(t *testing.T) {
	c := openT(t, freshMem(t))
	c.Exec("CREATE TABLE t (id BIGINT PRIMARY KEY AUTO_INCREMENT, v DOUBLE)")
	c.Exec("INSERT INTO t (v) VALUES (1.5), (2.5)")
	rows, err := c.Query("EXPLAIN SELECT * FROM t WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if got := rows.Columns(); len(got) != 1 || got[0] != "plan" {
		t.Fatalf("columns: %v", got)
	}
	if !rows.Next() {
		t.Fatal("empty plan")
	}
	var line string
	rows.Scan(&line)
	if !strings.Contains(line, "index access") {
		t.Fatalf("plan: %q", line)
	}
}
