package godbc

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// TestCursorIsolation reads part of a column-reference cursor, runs
// DROP COLUMN, UPDATE, DELETE and INSERT on its table from another
// connection and goroutine, then reads the rest. Every writer must finish
// while the cursor is open — it holds no lock between Next calls — and the
// cursor must return exactly the rows as they were before the writes.
func TestCursorIsolation(t *testing.T) {
	dsn := freshMem(t)
	c := openT(t, dsn)
	if _, err := c.Exec(`CREATE TABLE t (id INTEGER PRIMARY KEY, g INTEGER, x DOUBLE, note VARCHAR)`); err != nil {
		t.Fatal(err)
	}
	const n = 200
	var want [][]any
	for i := 0; i < n; i++ {
		row := []any{int64(i), int64(i % 7), float64(i) / 4, fmt.Sprintf("n%d", i)}
		if _, err := c.Exec(`INSERT INTO t (id, g, x, note) VALUES (?, ?, ?, ?)`, row...); err != nil {
			t.Fatal(err)
		}
		want = append(want, row)
	}

	rs, err := c.Query(`SELECT id, g, x, note FROM t WHERE g >= ?`, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if cur := rs.(*rows); cur.rs.Ords == nil {
		t.Fatal("a SELECT of plain columns did not return a column-reference cursor")
	}
	var got [][]any
	read := func(limit int) {
		t.Helper()
		for len(got) < limit && rs.Next() {
			var id, g int64
			var x float64
			var note string
			if err := rs.Scan(&id, &g, &x, &note); err != nil {
				t.Fatal(err)
			}
			got = append(got, []any{id, g, x, note})
		}
	}
	read(n / 4)

	w := openT(t, dsn)
	done := make(chan error, 1)
	go func() {
		for _, q := range []string{
			// First, while the table still holds the rows the cursor
			// references: dropping a middle column shifts later cells.
			`ALTER TABLE t DROP COLUMN g`,
			`UPDATE t SET x = x + 1, note = 'updated'`,
			`DELETE FROM t WHERE id % 7 = 3`,
			`INSERT INTO t (id, x, note) VALUES (1000, 1.5, 'new')`,
		} {
			if _, err := w.Exec(q); err != nil {
				done <- fmt.Errorf("%s: %w", q, err)
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("writers did not finish while the cursor was open")
	}

	read(2 * n)
	if err := rs.Err(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cursor rows changed under concurrent writes:\ngot  %v\nwant %v", got, want)
	}
	// The writes themselves landed.
	kept := 1 // the inserted row
	for i := 0; i < n; i++ {
		if i%7 != 3 {
			kept++
		}
	}
	var count int64
	after, err := c.Query(`SELECT COUNT(*) FROM t WHERE x >= 1.0`)
	if err != nil {
		t.Fatal(err)
	}
	defer after.Close()
	if !after.Next() || after.Scan(&count) != nil || count != int64(kept) || len(after.Columns()) != 1 {
		t.Fatalf("rows after the writes: %d, want %d", count, kept)
	}
	if _, err := c.Query(`SELECT g FROM t`); err == nil {
		t.Fatal("DROP COLUMN did not land")
	}
}
