package sqlexec

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"perfdmf/internal/obs"
	"perfdmf/internal/reldb"
	"perfdmf/internal/sqlparse"
)

// inListFixture returns the planner-equivalence tables (one indexed, one
// bare, identical slot for slot) after deletes and re-inserts have freed
// and refilled slots, so that ids no longer rise with slots and the
// indexed table's slot lists are out of slot order.
func inListFixture(t *testing.T) (indexed, bare *reldb.DB) {
	t.Helper()
	indexed, bare = buildEquivDBs(t, rand.New(rand.NewSource(23)), 300)
	for _, db := range []*reldb.DB{indexed, bare} {
		run(t, db, "DELETE FROM t WHERE b % 3 = 1")
		for i := 0; i < 40; i++ {
			run(t, db, "INSERT INTO t (a, b, c, s) VALUES (?, ?, ?, 's9')", i%10, i%20, float64(i)/3)
		}
	}
	return indexed, bare
}

// slotOrderedIDs runs SELECT id ... and returns the ids in result order.
func slotOrderedIDs(t *testing.T, db *reldb.DB, src string, sp *obs.Span) []int64 {
	t.Helper()
	st, err := sqlparse.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	var ids []int64
	if err := db.Read(func(tx *reldb.Tx) error {
		rs, err := QueryTraced(tx, st.(*sqlparse.Select), nil, sp)
		for _, row := range rs.Rows {
			ids = append(ids, row[0].AsInt())
		}
		return err
	}); err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	return ids
}

// TestInListAccess checks IN-list and IN-subquery access on an indexed
// column against the bare table's full scan, row for row in order: a full
// scan returns rows in ascending slot order, and the two tables hold the
// same rows in the same slots. It also checks which access each predicate
// takes, and that an exact in-list scans only the rows it returns.
func TestInListAccess(t *testing.T) {
	indexed, bare := inListFixture(t)
	for _, tc := range []struct {
		where string
		kind  accessKind
		exact bool
	}{
		{"a IN (3, 3, NULL, 5)", accessInList, true},
		{"a IN (1, 1.0, 2, 2.0)", accessInList, true},
		{"a IN (1.5, 4)", accessInList, true},
		{"a IN (NULL)", accessInList, true},
		{"a IN (SELECT a FROM t WHERE b < 5)", accessInList, true},
		{"a IN (SELECT b FROM t WHERE b < 4)", accessInList, true},
		{"a NOT IN (1, 2)", accessFullScan, false},
		{"a NOT IN (SELECT a FROM t WHERE b < 5)", accessFullScan, false},
		{"a IN (1, 2) AND c > 20.0", accessInList, false},
		{"c > 20.0 AND a IN (SELECT a FROM t WHERE s = 's9')", accessInList, false},
		{"a IN (1, 9007199254740993.0)", accessFullScan, false},
	} {
		src := "SELECT id FROM t WHERE " + tc.where
		sp := &obs.Span{}
		got := slotOrderedIDs(t, indexed, src, sp)
		want := slotOrderedIDs(t, bare, src, nil)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\nindexed %v\nscan    %v", tc.where, got, want)
		}
		st, err := sqlparse.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		var dec accessDecision
		var slots []int
		if err := indexed.Read(func(tx *reldb.Tx) error {
			prog, _, err := compileSelect(tx, st.(*sqlparse.Select), nil)
			if err == nil {
				slots, dec, err = planAccess(tx, "t", prog.where, nil)
			}
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if dec.kind != tc.kind || dec.exact != tc.exact {
			t.Errorf("%s: access kind %d exact %v, want kind %d exact %v", tc.where, dec.kind, dec.exact, tc.kind, tc.exact)
		}
		for i := 1; i < len(slots); i++ {
			if slots[i] <= slots[i-1] {
				t.Fatalf("%s: slots out of order or repeated: %v", tc.where, slots)
			}
		}
		if tc.exact {
			if sp.PlanSummary != "index access via exact in-list" || sp.RowsScanned != sp.RowsReturned {
				t.Errorf("%s: plan %q, %d rows scanned for %d returned", tc.where, sp.PlanSummary, sp.RowsScanned, sp.RowsReturned)
			}
		}
	}
	// EXPLAIN ANALYZE names the exact in-list and scans what it returns.
	src := "SELECT id FROM t WHERE a IN (SELECT a FROM t WHERE b < 5)"
	text := explainAnalyzeText(t, indexed, src, 1)
	n := len(slotOrderedIDs(t, bare, src, nil))
	if !strings.Contains(text, "candidate rows) via exact in-list") || strings.Contains(text, "filter: WHERE re-checked per row") ||
		!strings.Contains(text, fmt.Sprintf("rows scanned=%d, rows returned=%d (index access via exact in-list)", n, n)) {
		t.Fatalf("EXPLAIN ANALYZE:\n%s", text)
	}
}

// TestInListDelete: DELETE through an exact IN-subquery access removes
// exactly what the full scan removes, in ascending slot order, so both
// tables reuse the same freed slots afterwards.
func TestInListDelete(t *testing.T) {
	indexed, bare := inListFixture(t)
	for _, db := range []*reldb.DB{indexed, bare} {
		run(t, db, "DELETE FROM t WHERE a IN (SELECT a FROM t WHERE b = 4)")
		for i := 0; i < 30; i++ {
			run(t, db, "INSERT INTO t (a, b, c, s) VALUES (?, 99, 0.5, 's8')", i%4)
		}
	}
	src := "SELECT id FROM t WHERE c > -1.0"
	if got, want := slotOrderedIDs(t, indexed, src, nil), slotOrderedIDs(t, bare, src, nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("after DELETE and re-insert:\nindexed %v\nscan    %v", got, want)
	}
}
