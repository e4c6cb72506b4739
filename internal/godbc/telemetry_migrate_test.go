package godbc

import (
	"strings"
	"testing"
	"time"

	"perfdmf/internal/obs"
)

// hasColumn reports through the connection's MetaData whether table has a
// column named col — the same discovery path the migration itself uses.
func hasColumn(t *testing.T, c Conn, table, col string) bool {
	t.Helper()
	cols, err := c.MetaData().Columns(table)
	if err != nil {
		t.Fatalf("MetaData().Columns(%s): %v", table, err)
	}
	for _, cl := range cols {
		if strings.EqualFold(cl.Name, col) {
			return true
		}
	}
	return false
}

// TestTelemetrySchemaMigration is the upgrade-path regression: an archive
// whose PERFDMF_SPANS was written before the span-tree columns existed
// must be migrated in place by OpenTelemetryStore (ALTER TABLE driven by
// MetaData), with the legacy rows surviving and reading back as
// NULL-parented roots next to newly-written tree rows.
func TestTelemetrySchemaMigration(t *testing.T) {
	dsn := freshMem(t)

	// Recreate the pre-migration world: the original DDL, one span row
	// written by the old code (no parent_span_id, no root_op).
	c, err := Open(dsn)
	if err != nil {
		t.Fatal(err)
	}
	for _, ddl := range telemetryDDL {
		if _, err := c.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	legacyID := int64(7)
	if _, err := c.Exec(
		`INSERT INTO PERFDMF_SPANS (span_id, kind, op, statement, dur_us) VALUES (?, ?, ?, ?, ?)`,
		legacyID, "exec", "INSERT", "INSERT INTO workload ...", int64(1234),
	); err != nil {
		t.Fatal(err)
	}
	if hasColumn(t, c, SpansTable, "parent_span_id") {
		t.Fatal("fresh base schema already has parent_span_id; migration test is vacuous")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Opening the store migrates the schema and seeds span ids above the
	// legacy maximum.
	st, err := OpenTelemetryStore(dsn, TelemetryOptions{BudgetPct: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	c2, err := Open(dsn)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	for _, m := range telemetryMigrations {
		if !hasColumn(t, c2, m.table, m.column) {
			t.Errorf("migration did not add %s.%s", m.table, m.column)
		}
	}
	if id := obs.NextSpanID(); id <= legacyID {
		t.Errorf("span ids not seeded past persisted max: next=%d", id)
	}

	// New rows written through the migrated store coexist with the legacy
	// row; a zero ParentID persists as NULL just like pre-migration rows.
	childID := legacyID + 100
	st.sink.Offer(&obs.Span{ID: childID, ParentID: legacyID, Root: "upload:mig", Kind: "exec",
		Statement: "INSERT INTO workload ...", Start: time.Now(), Total: time.Millisecond}, false)
	st.sink.Offer(&obs.Span{ID: childID + 1, Root: "upload:mig", Kind: "upload", Name: "upload:mig",
		Start: time.Now(), Total: time.Millisecond}, false)
	if err := st.Flush(); err != nil { // writer barrier: make the commit visible
		t.Fatal(err)
	}

	rows, err := c2.Query("SELECT span_id, parent_span_id FROM PERFDMF_SPANS")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	parents := map[int64]any{}
	for rows.Next() {
		id, _ := rows.Value(0).(int64)
		parents[id] = rows.Value(1)
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if len(parents) != 3 {
		t.Fatalf("got %d span rows, want 3 (legacy + 2 new): %v", len(parents), parents)
	}
	if parents[legacyID] != nil {
		t.Errorf("legacy row parent_span_id = %v, want NULL", parents[legacyID])
	}
	if got, _ := parents[childID].(int64); got != legacyID {
		t.Errorf("new child parent_span_id = %v, want %d", parents[childID], legacyID)
	}
	if parents[childID+1] != nil {
		t.Errorf("new root parent_span_id = %v, want NULL", parents[childID+1])
	}

	// The trace reader's contract: NULL parents become roots, real parents
	// become edges — the legacy row is a root with the new child under it.
	spans := []*obs.Span{
		{ID: legacyID},
		{ID: childID, ParentID: legacyID},
		{ID: childID + 1},
	}
	trees := obs.BuildTrees(spans)
	if len(trees) != 2 {
		t.Fatalf("got %d roots, want 2", len(trees))
	}
	if trees[0].ID != legacyID || len(trees[0].Children) != 1 || trees[0].Children[0].ID != childID {
		t.Errorf("legacy root did not adopt migrated child: %+v", trees[0])
	}
}
