package sqlexec

import (
	"strings"
	"testing"

	"perfdmf/internal/obs"
	"perfdmf/internal/reldb"
	"perfdmf/internal/sqlparse"
)

// explainPlan runs EXPLAIN and returns the plan lines.
func explainPlan(t *testing.T, db *reldb.DB, src string, params ...any) []string {
	t.Helper()
	st, err := sqlparse.Parse("EXPLAIN " + src)
	if err != nil {
		t.Fatal(err)
	}
	ex := st.(*sqlparse.Explain)
	vals := make([]reldb.Value, len(params))
	for i, p := range params {
		vals[i] = reldb.FromGo(p)
	}
	var lines []string
	err = db.Read(func(tx *reldb.Tx) error {
		rs, err := Explain(tx, ex.Select, vals)
		if err != nil {
			return err
		}
		for _, row := range rs.Rows {
			lines = append(lines, row[0].S)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return lines
}

func hasLine(lines []string, substr string) bool {
	for _, l := range lines {
		if strings.Contains(l, substr) {
			return true
		}
	}
	return false
}

func TestExplainAccessPaths(t *testing.T) {
	db := fixture(t)
	// Point lookup through the PK index.
	plan := explainPlan(t, db, "SELECT name FROM trial WHERE id = 3")
	if !hasLine(plan, "index access (1 candidate rows)") {
		t.Fatalf("pk plan: %v", plan)
	}
	// The index answers that equality exactly: no WHERE re-check. A second
	// conjunct needs one.
	if hasLine(plan, "filter: WHERE re-checked per row") {
		t.Fatalf("exact pk plan re-checks WHERE: %v", plan)
	}
	plan = explainPlan(t, db, "SELECT name FROM trial WHERE id = 3 AND time > 0")
	if !hasLine(plan, "index access (1 candidate rows)") || !hasLine(plan, "filter: WHERE re-checked per row") {
		t.Fatalf("pk plan with a residual conjunct: %v", plan)
	}
	// No usable predicate → full scan.
	plan = explainPlan(t, db, "SELECT name FROM trial WHERE time > 5.0")
	if !hasLine(plan, "full scan") {
		t.Fatalf("scan plan: %v", plan)
	}
	// Ordered index enables range access.
	run(t, db, "CREATE INDEX ix_nodes ON trial (node_count) USING btree")
	plan = explainPlan(t, db, "SELECT name FROM trial WHERE node_count >= 256")
	if !hasLine(plan, "index access") {
		t.Fatalf("range plan: %v", plan)
	}
	// IN over an indexed column.
	plan = explainPlan(t, db, "SELECT name FROM trial WHERE node_count IN (128, 512)")
	if !hasLine(plan, "index access (3 candidate rows)") {
		t.Fatalf("in plan: %v", plan)
	}
	// Parameters participate in planning.
	plan = explainPlan(t, db, "SELECT name FROM trial WHERE id = ?", 1)
	if !hasLine(plan, "index access (1 candidate rows)") {
		t.Fatalf("param plan: %v", plan)
	}
}

func TestExplainJoins(t *testing.T) {
	db := fixture(t)
	plan := explainPlan(t, db, `
		SELECT a.name FROM application a
		JOIN trial t ON t.application = a.id`)
	if !hasLine(plan, "inner hash join trial AS t") {
		t.Fatalf("hash join plan: %v", plan)
	}
	plan = explainPlan(t, db, `
		SELECT a.name FROM application a
		LEFT JOIN trial t ON t.application < a.id`)
	if !hasLine(plan, "left nested-loop join trial AS t") {
		t.Fatalf("nested loop plan: %v", plan)
	}
	// Pipeline steps reported.
	plan = explainPlan(t, db, `
		SELECT application, COUNT(*) FROM trial
		WHERE node_count > 0 GROUP BY application ORDER BY 2 LIMIT 1`)
	for _, want := range []string{"filter", "aggregate", "sort", "limit"} {
		if !hasLine(plan, want) {
			t.Errorf("plan missing %q: %v", want, plan)
		}
	}
}

func TestExplainAnalyze(t *testing.T) {
	db := fixture(t)
	st, err := sqlparse.Parse("EXPLAIN ANALYZE SELECT name FROM trial WHERE id = 3")
	if err != nil {
		t.Fatal(err)
	}
	ex := st.(*sqlparse.Explain)
	if !ex.Analyze {
		t.Fatal("ANALYZE flag not parsed")
	}
	var lines []string
	err = db.Read(func(tx *reldb.Tx) error {
		rs, err := ExplainAnalyze(tx, ex.Select, nil)
		if err != nil {
			return err
		}
		for _, row := range rs.Rows {
			lines = append(lines, row[0].S)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Static plan first, then measured rows.
	if !hasLine(lines, "index access (1 candidate rows)") {
		t.Fatalf("static plan missing: %v", lines)
	}
	for _, want := range []string{
		"actual: plan=", "execute=", "materialize=", "total=",
		"rows scanned=1, rows returned=1 (index access)",
	} {
		if !hasLine(lines, want) {
			t.Errorf("analyze output missing %q: %v", want, lines)
		}
	}

	// Full-scan query reports the scan and the scanned/returned asymmetry.
	st, err = sqlparse.Parse("EXPLAIN ANALYZE SELECT name FROM trial WHERE time > 0.0")
	if err != nil {
		t.Fatal(err)
	}
	lines = nil
	err = db.Read(func(tx *reldb.Tx) error {
		rs, err := ExplainAnalyze(tx, st.(*sqlparse.Explain).Select, nil)
		if err != nil {
			return err
		}
		for _, row := range rs.Rows {
			lines = append(lines, row[0].S)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !hasLine(lines, "(full scan)") {
		t.Fatalf("full-scan analyze output: %v", lines)
	}
}

func TestQueryTracedSpan(t *testing.T) {
	db := fixture(t)
	st, err := sqlparse.Parse("SELECT name FROM trial WHERE id = 3")
	if err != nil {
		t.Fatal(err)
	}
	sp := &obs.Span{}
	err = db.Read(func(tx *reldb.Tx) error {
		_, err := QueryTraced(tx, st.(*sqlparse.Select), nil, sp)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sp.IndexUsed || sp.RowsScanned != 1 || sp.RowsReturned != 1 {
		t.Fatalf("span = %+v", sp)
	}
	if sp.Plan <= 0 || sp.Execute <= 0 || sp.Materialize <= 0 {
		t.Fatalf("phase timings not recorded: %+v", sp)
	}
}

func TestExplainErrors(t *testing.T) {
	db := fixture(t)
	st, err := sqlparse.Parse("EXPLAIN SELECT * FROM nosuch")
	if err != nil {
		t.Fatal(err)
	}
	err = db.Read(func(tx *reldb.Tx) error {
		_, err := Explain(tx, st.(*sqlparse.Explain).Select, nil)
		return err
	})
	if err == nil {
		t.Fatal("missing table accepted")
	}
	if _, err := sqlparse.Parse("EXPLAIN INSERT INTO t VALUES (1)"); err == nil {
		t.Fatal("EXPLAIN INSERT accepted")
	}
}

// TestExplainCatalog: EXPLAIN resolves the virtual catalog tables — as the
// base reference and as a join side — without touching storage.
func TestExplainCatalog(t *testing.T) {
	db := fixture(t)
	plan := explainPlan(t, db, "SELECT * FROM OBS_METRICS WHERE kind = 'counter'")
	if !hasLine(plan, "catalog (virtual table materialized at bind)") {
		t.Fatalf("catalog plan: %v", plan)
	}
	plan = explainPlan(t, db,
		"SELECT s.table_name, t.name FROM OBS_TABLE_STATS s JOIN trial t ON s.row_count = t.id")
	if !hasLine(plan, "base OBS_TABLE_STATS AS s: catalog") || !hasLine(plan, "hash join trial") {
		t.Fatalf("catalog join plan: %v", plan)
	}
}
