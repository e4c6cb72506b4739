package sqlexec

import (
	"fmt"

	"perfdmf/internal/obs"
	"perfdmf/internal/reldb"
	"perfdmf/internal/sqlparse"
)

// Explain describes, without executing the query, the access path the
// executor would take: the base-table strategy (index point lookup, index
// range scan, IN-union, or full scan) and the algorithm for each join
// (hash join on its equality key, or nested loop). A keyed join whose right
// table has an equality index on the key also names that index and the
// left-side row count below which the executor probes it instead of
// hashing; the choice is made at run time, and EXPLAIN ANALYZE reports it.
// The result is a single "plan" column with one row per step.
func Explain(tx *reldb.Tx, st *sqlparse.Select, params []reldb.Value) (*ResultSet, error) {
	rs := &ResultSet{Cols: []string{"plan"}}
	add := func(format string, args ...any) {
		rs.Rows = append(rs.Rows, []reldb.Value{reldb.Str(fmt.Sprintf(format, args...))})
	}

	if st.From.Sub != nil {
		add("base %s: derived table (subquery materialized)", describeRef(st.From))
	} else if virtualRef(st.From) {
		add("base %s: catalog (virtual table materialized at bind)", describeRef(st.From))
	} else {
		baseAlias := aliasOr(st.From.Alias, st.From.Table)
		if _, err := tx.Table(st.From.Table); err != nil {
			return nil, err
		}
		step, err := explainAccess(tx, st.From.Table, baseAlias, st.Where, params, len(st.Joins) > 0)
		if err != nil {
			return nil, err
		}
		add("base %s: %s", describeRef(st.From), step)
	}

	// Replicate the executor's binding order to classify each join.
	cols := newColmap()
	if err := bindRef(tx, cols, st.From, params); err != nil {
		return nil, err
	}
	for _, join := range st.Joins {
		leftWidth := cols.width
		if err := bindRef(tx, cols, join.TableRef, params); err != nil {
			return nil, err
		}
		kind := joinKind(join)
		if l, r, ok := findHashKey(cols, leftWidth, join.On); ok {
			step := fmt.Sprintf("%s hash join %s (build %s, key cols %d=%d)",
				kind, describeRef(join.TableRef), join.Table, l, r)
			if ix, n := joinIndex(tx, join, true, r); ix != "" {
				step += fmt.Sprintf(", or index nested-loop join via %s when the left side has fewer than %d rows", ix, n)
			}
			add("%s", step)
		} else {
			add("%s nested-loop join %s", kind, describeRef(join.TableRef))
		}
	}
	if st.Where != nil {
		add("filter: WHERE re-checked per row")
	}
	if len(st.GroupBy) > 0 || st.Having != nil {
		add("aggregate: group and fold")
	}
	if len(st.OrderBy) > 0 {
		add("sort: ORDER BY over %d key(s)", len(st.OrderBy))
	}
	if st.Limit != nil || st.Offset != nil {
		add("limit/offset")
	}
	return rs, nil
}

// ExplainAnalyze renders the static plan, then actually runs the query with
// a span attached and appends the measured phase timings, row counts and
// access-path outcome (including the parallel(n) fan-out when the executor
// used worker goroutines). The query's rows are discarded; only the
// annotated plan is returned.
func ExplainAnalyze(tx *reldb.Tx, st *sqlparse.Select, params []reldb.Value) (*ResultSet, error) {
	return ExplainAnalyzeOpts(tx, st, params, Options{})
}

// ExplainAnalyzeOpts is ExplainAnalyze with explicit execution options, so
// a connection's workers setting shapes the measured run.
func ExplainAnalyzeOpts(tx *reldb.Tx, st *sqlparse.Select, params []reldb.Value, opts Options) (*ResultSet, error) {
	rs, err := Explain(tx, st, params)
	if err != nil {
		return nil, err
	}
	add := func(format string, args ...any) {
		rs.Rows = append(rs.Rows, []reldb.Value{reldb.Str(fmt.Sprintf(format, args...))})
	}

	sp := &obs.Span{Kind: "query", Start: now()}
	if _, err := QueryOpts(tx, st, params, sp, opts); err != nil {
		return nil, err
	}
	sp.Total = since(sp.Start)
	access := "full scan"
	if sp.PlanSummary != "" {
		access = sp.PlanSummary
	} else if sp.IndexUsed {
		access = "index access"
	}
	add("actual: plan=%v execute=%v materialize=%v total=%v",
		sp.Plan, sp.Execute, sp.Materialize, sp.Total)
	add("actual: rows scanned=%d, rows returned=%d (%s)",
		sp.RowsScanned, sp.RowsReturned, access)
	return rs, nil
}

func describeRef(tr sqlparse.TableRef) string {
	if tr.Alias != "" && tr.Alias != tr.Table {
		return tr.Table + " AS " + tr.Alias
	}
	return tr.Table
}

func bindRef(tx *reldb.Tx, cols *colmap, tr sqlparse.TableRef, params []reldb.Value) error {
	if tr.Sub != nil {
		// Only the column names are needed for join-key classification.
		rs, err := Query(tx, tr.Sub, params)
		if err != nil {
			return err
		}
		cols.bindNames(aliasOr(tr.Alias, tr.Table), rs.Cols)
		return nil
	}
	if def := catalogTable(tr.Table); def != nil {
		cols.bindNames(aliasOr(tr.Alias, tr.Table), def.cols)
		return nil
	}
	tbl, err := tx.Table(tr.Table)
	if err != nil {
		return err
	}
	cols.bind(aliasOr(tr.Alias, tr.Table), tr.Table, tbl.Schema())
	return nil
}

// explainAccess mirrors planAccess's preference order but reports the
// decision instead of collecting slots.
func explainAccess(tx *reldb.Tx, table, alias string, where sqlparse.Expr, params []reldb.Value, requireQualified bool) (string, error) {
	slots, dec, err := planAccess(tx, table, alias, where, params, requireQualified)
	if err != nil {
		return "", err
	}
	if dec.kind == accessFullScan {
		return "full scan", nil
	}
	return fmt.Sprintf("index access (%d candidate rows)", len(slots)), nil
}

// findHashKey returns the positions of an equality pair usable for a hash
// join: leftPos resolves inside the already-bound prefix, rightPos inside
// the newly-bound table. It mirrors the detection in execJoin.
func findHashKey(cols *colmap, leftWidth int, on sqlparse.Expr) (leftPos, rightPos int, ok bool) {
	for _, c := range splitAnd(on) {
		b, isBin := c.(*sqlparse.Binary)
		if !isBin || b.Op != sqlparse.OpEq {
			continue
		}
		lc, lok := b.L.(*sqlparse.ColRef)
		rc, rok := b.R.(*sqlparse.ColRef)
		if !lok || !rok {
			continue
		}
		lp, lerr := cols.resolve(lc)
		rp, rerr := cols.resolve(rc)
		if lerr != nil || rerr != nil {
			continue
		}
		switch {
		case lp < leftWidth && rp >= leftWidth:
			return lp, rp - leftWidth, true
		case rp < leftWidth && lp >= leftWidth:
			return rp, lp - leftWidth, true
		}
	}
	return 0, 0, false
}
