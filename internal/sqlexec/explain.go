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

	// The compiled program carries the WHERE and each join's equality key.
	c, _, err := compileSelect(tx, st, params)
	if err != nil {
		return nil, err
	}
	recheck := true // an exact index answer needs no WHERE re-check
	if st.From.Sub != nil {
		add("base %s: derived table (subquery materialized)", describeRef(st.From))
	} else if virtualRef(st.From) {
		add("base %s: catalog (virtual table materialized at bind)", describeRef(st.From))
	} else {
		slots, dec, err := planAccess(tx, st.From.Table, c.where, params)
		if err != nil {
			return nil, err
		}
		step := "full scan"
		if dec.kind != accessFullScan {
			step = fmt.Sprintf("index access (%d candidate rows)", len(slots)) + dec.via()
		}
		add("base %s: %s", describeRef(st.From), step)
		recheck = !dec.exact
	}

	for i, join := range st.Joins {
		kind := joinKind(join)
		if jp := c.joins[i]; jp.keyed {
			step := fmt.Sprintf("%s hash join %s (build %s, key cols %d=%d)",
				kind, describeRef(join.TableRef), join.Table, jp.leftPos, jp.rightPos)
			if ix, n := joinIndex(tx, join, true, jp.rightPos); ix != "" {
				step += fmt.Sprintf(", or index nested-loop join via %s when the left side has fewer than %d rows", ix, n)
			}
			add("%s", step)
		} else {
			add("%s nested-loop join %s", kind, describeRef(join.TableRef))
		}
	}
	if st.Where != nil && recheck {
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

