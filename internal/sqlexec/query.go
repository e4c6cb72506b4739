package sqlexec

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"perfdmf/internal/obs"
	"perfdmf/internal/reldb"
	"perfdmf/internal/sqlparse"
)

// Query executes a SELECT inside tx and materializes the result.
func Query(tx *reldb.Tx, st *sqlparse.Select, params []reldb.Value) (*ResultSet, error) {
	return QueryOpts(tx, st, params, nil, Options{})
}

// QueryTraced is Query with a span: the executor fills in the plan/execute/
// materialize phase timings, the access-path decision, and rows scanned vs.
// returned. sp may be nil, which degrades to plain Query.
func QueryTraced(tx *reldb.Tx, st *sqlparse.Select, params []reldb.Value, sp *obs.Span) (*ResultSet, error) {
	return QueryOpts(tx, st, params, sp, Options{})
}

type query struct {
	tx      *reldb.Tx
	st      *sqlparse.Select
	params  []reldb.Value
	cols    *colmap
	fields  []field // ordered bound columns, for SELECT *
	sp      *obs.Span
	opts    Options
	scanned int64    // rows fetched from storage (base + join inputs)
	polled  int64    // row-loop iterations since the last cancellation check
	par     int      // widest worker fan-out this execution used (0 = inline)
	joins   []string // strategy each join took, for the span's PlanSummary

	// Columnar execution state (see columnar.go). When tryColumnarAggregate
	// handles the query, scan, filter and aggregation are already done and
	// the materialize section reuses the stashed results.
	colDone  bool
	colOut   [][]reldb.Value
	colKeys  [][]reldb.Value
	colItems []sqlparse.SelectItem
	colNames []string
}

type field struct {
	alias string // binding alias (lower-cased)
	name  string // column name as declared
	pos   int
}

// bind registers a table reference's columns. For derived tables it runs
// the subquery, materializes the rows, and binds the result columns; for
// virtual catalog tables (OBS_*) it materializes a snapshot the same way.
// The materialized rows are returned (nil for base tables).
func (q *query) bind(tr sqlparse.TableRef) ([]reldb.Row, error) {
	alias := aliasOr(tr.Alias, tr.Table)
	base := q.cols.width
	if tr.Sub != nil {
		rs, err := Query(q.tx, tr.Sub, q.params)
		if err != nil {
			return nil, err
		}
		q.cols.bindNames(alias, rs.Cols)
		for i, c := range rs.Cols {
			q.fields = append(q.fields, field{alias: strings.ToLower(alias), name: c, pos: base + i})
		}
		rows := make([]reldb.Row, len(rs.Rows))
		for i, r := range rs.Rows {
			rows[i] = reldb.Row(r)
		}
		return rows, nil
	}
	if cat := catalogTable(tr.Table); cat != nil {
		mCatalogQueries.Inc()
		rows, err := cat.rows(q.tx)
		if err != nil {
			return nil, err
		}
		q.cols.bindNames(alias, cat.cols)
		for i, c := range cat.cols {
			q.fields = append(q.fields, field{alias: strings.ToLower(alias), name: c, pos: base + i})
		}
		return rows, nil
	}
	tbl, err := q.tx.Table(tr.Table)
	if err != nil {
		return nil, err
	}
	q.cols.bind(alias, tr.Table, tbl.Schema())
	for i, c := range tbl.Schema().Columns {
		q.fields = append(q.fields, field{alias: strings.ToLower(alias), name: c.Name, pos: base + i})
	}
	return nil, nil
}

// pollEvery is the executor's shared cancellation poll: every
// cancelCheckRows-th call it checks the statement's kill flag (nil-safe
// when the query runs without a registered statement). Row-at-a-time
// loops call it once per iteration so a KILL unwinds within a bounded
// number of rows on every path — including join probes and aggregate
// folds that never touch storage.
func (q *query) pollEvery() error {
	q.polled++
	if q.polled%cancelCheckRows == 0 {
		if err := q.opts.Stmt.Err(); err != nil {
			return err
		}
	}
	return nil
}

func (q *query) run() (*ResultSet, error) {
	st := q.st
	stmt := q.opts.Stmt
	if err := stmt.Err(); err != nil {
		return nil, err
	}
	stmt.SetPhase(PhasePlan)
	timed := q.sp != nil
	var mark time.Time
	if timed {
		mark = now()
	}
	derived, err := q.bind(st.From)
	if err != nil {
		return nil, err
	}
	var rows []reldb.Row
	whereDone := false // WHERE already folded into the scan
	if st.From.Sub != nil || virtualRef(st.From) {
		if timed {
			if st.From.Sub != nil {
				q.sp.PlanSummary = "derived table"
			} else {
				q.sp.PlanSummary = "catalog"
			}
			q.sp.Plan += since(mark)
			mark = now()
		}
		stmt.SetPhase(PhaseExecute)
		rows = derived
		q.scanned += int64(len(rows))
	} else {
		// Base rows, using an index when the WHERE clause admits one. Index
		// selection is only safe for predicates on the base table;
		// predicates touching joined tables are re-checked by the full
		// WHERE filter below, so over-selection is impossible — planAccess
		// only narrows.
		baseAlias := aliasOr(st.From.Alias, st.From.Table)
		slots, scanned, err := q.resolveAccess(st.From.Table, baseAlias, len(st.Joins) > 0)
		if err != nil {
			return nil, err
		}
		if scanned {
			mFullScan.Inc()
		} else {
			mIndexAccess.Inc()
		}
		if timed {
			if scanned {
				q.sp.PlanSummary = "full scan"
			} else {
				q.sp.PlanSummary = "index access"
				q.sp.IndexUsed = true
			}
			q.sp.Plan += since(mark)
			mark = now()
		}
		stmt.SetPhase(PhaseExecute)
		if scanned && len(st.Joins) == 0 && !q.opts.NoColumnar {
			if err := q.tryColumnarAggregate(st.From.Table); err != nil {
				return nil, err
			}
		}
		switch {
		case q.colDone:
			// Vectorized path already scanned, filtered and aggregated.
			whereDone = true
		case scanned:
			// Fused scan+filter. Workers fan out only over a large base
			// table without joins; with joins WHERE runs after them.
			workers := 1
			var where sqlparse.Expr
			if len(st.Joins) == 0 {
				where, whereDone = st.Where, true
				if q.liveRows(st.From.Table) >= parallelMinRows {
					workers = q.opts.effectiveWorkers()
				}
			}
			rows, err = q.scanFilter(st.From.Table, where, workers)
			if err != nil {
				return nil, err
			}
		default:
			for _, slot := range slots {
				if err := q.pollEvery(); err != nil {
					return nil, err
				}
				if row := q.tx.Row(st.From.Table, slot); row != nil {
					rows = append(rows, row)
				}
			}
			q.scanned += int64(len(rows))
		}
	}

	// Joins.
	for _, join := range st.Joins {
		rows, err = q.execJoin(rows, join)
		if err != nil {
			return nil, err
		}
	}

	// WHERE.
	if st.Where != nil && !whereDone {
		ev := &env{cols: q.cols, params: q.params, tx: q.tx}
		kept := rows[:0:0]
		for _, row := range rows {
			if err := q.pollEvery(); err != nil {
				return nil, err
			}
			ev.row = row
			v, err := eval(st.Where, ev)
			if err != nil {
				return nil, err
			}
			if truthy(v) {
				kept = append(kept, row)
			}
		}
		rows = kept
	}
	if timed {
		q.sp.Execute += since(mark)
		mark = now()
	}
	if stmt != nil {
		stmt.rowsScanned.Store(q.scanned)
		stmt.SetPhase(PhaseMaterialize)
	}
	if err := stmt.Err(); err != nil {
		return nil, err
	}

	var items []sqlparse.SelectItem
	var colNames []string
	var out [][]reldb.Value
	var sortKeys [][]reldb.Value
	if q.colDone {
		items, colNames = q.colItems, q.colNames
		out, sortKeys = q.colOut, q.colKeys
	} else {
		var orderExprs []sqlparse.Expr
		items, colNames, err = q.expandItems()
		if err != nil {
			return nil, err
		}
		orderExprs, err = q.resolveOrderBy(items)
		if err != nil {
			return nil, err
		}
		if q.isAggregate(items, orderExprs) {
			out, sortKeys, err = q.aggregate(rows, items, orderExprs)
		} else {
			out, sortKeys, err = q.project(rows, items, orderExprs)
		}
		if err != nil {
			return nil, err
		}
	}

	if st.Distinct {
		out, sortKeys = distinct(out, sortKeys)
	}
	if len(st.OrderBy) > 0 {
		out = orderRows(out, sortKeys, st.OrderBy)
	}
	if out, err = q.applyLimit(out); err != nil {
		return nil, err
	}
	// Final cancellation check: a kill that landed during the aggregation
	// or ordering tail must not hand back a completed result.
	if err := stmt.Err(); err != nil {
		return nil, err
	}
	mRowsScanned.Add(q.scanned)
	mRowsReturned.Add(int64(len(out)))
	if stmt != nil {
		stmt.rowsScanned.Store(q.scanned)
		stmt.rowsReturned.Store(int64(len(out)))
	}
	if timed {
		if q.colDone {
			q.sp.PlanSummary += fmt.Sprintf(" columnar(%d)", max(q.par, 1))
		} else if q.par > 1 {
			q.sp.PlanSummary += fmt.Sprintf(" parallel(%d)", q.par)
		}
		for _, j := range q.joins {
			q.sp.PlanSummary += "; " + j
		}
		q.sp.Materialize += since(mark)
		q.sp.RowsScanned += q.scanned
		q.sp.RowsReturned += int64(len(out))
	}
	return &ResultSet{Cols: colNames, Rows: out}, nil
}

// liveRows returns the base table's live row count (0 when missing; bind
// has already verified the table exists).
func (q *query) liveRows(table string) int {
	t, err := q.tx.Table(table)
	if err != nil {
		return 0
	}
	return t.Len()
}

// execJoin joins the accumulated rows with one more table. When the ON
// clause contains an equality between an already-bound column and a column
// of the new table, the candidates for each left row come from that key:
// through the new table's equality index when it is a base table with one
// and the left side has fewer rows than the table (index nested-loop join),
// else from a hash table built over all its rows (hash join). Without such
// a key every row is a candidate (nested-loop join). Candidates arrive in
// slot order on every path, and the complete ON expression is evaluated on
// each candidate pair.
func (q *query) execJoin(rows []reldb.Row, join sqlparse.Join) ([]reldb.Row, error) {
	leftWidth := q.cols.width
	derived, err := q.bind(join.TableRef)
	if err != nil {
		return nil, err
	}
	rightWidth := q.cols.width - leftWidth
	leftPos, rightPos, keyed := findHashKey(q.cols, leftWidth, join.On)
	leftKey := func(l reldb.Row) reldb.Value {
		if leftPos < len(l) {
			return l[leftPos]
		}
		return reldb.Null
	}

	var candidates func(l reldb.Row) ([]reldb.Row, error)
	strategy := "nested-loop join"
	via := ""
	if ix, n := joinIndex(q.tx, join, keyed, rightPos); ix != "" && len(rows) < n {
		strategy, via = "index nested-loop join", " via "+ix
		candidates, err = q.indexProbe(join.Table, rightPos, leftKey)
		if err != nil {
			return nil, err
		}
	} else {
		rightRows := derived
		if join.Sub == nil && !virtualRef(join.TableRef) {
			if rightRows, err = q.scanAll(join.Table); err != nil {
				return nil, err
			}
		}
		q.scanned += int64(len(rightRows))
		candidates = func(reldb.Row) ([]reldb.Row, error) { return rightRows, nil }
		if keyed {
			strategy = "hash join"
			ht := make(map[reldb.Value][]reldb.Row, len(rightRows))
			for _, r := range rightRows {
				if err := q.pollEvery(); err != nil {
					return nil, err
				}
				if k := r[rightPos]; !k.IsNull() {
					hk := hashKey(k)
					ht[hk] = append(ht[hk], r)
				}
			}
			candidates = func(l reldb.Row) ([]reldb.Row, error) {
				return ht[hashKey(leftKey(l))], nil
			}
		}
	}
	q.joins = append(q.joins, joinKind(join)+" "+strategy+" "+describeRef(join.TableRef)+via)

	ev := &env{cols: q.cols, params: q.params, tx: q.tx}
	onMatch := func(l, r reldb.Row) (bool, error) {
		if join.On == nil {
			return true, nil
		}
		combined := make(reldb.Row, 0, leftWidth+rightWidth)
		combined = append(combined, l...)
		combined = append(combined, r...)
		ev.row = combined
		v, err := eval(join.On, ev)
		if err != nil {
			return false, err
		}
		return truthy(v), nil
	}

	var result []reldb.Row
	emit := func(l, r reldb.Row) {
		combined := make(reldb.Row, leftWidth+rightWidth)
		copy(combined, l)
		if r != nil {
			copy(combined[leftWidth:], r)
		}
		result = append(result, combined)
	}

	for _, l := range rows {
		if err := q.pollEvery(); err != nil {
			return nil, err
		}
		matched := false
		cands, err := candidates(l)
		if err != nil {
			return nil, err
		}
		for _, r := range cands {
			if err := q.pollEvery(); err != nil {
				return nil, err
			}
			ok, err := onMatch(l, r)
			if err != nil {
				return nil, err
			}
			if ok {
				matched = true
				emit(l, r)
			}
		}
		if !matched && join.Kind == sqlparse.LeftJoin {
			emit(l, nil)
		}
	}
	return result, nil
}

// joinIndex returns the equality index an index nested-loop join could
// probe, with the table's live row count, or "" when the right side is
// derived or a catalog table, the ON clause has no equality key, or the key
// column has no equality index. The executor probes only when the left side
// has fewer rows than the table; otherwise one scan costs less than a probe
// per left row.
func joinIndex(tx *reldb.Tx, join sqlparse.Join, keyed bool, rightPos int) (string, int) {
	if !keyed || join.Sub != nil || virtualRef(join.TableRef) {
		return "", 0
	}
	tbl, err := tx.Table(join.Table)
	if err != nil {
		return "", 0
	}
	return tx.EqIndex(join.Table, tbl.Schema().Columns[rightPos].Name), tbl.Len()
}

// indexProbe returns an index nested-loop join's candidate source: the
// rows of table whose key column equals the left row's key, fetched
// through the column's equality index in ascending slot order, which is
// the order a scan yields them. Only fetched rows count as scanned.
func (q *query) indexProbe(table string, rightPos int, leftKey func(reldb.Row) reldb.Value) (func(reldb.Row) ([]reldb.Row, error), error) {
	tbl, err := q.tx.Table(table)
	if err != nil {
		return nil, err
	}
	col := tbl.Schema().Columns[rightPos].Name
	// buf is reused across calls: execJoin is done with one left row's
	// candidates before it asks for the next row's.
	var buf, all []reldb.Row
	return func(l reldb.Row) ([]reldb.Row, error) {
		key := leftKey(l)
		if key.IsNull() {
			return nil, nil
		}
		slots, ok := q.tx.LookupEq(table, col, key)
		if !ok {
			// The index cannot answer this key exactly (see
			// reldb.Tx.LookupEq): every row is a candidate.
			if all == nil {
				var err error
				if all, err = q.scanAll(table); err != nil {
					return nil, err
				}
				q.scanned += int64(len(all))
			}
			return all, nil
		}
		if !sort.IntsAreSorted(slots) {
			// Deletes reorder an index's slot list; never sort it in place.
			slots = append([]int(nil), slots...)
			sort.Ints(slots)
		}
		buf = buf[:0]
		for _, slot := range slots {
			if err := q.pollEvery(); err != nil {
				return nil, err
			}
			if r := tbl.RowAt(slot); r != nil {
				buf = append(buf, r)
			}
		}
		q.scanned += int64(len(buf))
		return buf, nil
	}, nil
}

// scanAll returns every live row of a base table in slot order.
func (q *query) scanAll(table string) ([]reldb.Row, error) {
	var rows []reldb.Row
	var scanErr error
	q.tx.Scan(table, func(_ int, row reldb.Row) bool { //nolint:errcheck // table verified by bind
		if scanErr = q.pollEvery(); scanErr != nil {
			return false
		}
		rows = append(rows, row)
		return true
	})
	return rows, scanErr
}

// hashKey maps a join key to its hash-table bucket. Compare equates values
// across the numeric types and across strings and byte strings, but a Go
// map compares type tags, so numbers bucket as float64 and byte strings as
// strings. A bucket may hold pairs Compare tells apart (integers beyond
// 2^53); the ON re-check drops them.
func hashKey(v reldb.Value) reldb.Value {
	switch v.T {
	case reldb.TInt, reldb.TBool, reldb.TTime:
		return reldb.Float(float64(v.I))
	case reldb.TBytes:
		return reldb.Str(v.S)
	}
	return v
}

func joinKind(join sqlparse.Join) string {
	if join.Kind == sqlparse.LeftJoin {
		return "left"
	}
	return "inner"
}

// expandItems replaces * items with explicit column references and derives
// output column names.
func (q *query) expandItems() ([]sqlparse.SelectItem, []string, error) {
	var items []sqlparse.SelectItem
	var names []string
	for _, item := range q.st.Items {
		if !item.Star {
			items = append(items, item)
			names = append(names, itemName(item))
			continue
		}
		want := strings.ToLower(item.Table)
		found := false
		for _, f := range q.fields {
			if want != "" && f.alias != want {
				continue
			}
			found = true
			items = append(items, sqlparse.SelectItem{
				Expr: &sqlparse.ColRef{Table: f.alias, Name: f.name},
			})
			names = append(names, f.name)
		}
		if !found {
			return nil, nil, fmt.Errorf("sqlexec: %s.* matches no table", item.Table)
		}
	}
	return items, names, nil
}

func itemName(item sqlparse.SelectItem) string {
	if item.Alias != "" {
		return item.Alias
	}
	switch e := item.Expr.(type) {
	case *sqlparse.ColRef:
		return e.Name
	case *sqlparse.FuncCall:
		return strings.ToLower(e.Name)
	}
	return "expr"
}

// resolveOrderBy rewrites ORDER BY terms that reference output aliases or
// positions into the underlying item expressions.
func (q *query) resolveOrderBy(items []sqlparse.SelectItem) ([]sqlparse.Expr, error) {
	var out []sqlparse.Expr
	for _, ob := range q.st.OrderBy {
		e := ob.Expr
		switch x := e.(type) {
		case *sqlparse.Literal:
			if x.Value.T == reldb.TInt {
				n := int(x.Value.I)
				if n < 1 || n > len(items) {
					return nil, fmt.Errorf("sqlexec: ORDER BY position %d out of range", n)
				}
				e = items[n-1].Expr
			}
		case *sqlparse.ColRef:
			if x.Table == "" {
				for _, item := range items {
					if item.Alias != "" && strings.EqualFold(item.Alias, x.Name) {
						e = item.Expr
						break
					}
				}
			}
		}
		out = append(out, e)
	}
	return out, nil
}

// isAggregate reports whether the query needs the grouped path.
func (q *query) isAggregate(items []sqlparse.SelectItem, orderExprs []sqlparse.Expr) bool {
	if len(q.st.GroupBy) > 0 || q.st.Having != nil {
		return true
	}
	for _, item := range items {
		if len(collectAggs(item.Expr)) > 0 {
			return true
		}
	}
	for _, e := range orderExprs {
		if len(collectAggs(e)) > 0 {
			return true
		}
	}
	return false
}

// collectAggs returns the aggregate FuncCall nodes in an expression.
func collectAggs(e sqlparse.Expr) []*sqlparse.FuncCall {
	var out []*sqlparse.FuncCall
	var walk func(e sqlparse.Expr)
	walk = func(e sqlparse.Expr) {
		switch e := e.(type) {
		case *sqlparse.FuncCall:
			if isAggName(e.Name) {
				out = append(out, e)
				return // aggregates cannot nest
			}
			for _, a := range e.Args {
				walk(a)
			}
		case *sqlparse.Binary:
			walk(e.L)
			walk(e.R)
		case *sqlparse.Unary:
			walk(e.X)
		case *sqlparse.InList:
			walk(e.X)
			for _, x := range e.List {
				walk(x)
			}
		case *sqlparse.IsNull:
			walk(e.X)
		case *sqlparse.Between:
			walk(e.X)
			walk(e.Lo)
			walk(e.Hi)
		}
	}
	if e != nil {
		walk(e)
	}
	return out
}

func isAggName(name string) bool {
	switch name {
	case "COUNT", "SUM", "AVG", "MIN", "MAX", "STDDEV":
		return true
	}
	return false
}

// keyOf builds a collision-free string key for a value tuple.
func keyOf(vals []reldb.Value) string {
	var b strings.Builder
	for _, v := range vals {
		b.WriteByte(byte(v.T) + '0')
		switch v.T {
		case reldb.TInt, reldb.TBool, reldb.TTime:
			b.WriteString(strconv.FormatInt(v.I, 36))
		case reldb.TFloat:
			b.WriteString(strconv.FormatUint(math.Float64bits(v.F), 36))
		case reldb.TString, reldb.TBytes:
			b.WriteString(strconv.Itoa(len(v.S)))
			b.WriteByte(':')
			b.WriteString(v.S)
		}
		b.WriteByte('|')
	}
	return b.String()
}

// project evaluates items per row (the non-aggregate path), also computing
// the ORDER BY sort keys.
func (q *query) project(rows []reldb.Row, items []sqlparse.SelectItem, orderExprs []sqlparse.Expr) ([][]reldb.Value, [][]reldb.Value, error) {
	ev := &env{cols: q.cols, params: q.params, tx: q.tx}
	out := make([][]reldb.Value, 0, len(rows))
	var keys [][]reldb.Value
	if len(orderExprs) > 0 {
		keys = make([][]reldb.Value, 0, len(rows))
	}
	for _, row := range rows {
		if err := q.pollEvery(); err != nil {
			return nil, nil, err
		}
		ev.row = row
		rec := make([]reldb.Value, len(items))
		for i, item := range items {
			v, err := eval(item.Expr, ev)
			if err != nil {
				return nil, nil, err
			}
			rec[i] = v
		}
		out = append(out, rec)
		if keys != nil {
			k := make([]reldb.Value, len(orderExprs))
			for i, e := range orderExprs {
				v, err := eval(e, ev)
				if err != nil {
					return nil, nil, err
				}
				k[i] = v
			}
			keys = append(keys, k)
		}
	}
	return out, keys, nil
}

func distinct(rows, keys [][]reldb.Value) ([][]reldb.Value, [][]reldb.Value) {
	seen := make(map[string]bool, len(rows))
	out := rows[:0:0]
	var outKeys [][]reldb.Value
	for i, r := range rows {
		k := keyOf(r)
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, r)
		if keys != nil {
			outKeys = append(outKeys, keys[i])
		}
	}
	return out, outKeys
}

func orderRows(rows, keys [][]reldb.Value, spec []sqlparse.OrderItem) [][]reldb.Value {
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ka, kb := keys[idx[a]], keys[idx[b]]
		for i := range spec {
			c := reldb.Compare(ka[i], kb[i])
			if c == 0 {
				continue
			}
			if spec[i].Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	out := make([][]reldb.Value, len(rows))
	for i, j := range idx {
		out[i] = rows[j]
	}
	return out
}

func (q *query) applyLimit(rows [][]reldb.Value) ([][]reldb.Value, error) {
	st := q.st
	ev := &env{cols: newColmap(), params: q.params, tx: q.tx}
	if st.Offset != nil {
		v, err := eval(st.Offset, ev)
		if err != nil {
			return nil, err
		}
		off := int(v.AsInt())
		if off < 0 {
			return nil, fmt.Errorf("sqlexec: negative OFFSET")
		}
		if off >= len(rows) {
			rows = nil
		} else {
			rows = rows[off:]
		}
	}
	if st.Limit != nil {
		v, err := eval(st.Limit, ev)
		if err != nil {
			return nil, err
		}
		n := int(v.AsInt())
		if n < 0 {
			return nil, fmt.Errorf("sqlexec: negative LIMIT")
		}
		if n < len(rows) {
			rows = rows[:n]
		}
	}
	return rows, nil
}
