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
	prog    *selectProg
	plan    *Plan         // the attached plan, when it caches prog
	derived [][]reldb.Row // derived tables' rows by table reference, when compiled here
	sp      *obs.Span
	opts    Options
	scanned int64    // rows fetched from storage (base + join inputs)
	polled  int64    // row-loop iterations since the last cancellation check
	par     int      // widest worker fan-out this execution used (0 = inline)
	joins   []string // strategy each join took, for the span's PlanSummary

	// Columnar execution state (see columnar.go). When tryColumnarAggregate
	// handles the query, scan, filter and aggregation are already done and
	// the materialize section reuses the stashed results.
	colDone bool
	colOut  [][]reldb.Value
	colKeys [][]reldb.Value
}

// refRows returns the rows of a derived or catalog table reference (ref 0
// is FROM, i+1 is join i), or nil for a base table.
func (q *query) refRows(ref int, tr sqlparse.TableRef) ([]reldb.Row, error) {
	if tr.Sub != nil {
		return q.derived[ref], nil
	}
	if cat := catalogTable(tr.Table); cat != nil {
		mCatalogQueries.Inc()
		return cat.rows(q.tx)
	}
	return nil, nil
}

// frame returns a fresh evaluation frame for this execution.
func (q *query) frame(serial bool) *frame {
	return &frame{params: q.params, tx: q.tx, serial: serial}
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
	if err := q.compile(); err != nil {
		return nil, err
	}
	c := q.prog
	var rows []reldb.Row
	var err error
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
		if rows, err = q.refRows(0, st.From); err != nil {
			return nil, err
		}
		q.scanned += int64(len(rows))
	} else {
		// Base rows, using an index when a WHERE conjunct on the base
		// table admits one. planAccess only narrows: unless its answer is
		// exact, the full WHERE filter re-checks every row below.
		slots, dec, err := q.resolveAccess(st.From.Table)
		if err != nil {
			return nil, err
		}
		scanned := dec.kind == accessFullScan
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
			var where *program
			if len(st.Joins) == 0 {
				where, whereDone = c.where, true
				if q.liveRows(st.From.Table) >= parallelMinRows {
					workers = q.opts.effectiveWorkers()
				}
			}
			rows, err = q.scanFilter(st.From.Table, where, workers)
			if err != nil {
				return nil, err
			}
		default:
			// An exact index answer already is the WHERE result.
			whereDone = dec.exact
			tbl, err := q.tx.Table(st.From.Table)
			if err != nil {
				return nil, err
			}
			rows = make([]reldb.Row, 0, len(slots))
			for _, slot := range slots {
				if err := q.pollEvery(); err != nil {
					return nil, err
				}
				if row := tbl.RowAt(slot); row != nil {
					rows = append(rows, row)
				}
			}
			q.scanned += int64(len(rows))
		}
	}

	// Joins.
	for i := range st.Joins {
		rows, err = q.execJoin(rows, i)
		if err != nil {
			return nil, err
		}
	}

	// WHERE.
	if c.where != nil && !whereDone {
		f := q.frame(false)
		kept := rows[:0:0]
		for _, row := range rows {
			if err := q.pollEvery(); err != nil {
				return nil, err
			}
			f.row = row
			v, err := c.where.eval(f)
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

	out, sortKeys := q.colOut, q.colKeys
	switch {
	case q.colDone:
	case c.grouped:
		out, sortKeys, err = q.aggregate(rows)
	default:
		out, sortKeys, err = q.project(rows)
	}
	if err != nil {
		return nil, err
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
	return &ResultSet{Cols: c.names, Rows: out}, nil
}

// liveRows returns the base table's live row count (0 when missing;
// compile has already verified the table exists).
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
func (q *query) execJoin(rows []reldb.Row, i int) ([]reldb.Row, error) {
	join, jp := q.st.Joins[i], &q.prog.joins[i]
	derived, err := q.refRows(i+1, join.TableRef)
	if err != nil {
		return nil, err
	}
	leftWidth, width := jp.lo, jp.hi
	leftPos, rightPos, keyed := jp.leftPos, jp.rightPos, jp.keyed
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

	// The ON check evaluates each candidate pair in one scratch row; only
	// emitted pairs get a row of their own.
	f := q.frame(false)
	scratch := make(reldb.Row, 0, width)
	onMatch := func(l, r reldb.Row) (bool, error) {
		if jp.on == nil {
			return true, nil
		}
		f.row = append(append(scratch[:0], l...), r...)
		v, err := jp.on.eval(f)
		if err != nil {
			return false, err
		}
		return truthy(v), nil
	}

	var result []reldb.Row
	emit := func(l, r reldb.Row) {
		combined := make(reldb.Row, width)
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
	q.tx.Scan(table, func(_ int, row reldb.Row) bool { //nolint:errcheck // table verified by compile
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

// project evaluates the output items per row (the non-aggregate path),
// also computing the ORDER BY sort keys.
func (q *query) project(rows []reldb.Row) ([][]reldb.Value, [][]reldb.Value, error) {
	c := q.prog
	f := q.frame(false)
	out, keys := newRecords(len(rows), len(c.items)), newRecords(len(rows), len(c.order))
	for i, row := range rows {
		if err := q.pollEvery(); err != nil {
			return nil, nil, err
		}
		f.row = row
		if err := evalAll(out[i], c.items, f); err != nil {
			return nil, nil, err
		}
		if keys != nil {
			if err := evalAll(keys[i], c.order, f); err != nil {
				return nil, nil, err
			}
		}
	}
	return out, keys, nil
}

// newRecords returns n records of width values each, sliced from one
// backing array, or nil when width is 0.
func newRecords(n, width int) [][]reldb.Value {
	if width == 0 {
		return nil
	}
	vals := make([]reldb.Value, n*width)
	recs := make([][]reldb.Value, n)
	for i := range recs {
		recs[i] = vals[i*width : (i+1)*width : (i+1)*width]
	}
	return recs
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
	f := q.frame(false)
	if q.prog.offset != nil {
		v, err := q.prog.offset.eval(f)
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
	if q.prog.limit != nil {
		v, err := q.prog.limit.eval(f)
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
