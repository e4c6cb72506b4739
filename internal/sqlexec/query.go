package sqlexec

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"perfdmf/internal/obs"
	"perfdmf/internal/reldb"
	"perfdmf/internal/sqlparse"
)

// Query executes a SELECT inside tx and returns its result as projected
// records (Rows), whichever form the executor produced.
func Query(tx *reldb.Tx, st *sqlparse.Select, params []reldb.Value) (*ResultSet, error) {
	return QueryTraced(tx, st, params, nil)
}

// QueryTraced is Query with a span: the executor fills in the plan/execute/
// materialize phase timings, the access-path decision, and rows scanned vs.
// returned. sp may be nil, which degrades to plain Query.
func QueryTraced(tx *reldb.Tx, st *sqlparse.Select, params []reldb.Value, sp *obs.Span) (*ResultSet, error) {
	rs, err := QueryOpts(tx, st, params, sp, Options{})
	if err != nil {
		return nil, err
	}
	rs.project()
	return rs, nil
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
				q.sp.PlanSummary = "index access" + dec.via()
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

	// Joins. Each join but the last copies its rows out for the next. The
	// last applies WHERE to each joined pair in its scratch row, then
	// folds the pair into the current aggregation chunk when the query
	// groups, or else projects it into a record of its own.
	var folder *chunkFolder
	var out, sortKeys [][]reldb.Value // the last join's records
	for i := range st.Joins {
		var keep func(reldb.Row) error
		var next []reldb.Row
		switch {
		case i < len(st.Joins)-1:
			keep = collect(&next, c.joins[i].hi)
		case c.grouped:
			folder = q.newFolder(q.frame(false), true, &groupAlloc{aggs: c.aggs})
			defer folder.alloc.release()
			keep = folder.add
		default:
			keep = q.projector(&out, &sortKeys)
		}
		emit := keep
		if i == len(st.Joins)-1 && c.where != nil && !whereDone {
			f := q.frame(false)
			emit = func(row reldb.Row) error {
				f.row = row
				v, err := c.where.eval(f)
				if err != nil || !truthy(v) {
					return err
				}
				return keep(row)
			}
			whereDone = true
		}
		if err := q.execJoin(rows, i, emit); err != nil {
			return nil, err
		}
		rows = next
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

	rs := &ResultSet{Cols: c.names}
	if c.ords != nil && len(st.Joins) == 0 {
		// Plain column references: the result is the rows themselves.
		lo, hi, err := q.limitBounds(len(rows))
		if err != nil {
			return nil, err
		}
		rs.Refs, rs.Ords = rows[lo:hi], c.ords
	} else {
		switch {
		case q.colDone:
			out, sortKeys = q.colOut, q.colKeys
		case len(st.Joins) > 0 && !c.grouped:
			// The last join projected its rows; an empty result is an
			// empty, not a nil, list, as project makes it.
			if out == nil {
				out = [][]reldb.Value{}
			}
		case folder != nil:
			out, sortKeys, err = q.finalizeGroups(mergeChunks(folder.chunks))
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
		lo, hi, err := q.limitBounds(len(out))
		if err != nil {
			return nil, err
		}
		rs.Rows = out[lo:hi]
	}
	n := int64(rs.Len())
	// Final cancellation check: a kill that landed during the aggregation
	// or ordering tail must not hand back a completed result.
	if err := stmt.Err(); err != nil {
		return nil, err
	}
	mRowsScanned.Add(q.scanned)
	mRowsReturned.Add(n)
	if stmt != nil {
		stmt.rowsScanned.Store(q.scanned)
		stmt.rowsReturned.Store(n)
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
		q.sp.RowsReturned += n
	}
	return rs, nil
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

// execJoin joins the accumulated rows with one more table, handing each
// joined row to emit in one scratch row that it reuses: emit must copy
// what it keeps. When the ON clause contains an equality between an
// already-bound column and a column of the new table, the candidates for
// each left row come from that key: through the new table's equality
// index when it is a base table with one and the left side has fewer rows
// than the table (index nested-loop join), else from a hash table built
// over all its rows (hash join). Without such a key every row is a
// candidate (nested-loop join). Candidates arrive in slot order on every
// path, and the complete ON expression is evaluated on each candidate
// pair.
func (q *query) execJoin(rows []reldb.Row, i int, emit func(reldb.Row) error) error {
	join, jp := q.st.Joins[i], &q.prog.joins[i]
	derived, err := q.refRows(i+1, join.TableRef)
	if err != nil {
		return err
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
			return err
		}
	} else {
		rightRows := derived
		if join.Sub == nil && !virtualRef(join.TableRef) {
			if rightRows, err = q.scanAll(join.Table); err != nil {
				return err
			}
		}
		q.scanned += int64(len(rightRows))
		candidates = func(reldb.Row) ([]reldb.Row, error) { return rightRows, nil }
		if keyed {
			strategy = "hash join"
			ht := make(map[reldb.Value][]reldb.Row, len(rightRows))
			for _, r := range rightRows {
				if err := q.pollEvery(); err != nil {
					return err
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

	// Each candidate pair is laid out in the scratch row, checked against
	// ON there and, when it matches, emitted from there.
	f := q.frame(false)
	scratch := make(reldb.Row, width)
	for _, l := range rows {
		if err := q.pollEvery(); err != nil {
			return err
		}
		matched := false
		cands, err := candidates(l)
		if err != nil {
			return err
		}
		copy(scratch, l)
		for _, r := range cands {
			if err := q.pollEvery(); err != nil {
				return err
			}
			copy(scratch[leftWidth:], r)
			if jp.on != nil {
				f.row = scratch
				v, err := jp.on.eval(f)
				if err != nil {
					return err
				}
				if !truthy(v) {
					continue
				}
			}
			matched = true
			if err := emit(scratch); err != nil {
				return err
			}
		}
		if !matched && join.Kind == sqlparse.LeftJoin {
			clear(scratch[leftWidth:])
			if err := emit(scratch); err != nil {
				return err
			}
		}
	}
	return nil
}

// projector returns an emit function for execJoin that evaluates the
// output items, and the ORDER BY keys, of each row into records of their
// own, appended to *out and *keys.
func (q *query) projector(out, keys *[][]reldb.Value) func(reldb.Row) error {
	c := q.prog
	f := q.frame(false)
	return func(row reldb.Row) error {
		f.row = row
		rec := make([]reldb.Value, len(c.items)+len(c.order))
		if err := evalAll(rec[:len(c.items)], c.items, f); err != nil {
			return err
		}
		*out = append(*out, rec[:len(c.items):len(c.items)])
		if len(c.order) > 0 {
			if err := evalAll(rec[len(c.items):], c.order, f); err != nil {
				return err
			}
			*keys = append(*keys, rec[len(c.items):])
		}
		return nil
	}
}

// collect returns an emit function for execJoin that appends a copy of
// each row, of width cells, to *out.
func collect(out *[]reldb.Row, width int) func(reldb.Row) error {
	return func(row reldb.Row) error {
		r := make(reldb.Row, width)
		copy(r, row)
		*out = append(*out, r)
		return nil
	}
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
func keyOf(vals []reldb.Value) string { return string(appendKey(nil, vals)) }

// appendKey appends keyOf's key for vals to b.
func appendKey(b []byte, vals []reldb.Value) []byte {
	for _, v := range vals {
		b = append(b, byte(v.T)+'0')
		switch v.T {
		case reldb.TInt, reldb.TBool, reldb.TTime:
			b = strconv.AppendInt(b, v.I, 36)
		case reldb.TFloat:
			b = strconv.AppendUint(b, math.Float64bits(v.F), 36)
		case reldb.TString, reldb.TBytes:
			b = strconv.AppendInt(b, int64(len(v.S)), 10)
			b = append(b, ':')
			b = append(b, v.S...)
		}
		b = append(b, '|')
	}
	return b
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

// limitBounds returns the range [lo, hi) of n result rows that OFFSET
// and LIMIT keep.
func (q *query) limitBounds(n int) (lo, hi int, err error) {
	f := q.frame(false)
	hi = n
	if q.prog.offset != nil {
		v, err := q.prog.offset.eval(f)
		if err != nil {
			return 0, 0, err
		}
		off := int(v.AsInt())
		if off < 0 {
			return 0, 0, fmt.Errorf("sqlexec: negative OFFSET")
		}
		lo = min(off, n)
	}
	if q.prog.limit != nil {
		v, err := q.prog.limit.eval(f)
		if err != nil {
			return 0, 0, err
		}
		lim := int(v.AsInt())
		if lim < 0 {
			return 0, 0, fmt.Errorf("sqlexec: negative LIMIT")
		}
		if lim < hi-lo {
			hi = lo + lim
		}
	}
	return lo, hi, nil
}
