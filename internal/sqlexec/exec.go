package sqlexec

import (
	"fmt"
	"math"
	mbits "math/bits"

	"perfdmf/internal/reldb"
	"perfdmf/internal/sqlparse"
)

// Result reports the effect of a DDL/DML statement.
type Result struct {
	RowsAffected int64
	LastInsertID int64 // primary key of the last inserted row, 0 if none
}

// ResultSet is a query result in one of two forms. Projected records
// carry each result row's values in Rows. A SELECT whose items are all
// plain column references, with no aggregate, DISTINCT or ORDER BY,
// returns references instead: Refs holds the source rows, Ords the ordinal
// of each output column in them, and Rows is nil. Source rows are
// immutable once published (see reldb.Row), so the reference form stays
// valid after the transaction that produced it ends. Len and At read
// either form.
type ResultSet struct {
	Cols []string
	Rows [][]reldb.Value
	Refs []reldb.Row
	Ords []int
}

// Len returns the number of result rows.
func (rs *ResultSet) Len() int {
	if rs.Ords != nil {
		return len(rs.Refs)
	}
	return len(rs.Rows)
}

// At returns column j of result row i. A reference past the end of its
// source row (a null-extended LEFT JOIN row) reads as NULL.
func (rs *ResultSet) At(i, j int) reldb.Value {
	if rs.Ords == nil {
		return rs.Rows[i][j]
	}
	if row, o := rs.Refs[i], rs.Ords[j]; o < len(row) {
		return row[o]
	}
	return reldb.Null
}

// project converts the reference form into projected records.
func (rs *ResultSet) project() {
	if rs.Ords == nil {
		return
	}
	recs := newRecords(len(rs.Refs), len(rs.Ords))
	for i, rec := range recs {
		for j := range rec {
			rec[j] = rs.At(i, j)
		}
	}
	rs.Rows, rs.Refs, rs.Ords = recs, nil, nil
}

// Exec runs a non-SELECT statement inside tx. Transaction-control
// statements (BEGIN/COMMIT/ROLLBACK) are handled by the connection layer,
// not here.
func Exec(tx *reldb.Tx, stmt sqlparse.Statement, params []reldb.Value) (Result, error) {
	return ExecOpts(tx, stmt, params, Options{})
}

// ExecOpts is Exec with execution options: ANALYZE uses the worker cap for
// its partitioned scan, and the statement entry drives accounting and
// cancellation. KILL needs no transaction; tx may be nil for it.
func ExecOpts(tx *reldb.Tx, stmt sqlparse.Statement, params []reldb.Value, opts Options) (Result, error) {
	switch st := stmt.(type) {
	case *sqlparse.Analyze:
		return execAnalyze(tx, st, opts)
	case *sqlparse.Compact:
		return execCompact(tx, st, opts)
	case *sqlparse.Kill:
		return execKill(st, params)
	case *sqlparse.CreateTable:
		return execCreateTable(tx, st)
	case *sqlparse.DropTable:
		if st.IfExists && !tx.HasTable(st.Name) {
			return Result{}, nil
		}
		return Result{}, tx.DropTable(st.Name)
	case *sqlparse.AlterTable:
		return execAlterTable(tx, st)
	case *sqlparse.CreateIndex:
		kind := reldb.HashIndex
		if st.Using == "BTREE" {
			kind = reldb.OrderedIndex
		}
		return Result{}, tx.CreateIndex(st.Name, st.Table, st.Columns, kind, st.Unique)
	case *sqlparse.DropIndex:
		return Result{}, tx.DropIndex(st.Table, st.Name)
	case *sqlparse.Insert:
		return execInsert(tx, st, params)
	case *sqlparse.Update:
		return execUpdate(tx, st, params, opts.Stmt)
	case *sqlparse.Delete:
		return execDelete(tx, st, params, opts.Stmt)
	case *sqlparse.Select:
		return Result{}, fmt.Errorf("sqlexec: use Query for SELECT")
	}
	return Result{}, fmt.Errorf("sqlexec: cannot execute %T", stmt)
}

// execKill resolves the statement id (a literal or parameter) and cancels
// the matching statement. RowsAffected is 1 when a statement was killed.
func execKill(st *sqlparse.Kill, params []reldb.Value) (Result, error) {
	p, err := (&compiler{cols: newColmap()}).compile(st.ID, false)
	if err != nil {
		return Result{}, err
	}
	v, ok := p.constVal(params)
	if !ok || v.T != reldb.TInt {
		return Result{}, fmt.Errorf("sqlexec: KILL expects an integer statement id")
	}
	if !Statements.Kill(v.AsInt()) {
		return Result{}, fmt.Errorf("sqlexec: no active statement %d", v.AsInt())
	}
	return Result{RowsAffected: 1}, nil
}

func execCreateTable(tx *reldb.Tx, st *sqlparse.CreateTable) (Result, error) {
	if st.IfNotExists && tx.HasTable(st.Name) {
		return Result{}, nil
	}
	schema := &reldb.Schema{Name: st.Name}
	for _, cd := range st.Columns {
		schema.Columns = append(schema.Columns, reldb.Column{
			Name:          cd.Name,
			Type:          cd.Type,
			NotNull:       cd.NotNull || cd.PrimaryKey,
			Default:       cd.Default,
			AutoIncrement: cd.AutoIncrement,
		})
		if cd.PrimaryKey {
			if schema.PrimaryKey != "" {
				return Result{}, fmt.Errorf("sqlexec: table %s: multiple primary keys", st.Name)
			}
			schema.PrimaryKey = cd.Name
		}
		if cd.References != nil {
			refCol := cd.References.Column
			if refCol == "" {
				refCol = "id"
			}
			schema.ForeignKeys = append(schema.ForeignKeys, reldb.ForeignKey{
				Column: cd.Name, RefTable: cd.References.Table, RefColumn: refCol,
			})
		}
	}
	return Result{}, tx.CreateTable(schema)
}

func execAlterTable(tx *reldb.Tx, st *sqlparse.AlterTable) (Result, error) {
	if st.Add != nil {
		if st.Add.PrimaryKey || st.Add.AutoIncrement {
			return Result{}, fmt.Errorf("sqlexec: ALTER TABLE cannot add key columns")
		}
		return Result{}, tx.AddColumn(st.Name, reldb.Column{
			Name:    st.Add.Name,
			Type:    st.Add.Type,
			NotNull: st.Add.NotNull,
			Default: st.Add.Default,
		})
	}
	return Result{}, tx.DropColumn(st.Name, st.DropCol)
}

func execInsert(tx *reldb.Tx, st *sqlparse.Insert, params []reldb.Value) (Result, error) {
	tbl, err := tx.Table(st.Table)
	if err != nil {
		return Result{}, err
	}
	schema := tbl.Schema()
	// Map each provided column to its schema position.
	positions := make([]int, 0, len(st.Columns))
	if len(st.Columns) == 0 {
		for i := range schema.Columns {
			positions = append(positions, i)
		}
	} else {
		for _, name := range st.Columns {
			pos := schema.ColumnIndex(name)
			if pos < 0 {
				return Result{}, fmt.Errorf("sqlexec: table %s has no column %s", st.Table, name)
			}
			positions = append(positions, pos)
		}
	}
	f := &frame{params: params, tx: tx}
	c := &compiler{cols: newColmap()}
	var res Result
	// tx.Insert copies during normalization, so one scratch row serves
	// every VALUES tuple — the bulk-load path is allocation-sensitive.
	row := make(reldb.Row, len(schema.Columns))
	for _, exprs := range st.Rows {
		if len(exprs) != len(positions) {
			return Result{}, fmt.Errorf("sqlexec: INSERT row has %d values, want %d",
				len(exprs), len(positions))
		}
		for i := range row {
			row[i] = reldb.Null
		}
		for i, e := range exprs {
			// Literals and placeholders copy straight into the row; any
			// other expression compiles and evaluates with no columns.
			var v reldb.Value
			switch e := e.(type) {
			case *sqlparse.Literal:
				v = e.Value
			case *sqlparse.Param:
				if err := checkParams(e.Index+1, params); err != nil {
					return Result{}, err
				}
				v = params[e.Index]
			default:
				p, err := c.compile(e, false)
				if err == nil {
					err = checkParams(c.nparams, params)
				}
				if err == nil {
					v, err = p.eval(f)
				}
				if err != nil {
					return Result{}, err
				}
			}
			row[positions[i]] = v
		}
		id, err := tx.Insert(st.Table, row)
		if err != nil {
			return Result{}, err
		}
		res.RowsAffected++
		if !id.IsNull() {
			res.LastInsertID = id.AsInt()
		}
	}
	return res, nil
}

// compileDML compiles a single-table statement's expressions (nil
// entries stay nil) against table and checks the parameter count, so DML
// reports bad columns and missing parameters before it reads a row.
func compileDML(tx *reldb.Tx, table string, params []reldb.Value, exprs ...sqlparse.Expr) ([]*program, error) {
	tbl, err := tx.Table(table)
	if err != nil {
		return nil, err
	}
	c := &compiler{cols: newColmap()}
	c.cols.bind(table, table, tbl.Schema().ColumnNames())
	progs, err := c.compileAll(exprs, false)
	if err != nil {
		return nil, err
	}
	return progs, checkParams(c.nparams, params)
}

// matchingSlots returns the slots of base-table rows satisfying the
// compiled WHERE wp, using an index when a top-level conjunct permits,
// otherwise scanning. stmt (nil-safe) is polled every cancelCheckRows rows
// so a KILL unwinds UPDATE/DELETE scans the same way it unwinds SELECT
// scans.
func matchingSlots(tx *reldb.Tx, table string, wp *program, params []reldb.Value, stmt *StmtEntry) ([]int, error) {
	f := &frame{params: params, tx: tx}
	candidates, dec, err := planAccess(tx, table, wp, params)
	if err != nil {
		return nil, err
	}
	scanned := dec.kind == accessFullScan
	if dec.exact {
		wp = nil // the index answered the whole WHERE
	}
	var out []int
	checked := 0
	check := func(slot int) error {
		row := tx.Row(table, slot)
		if row == nil {
			return nil
		}
		if wp != nil {
			f.row = row
			v, err := wp.eval(f)
			if err != nil {
				return err
			}
			if !truthy(v) {
				return nil
			}
		}
		out = append(out, slot)
		return nil
	}
	if scanned {
		var inner error
		tx.Scan(table, func(slot int, _ reldb.Row) bool {
			checked++
			if checked%cancelCheckRows == 0 {
				if inner = stmt.Err(); inner != nil {
					return false
				}
				if stmt != nil {
					stmt.rowsScanned.Add(cancelCheckRows)
				}
			}
			inner = check(slot)
			return inner == nil
		})
		if inner != nil {
			return nil, inner
		}
		return out, nil
	}
	for _, slot := range candidates {
		checked++
		if checked%cancelCheckRows == 0 {
			if err := stmt.Err(); err != nil {
				return nil, err
			}
			if stmt != nil {
				stmt.rowsScanned.Add(cancelCheckRows)
			}
		}
		if err := check(slot); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func aliasOr(alias, table string) string {
	if alias != "" {
		return alias
	}
	return table
}

func execUpdate(tx *reldb.Tx, st *sqlparse.Update, params []reldb.Value, stmt *StmtEntry) (Result, error) {
	exprs := []sqlparse.Expr{st.Where}
	for _, set := range st.Sets {
		exprs = append(exprs, set.Expr)
	}
	progs, err := compileDML(tx, st.Table, params, exprs...)
	if err != nil {
		return Result{}, err
	}
	tbl, err := tx.Table(st.Table)
	if err != nil {
		return Result{}, err
	}
	positions := make([]int, len(st.Sets))
	for i, set := range st.Sets {
		if positions[i] = tbl.Schema().ColumnIndex(set.Column); positions[i] < 0 {
			return Result{}, fmt.Errorf("sqlexec: table %s has no column %s", st.Table, set.Column)
		}
	}
	slots, err := matchingSlots(tx, st.Table, progs[0], params, stmt)
	if err != nil {
		return Result{}, err
	}
	f := &frame{params: params, tx: tx}
	var res Result
	applied := 0
	for _, slot := range slots {
		applied++
		if applied%cancelCheckRows == 0 {
			if err := stmt.Err(); err != nil {
				return Result{}, err
			}
		}
		old := tx.Row(st.Table, slot)
		if old == nil {
			continue
		}
		row := make(reldb.Row, len(old))
		copy(row, old)
		f.row = old
		for i, p := range progs[1:] {
			v, err := p.eval(f)
			if err != nil {
				return Result{}, err
			}
			row[positions[i]] = v
		}
		if err := tx.Update(st.Table, slot, row); err != nil {
			return Result{}, err
		}
		res.RowsAffected++
	}
	return res, nil
}

func execDelete(tx *reldb.Tx, st *sqlparse.Delete, params []reldb.Value, stmt *StmtEntry) (Result, error) {
	progs, err := compileDML(tx, st.Table, params, st.Where)
	if err != nil {
		return Result{}, err
	}
	slots, err := matchingSlots(tx, st.Table, progs[0], params, stmt)
	if err != nil {
		return Result{}, err
	}
	var res Result
	applied := 0
	for _, slot := range slots {
		applied++
		if applied%cancelCheckRows == 0 {
			if err := stmt.Err(); err != nil {
				return Result{}, err
			}
		}
		if err := tx.Delete(st.Table, slot); err != nil {
			return Result{}, err
		}
		res.RowsAffected++
	}
	return res, nil
}

// planAccess inspects the top-level AND conjuncts of the compiled where
// for a predicate on an indexed column of the base table, whose columns
// are the row's first ordinals whatever the joins. It returns a candidate
// slot list plus the decision it took; dec.kind == accessFullScan means no
// index applied and the caller must scan every live row.
func planAccess(tx *reldb.Tx, table string, where *program, params []reldb.Value) (slots []int, dec accessDecision, err error) {
	tbl, err := tx.Table(table)
	if err != nil {
		return nil, accessDecision{}, err
	}
	schema := tbl.Schema()
	colOf := func(p *program) (string, bool) {
		if p.op != opCol || p.idx >= len(schema.Columns) {
			return "", false
		}
		return schema.Columns[p.idx].Name, true
	}
	conjuncts := where.conjuncts()
	// Collect the constant-equality conjuncts once; a composite index that
	// covers several of them at once beats any single-column plan. The
	// value program rides along so the decision can be memoized and
	// replayed against future parameter sets.
	var eqCols []string
	var eqVals []reldb.Value
	var eqExprs []*program
	for _, c := range conjuncts {
		cp, vp, op, ok := c.colCmp()
		if !ok || op != sqlparse.OpEq {
			continue
		}
		col, okC := colOf(cp)
		if v, okV := vp.constVal(params); okC && okV && !v.IsNull() {
			eqCols, eqVals, eqExprs = append(eqCols, col), append(eqVals, v), append(eqExprs, vp)
		}
	}
	// Try composite coverage from the largest run down to pairs.
	// Contiguous runs keep this cheap; predicates almost always appear in
	// index order in generated SQL.
	for size := len(eqCols); size >= 2; size-- {
		for lo, hi := 0, size; hi <= len(eqCols); lo, hi = lo+1, hi+1 {
			if s, used := tx.LookupEqMulti(table, eqCols[lo:hi], eqVals[lo:hi]); used {
				return s, accessDecision{kind: accessMultiEq, cols: eqCols[lo:hi], valExprs: eqExprs[lo:hi], exact: size == len(conjuncts)}, nil
			}
		}
	}
	// First preference: equality on an indexed column.
	for i, col := range eqCols {
		if s, used := tx.LookupEq(table, col, eqVals[i]); used {
			return s, accessDecision{kind: accessEqIndex, cols: eqCols[i : i+1], valExprs: eqExprs[i : i+1], exact: len(conjuncts) == 1}, nil
		}
	}
	// IN-lists and IN-subqueries on an indexed column become a union of
	// point lookups in ascending slot order (this keeps e.g.
	// core.DeleteTrial's "WHERE fk IN (SELECT id ...)" statements off the
	// full-scan path). Each lookup is exact, so the union is the conjunct's
	// answer: exact when it is the only conjunct.
	for _, c := range conjuncts {
		if c.op != opIn || c.neg {
			continue
		}
		col, okC := colOf(c.args[0])
		if !okC || !tx.IndexOn(table, col, false) {
			continue
		}
		union, ok, err := inListSlots(tx, table, col, c, params)
		if err != nil {
			return nil, accessDecision{}, err
		}
		if ok {
			return union, accessDecision{kind: accessInList, exact: len(conjuncts) == 1}, nil
		}
	}
	// Second preference: a range predicate on an ordered-indexed column,
	// then BETWEEN on one.
	for _, between := range []bool{false, true} {
		if slots, ok := rangeAccess(tx, table, conjuncts, params, colOf, between); ok {
			return slots, accessDecision{kind: accessOther}, nil
		}
	}
	return nil, accessDecision{kind: accessFullScan}, nil
}

// inListSlots returns the slots whose column col equals an item of the IN
// conjunct c, in ascending slot order and each once. NULL items match no
// row. ok is false when an item is not constant or the index cannot answer
// one of them exactly (see reldb.Tx.LookupEq).
func inListSlots(tx *reldb.Tx, table, col string, c *program, params []reldb.Value) (slots []int, ok bool, err error) {
	var vals []reldb.Value
	if c.sub != nil {
		rs, err := QueryOpts(tx, c.sub.Select, params, nil, Options{})
		if err != nil {
			return nil, false, err
		}
		if len(rs.Cols) != 1 {
			return nil, false, fmt.Errorf("sqlexec: IN subquery must return one column, got %d", len(rs.Cols))
		}
		vals = make([]reldb.Value, rs.Len())
		for i := range vals {
			vals[i] = rs.At(i, 0)
		}
	}
	for _, item := range c.args[1:] {
		v, okV := item.constVal(params)
		if !okV {
			return nil, false, nil
		}
		vals = append(vals, v)
	}
	lists := make([][]int, 0, len(vals))
	lo, hi, total := math.MaxInt, -1, 0
	for _, v := range vals {
		if v.IsNull() {
			continue
		}
		s, used := tx.LookupEq(table, col, v)
		if !used {
			return nil, false, nil
		}
		for _, slot := range s {
			lo, hi = min(lo, slot), max(hi, slot)
		}
		lists, total = append(lists, s), total+len(s)
	}
	if total == 0 {
		return nil, true, nil
	}
	// A bitmap over the slot range [lo, hi] orders and deduplicates the
	// union; an index's own list may be unordered after deletes.
	bits := make([]uint64, (hi-lo)/64+1)
	for _, s := range lists {
		for _, slot := range s {
			bits[(slot-lo)/64] |= 1 << ((slot - lo) % 64)
		}
	}
	slots = make([]int, 0, total)
	for w, word := range bits {
		for word != 0 {
			slots = append(slots, lo+w*64+mbits.TrailingZeros64(word))
			word &= word - 1
		}
	}
	return slots, true, nil
}

// rangeAccess collects the slots an ordered index yields for the first
// range conjunct (or, with between, BETWEEN conjunct) it can answer.
func rangeAccess(tx *reldb.Tx, table string, conjuncts []*program, params []reldb.Value, colOf func(*program) (string, bool), between bool) ([]int, bool) {
	for _, c := range conjuncts {
		var lo, hi reldb.Value
		var loInc, hiInc bool
		cp, vp, op, ok := c.colCmp()
		switch {
		case ok && !between:
			v, okV := vp.constVal(params)
			switch op {
			case sqlparse.OpLt:
				hi = v
			case sqlparse.OpLe:
				hi, hiInc = v, true
			case sqlparse.OpGt:
				lo = v
			case sqlparse.OpGe:
				lo, loInc = v, true
			default:
				continue
			}
			if !okV || v.IsNull() {
				continue
			}
		case between && c.op == opBetween && !c.neg:
			var okL, okH bool
			cp = c.args[0]
			lo, okL = c.args[1].constVal(params)
			hi, okH = c.args[2].constVal(params)
			if !okL || !okH || lo.IsNull() || hi.IsNull() {
				continue
			}
			loInc, hiInc = true, true
		default:
			continue
		}
		col, okC := colOf(cp)
		if !okC {
			continue
		}
		var collected []int
		if tx.ScanRange(table, col, lo, hi, loInc, hiInc, func(slot int) bool {
			collected = append(collected, slot)
			return true
		}) {
			return collected, true
		}
	}
	return nil, false
}

// colCmp matches a comparison between a column and a constant or
// parameter, as col op val with the operator flipped for val op col.
func (p *program) colCmp() (col, val *program, op sqlparse.BinOp, ok bool) {
	if p.op != opBinary {
		return nil, nil, 0, false
	}
	col, val, op = p.args[0], p.args[1], p.bop
	if col.op != opCol {
		col, val = val, col
		switch op {
		case sqlparse.OpLt:
			op = sqlparse.OpGt
		case sqlparse.OpLe:
			op = sqlparse.OpGe
		case sqlparse.OpGt:
			op = sqlparse.OpLt
		case sqlparse.OpGe:
			op = sqlparse.OpLe
		}
	}
	ok = col.op == opCol && (val.op == opConst || val.op == opParam)
	return col, val, op, ok
}
