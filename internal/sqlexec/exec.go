package sqlexec

import (
	"fmt"
	"strings"

	"perfdmf/internal/reldb"
	"perfdmf/internal/sqlparse"
)

// Result reports the effect of a DDL/DML statement.
type Result struct {
	RowsAffected int64
	LastInsertID int64 // primary key of the last inserted row, 0 if none
}

// ResultSet is a materialized query result.
type ResultSet struct {
	Cols []string
	Rows [][]reldb.Value
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
	v, ok := constVal(st.ID, params)
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
	ev := &env{cols: newColmap(), params: params, tx: tx}
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
			v, err := eval(e, ev)
			if err != nil {
				return Result{}, err
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

// matchingSlots returns the slots of base-table rows satisfying where,
// using an index when a top-level conjunct permits, otherwise scanning.
// stmt (nil-safe) is polled every cancelCheckRows rows so a KILL unwinds
// UPDATE/DELETE scans the same way it unwinds SELECT scans.
func matchingSlots(tx *reldb.Tx, table, alias string, where sqlparse.Expr, params []reldb.Value, stmt *StmtEntry) ([]int, error) {
	tbl, err := tx.Table(table)
	if err != nil {
		return nil, err
	}
	cols := newColmap()
	cols.bind(aliasOr(alias, table), table, tbl.Schema())
	ev := &env{cols: cols, params: params, tx: tx}

	candidates, dec, err := planAccess(tx, table, aliasOr(alias, table), where, params, false)
	if err != nil {
		return nil, err
	}
	scanned := dec.kind == accessFullScan
	var out []int
	checked := 0
	check := func(slot int) error {
		row := tx.Row(table, slot)
		if row == nil {
			return nil
		}
		if where != nil {
			ev.row = row
			v, err := eval(where, ev)
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
	tbl, err := tx.Table(st.Table)
	if err != nil {
		return Result{}, err
	}
	schema := tbl.Schema()
	slots, err := matchingSlots(tx, st.Table, "", st.Where, params, stmt)
	if err != nil {
		return Result{}, err
	}
	cols := newColmap()
	cols.bind(st.Table, st.Table, schema)
	ev := &env{cols: cols, params: params, tx: tx}
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
		ev.row = old
		for _, set := range st.Sets {
			pos := schema.ColumnIndex(set.Column)
			if pos < 0 {
				return Result{}, fmt.Errorf("sqlexec: table %s has no column %s", st.Table, set.Column)
			}
			v, err := eval(set.Expr, ev)
			if err != nil {
				return Result{}, err
			}
			row[pos] = v
		}
		if err := tx.Update(st.Table, slot, row); err != nil {
			return Result{}, err
		}
		res.RowsAffected++
	}
	return res, nil
}

func execDelete(tx *reldb.Tx, st *sqlparse.Delete, params []reldb.Value, stmt *StmtEntry) (Result, error) {
	slots, err := matchingSlots(tx, st.Table, "", st.Where, params, stmt)
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

// planAccess inspects the top-level AND conjuncts of where for a predicate
// on an indexed column of the base table. It returns a candidate slot list
// plus the decision it took; dec.kind == accessFullScan means no index
// applied and the caller must scan every live row. requireQualified
// restricts planning to conjuncts whose column reference is explicitly
// qualified with the base alias; it must be set when the query has joins,
// where an unqualified name may belong to another table.
func planAccess(tx *reldb.Tx, table, alias string, where sqlparse.Expr, params []reldb.Value, requireQualified bool) (slots []int, dec accessDecision, err error) {
	conjuncts := splitAnd(where)
	evalConst := func(e sqlparse.Expr) (reldb.Value, bool) {
		return constVal(e, params)
	}
	colOf := func(e sqlparse.Expr) (string, bool) {
		c, ok := e.(*sqlparse.ColRef)
		if !ok {
			return "", false
		}
		if c.Table == "" {
			if requireQualified {
				return "", false
			}
			return c.Name, true
		}
		if !strings.EqualFold(c.Table, alias) && !strings.EqualFold(c.Table, table) {
			return "", false
		}
		return c.Name, true
	}
	// Collect the constant-equality conjuncts once; a composite index that
	// covers several of them at once beats any single-column plan. The
	// value-side expression rides along so the decision can be memoized and
	// replayed against future parameter sets.
	type eqPred struct {
		col  string
		val  reldb.Value
		expr sqlparse.Expr
	}
	var eqs []eqPred
	for _, c := range conjuncts {
		b, ok := c.(*sqlparse.Binary)
		if !ok || b.Op != sqlparse.OpEq {
			continue
		}
		col, okL := colOf(b.L)
		v, okR := evalConst(b.R)
		vexpr := b.R
		if !okL || !okR {
			col, okL = colOf(b.R)
			v, okR = evalConst(b.L)
			vexpr = b.L
		}
		if okL && okR && !v.IsNull() {
			eqs = append(eqs, eqPred{col, v, vexpr})
		}
	}
	// Try composite coverage from the largest subset down to pairs.
	if len(eqs) >= 2 {
		for size := len(eqs); size >= 2; size-- {
			// Contiguous-subset search keeps this cheap; predicates almost
			// always appear in index order in generated SQL.
			for start := 0; start+size <= len(eqs); start++ {
				cols := make([]string, size)
				vals := make([]reldb.Value, size)
				exprs := make([]sqlparse.Expr, size)
				for i := 0; i < size; i++ {
					cols[i] = eqs[start+i].col
					vals[i] = eqs[start+i].val
					exprs[i] = eqs[start+i].expr
				}
				if s, used := tx.LookupEqMulti(table, cols, vals); used {
					return s, accessDecision{kind: accessMultiEq, cols: cols, valExprs: exprs}, nil
				}
			}
		}
	}
	// First preference: equality on an indexed column.
	for _, eq := range eqs {
		if s, used := tx.LookupEq(table, eq.col, eq.val); used {
			return s, accessDecision{kind: accessEqIndex, cols: []string{eq.col}, valExprs: []sqlparse.Expr{eq.expr}}, nil
		}
	}
	// IN-lists and IN-subqueries on an indexed column become a union of
	// point lookups (this keeps e.g. core.DeleteTrial's
	// "WHERE fk IN (SELECT id ...)" statements off the full-scan path).
inLists:
	for _, c := range conjuncts {
		in, ok := c.(*sqlparse.InList)
		if !ok || in.Neg {
			continue
		}
		col, okC := colOf(in.X)
		if !okC || !tx.IndexOn(table, col, false) {
			continue
		}
		var vals []reldb.Value
		if in.Sub != nil {
			rs, err := Query(tx, in.Sub.Select, params)
			if err != nil {
				return nil, accessDecision{}, err
			}
			if len(rs.Cols) != 1 {
				return nil, accessDecision{}, fmt.Errorf("sqlexec: IN subquery must return one column, got %d", len(rs.Cols))
			}
			for _, row := range rs.Rows {
				vals = append(vals, row[0])
			}
		} else {
			allConst := true
			for _, item := range in.List {
				v, ok := evalConst(item)
				if !ok {
					allConst = false
					break
				}
				vals = append(vals, v)
			}
			if !allConst {
				continue
			}
		}
		seen := make(map[int]bool)
		union := []int{}
		for _, v := range vals {
			if v.IsNull() {
				continue
			}
			s, used := tx.LookupEq(table, col, v)
			if !used {
				continue inLists // the index cannot answer v exactly
			}
			for _, slot := range s {
				if !seen[slot] {
					seen[slot] = true
					union = append(union, slot)
				}
			}
		}
		return union, accessDecision{kind: accessOther}, nil
	}
	// Second preference: a range predicate on an ordered-indexed column.
	for _, c := range conjuncts {
		b, ok := c.(*sqlparse.Binary)
		if !ok {
			continue
		}
		var col string
		var v reldb.Value
		var okC, okV bool
		op := b.Op
		col, okC = colOf(b.L)
		v, okV = evalConst(b.R)
		if !okC || !okV {
			// Flip: const OP col.
			col, okC = colOf(b.R)
			v, okV = evalConst(b.L)
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
		if !okC || !okV || v.IsNull() {
			continue
		}
		var lo, hi reldb.Value
		var loInc, hiInc bool
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
		var collected []int
		if tx.ScanRange(table, col, lo, hi, loInc, hiInc, func(slot int) bool {
			collected = append(collected, slot)
			return true
		}) {
			return collected, accessDecision{kind: accessOther}, nil
		}
	}
	// BETWEEN on an ordered-indexed column.
	for _, c := range conjuncts {
		bt, ok := c.(*sqlparse.Between)
		if !ok || bt.Neg {
			continue
		}
		col, okC := colOf(bt.X)
		lo, okL := evalConst(bt.Lo)
		hi, okH := evalConst(bt.Hi)
		if !okC || !okL || !okH || lo.IsNull() || hi.IsNull() {
			continue
		}
		var collected []int
		if tx.ScanRange(table, col, lo, hi, true, true, func(slot int) bool {
			collected = append(collected, slot)
			return true
		}) {
			return collected, accessDecision{kind: accessOther}, nil
		}
	}
	return nil, accessDecision{kind: accessFullScan}, nil
}

// splitAnd flattens the top-level AND spine of an expression.
func splitAnd(e sqlparse.Expr) []sqlparse.Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*sqlparse.Binary); ok && b.Op == sqlparse.OpAnd {
		return append(splitAnd(b.L), splitAnd(b.R)...)
	}
	return []sqlparse.Expr{e}
}
