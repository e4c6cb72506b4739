package sqlexec

import (
	"fmt"
	"strings"
	"sync/atomic"

	"perfdmf/internal/reldb"
	"perfdmf/internal/sqlparse"
)

// accessKind classifies the base-table access decision planAccess made.
type accessKind uint8

const (
	accessFullScan accessKind = iota // scan every live row
	accessEqIndex                    // single-column equality index lookup
	accessMultiEq                    // composite-index multi-equality lookup
	accessInList                     // IN-list or IN-subquery union: replanned each execution
	accessOther                      // range, BETWEEN: replanned each execution
)

// accessDecision records planAccess's choice in a re-executable form:
// column names plus the constant or parameter programs they compare
// against. exact marks an equality or IN lookup that consumed every
// WHERE conjunct: an index answers both exactly, so its candidates are
// the WHERE result and need no per-row re-check.
type accessDecision struct {
	kind     accessKind
	cols     []string
	valExprs []*program
	exact    bool
}

// via names an IN-list access for EXPLAIN and the span's PlanSummary, and
// whether it is exact; it is empty for every other access.
func (d accessDecision) via() string {
	switch {
	case d.kind != accessInList:
		return ""
	case d.exact:
		return " via exact in-list"
	}
	return " via in-list"
}

// Plan is a reusable SELECT execution handle. godbc's prepared statements
// and its per-connection statement cache attach one to each SELECT. It
// caches the compiled program and the access-path decision, both valid
// while every bound table keeps its schema version; any DDL on one of them
// recompiles. A Plan is only safe for use by one goroutine at a time,
// matching the connection it belongs to; the program it caches is
// immutable and shared by that execution's workers.
type Plan struct {
	Select *sqlparse.Select

	// Columnar counts executions of this plan that took the vectorized
	// aggregation path, surfaced as OBS_PLAN_CACHE.columnar_hits. Atomic
	// because catalog snapshots read it from other goroutines while the
	// owning connection executes.
	Columnar atomic.Int64

	prog  *selectProg    // nil until compiled, or while uncacheable
	valid bool           // dec is a replayable access decision for prog
	dec   accessDecision // memoized by the first execution after compile
}

// NewPlan wraps a parsed SELECT in a reusable plan handle.
func NewPlan(sel *sqlparse.Select) *Plan { return &Plan{Select: sel} }

// selectProg is a SELECT compiled against the schemas of the tables it
// binds. It is immutable once built.
type selectProg struct {
	tables    []string // bound base tables, and their schema versions at compile
	versions  []int64
	cacheable bool // binds no derived table, so schemas alone determine it
	width     int  // bound columns across FROM and every join
	joins     []joinProg
	where     *program
	items     []*program // output items, after * expansion
	ords      []int      // items' ordinals when all are plain columns (see plainOrds)
	names     []string   // output column names
	order     []*program // ORDER BY keys
	grouped   bool       // GROUP BY, HAVING or an aggregate call
	groupBy   []*program
	having    *program
	aggs      []aggCall
	limit     *program
	offset    *program
	nparams   int
}

// joinProg is one compiled JOIN: its table's columns occupy [lo,hi) of the
// combined row, and keyed names an equality key between an earlier column
// (leftPos) and one of its own (rightPos, relative to lo).
type joinProg struct {
	on                *program
	lo, hi            int
	leftPos, rightPos int
	keyed             bool
}

// findKey picks the first ON conjunct equating an earlier column with one
// of the join's own as the join's equality key.
func (jp *joinProg) findKey() {
	for _, conj := range jp.on.conjuncts() {
		if conj.op != opBinary || conj.bop != sqlparse.OpEq || conj.args[0].op != opCol || conj.args[1].op != opCol {
			continue
		}
		l, r := conj.args[0].idx, conj.args[1].idx
		if l >= jp.lo {
			l, r = r, l
		}
		if l < jp.lo && r >= jp.lo {
			jp.leftPos, jp.rightPos, jp.keyed = l, r-jp.lo, true
			return
		}
	}
}

// stale reports whether a bound table's schema changed since compile.
func (c *selectProg) stale(tx *reldb.Tx) bool {
	for i, t := range c.tables {
		if tx.TableVersion(t) != c.versions[i] {
			return true
		}
	}
	return false
}

// compileSelect binds the statement's tables in FROM-then-JOIN order and
// compiles every clause against them, so unknown and ambiguous columns
// fail before any row is read. A derived table's subquery runs here, since
// its column names are its result's; the materialized rows are returned by
// table reference (0 is FROM, i+1 is join i), nil for other tables.
func compileSelect(tx *reldb.Tx, st *sqlparse.Select, params []reldb.Value) (*selectProg, [][]reldb.Row, error) {
	c := &selectProg{cacheable: true}
	cc := &compiler{cols: newColmap()}
	var derived [][]reldb.Row
	bind := func(tr sqlparse.TableRef) error {
		var rows []reldb.Row
		alias := aliasOr(tr.Alias, tr.Table)
		if tr.Sub != nil {
			rs, err := Query(tx, tr.Sub, params)
			if err != nil {
				return err
			}
			rows, c.cacheable = make([]reldb.Row, len(rs.Rows)), false
			for i, r := range rs.Rows {
				rows[i] = reldb.Row(r)
			}
			cc.cols.bind(alias, "", rs.Cols)
		} else if cat := catalogTable(tr.Table); cat != nil {
			cc.cols.bind(alias, "", cat.cols)
		} else {
			tbl, err := tx.Table(tr.Table)
			if err != nil {
				return err
			}
			cc.cols.bind(alias, tr.Table, tbl.Schema().ColumnNames())
			c.tables = append(c.tables, tr.Table)
			c.versions = append(c.versions, tx.TableVersion(tr.Table))
		}
		derived = append(derived, rows)
		return nil
	}
	if err := bind(st.From); err != nil {
		return nil, nil, err
	}
	for _, join := range st.Joins {
		jp := joinProg{lo: cc.cols.width}
		if err := bind(join.TableRef); err != nil {
			return nil, nil, err
		}
		jp.hi = cc.cols.width
		// ON sees only the tables bound so far.
		var err error
		if jp.on, err = cc.compile(join.On, false); err != nil {
			return nil, nil, err
		}
		jp.findKey()
		c.joins = append(c.joins, jp)
	}
	c.width = cc.cols.width
	var err error
	if c.where, err = cc.compile(st.Where, false); err != nil {
		return nil, nil, err
	}
	items, err := expandItems(st, cc.cols.fields)
	if err != nil {
		return nil, nil, err
	}
	orderExprs, err := resolveOrderBy(st, items)
	if err != nil {
		return nil, nil, err
	}
	exprs := make([]sqlparse.Expr, len(items))
	c.names = make([]string, len(items))
	for i, item := range items {
		exprs[i], c.names[i] = item.Expr, itemName(item)
	}
	if c.items, err = cc.compileAll(exprs, true); err != nil {
		return nil, nil, err
	}
	if c.order, err = cc.compileAll(orderExprs, true); err != nil {
		return nil, nil, err
	}
	c.grouped = len(st.GroupBy) > 0 || st.Having != nil || len(cc.aggs) > 0
	if !c.grouped && !st.Distinct && len(st.OrderBy) == 0 {
		c.ords = plainOrds(c.items)
	}
	if c.groupBy, err = cc.compileAll(st.GroupBy, false); err != nil {
		return nil, nil, err
	}
	if c.having, err = cc.compile(st.Having, true); err != nil {
		return nil, nil, err
	}
	c.aggs = cc.aggs
	cc.cols = newColmap() // LIMIT and OFFSET see no columns
	var lim []*program
	if lim, err = cc.compileAll([]sqlparse.Expr{st.Limit, st.Offset}, false); err != nil {
		return nil, nil, err
	}
	c.limit, c.offset = lim[0], lim[1]
	c.nparams = cc.nparams
	return c, derived, nil
}

// plainOrds returns the column ordinals of items when every item is a
// plain column reference, else nil. A SELECT of such items that neither
// groups nor has DISTINCT or ORDER BY returns its result in reference form
// (see ResultSet).
func plainOrds(items []*program) []int {
	ords := make([]int, len(items))
	for i, item := range items {
		if item.op != opCol {
			return nil
		}
		ords[i] = item.idx
	}
	return ords
}

// compile sets q.prog: the attached plan's cached program while every
// bound table keeps its schema version, else a fresh compile, which the
// plan caches unless a derived table makes it depend on more than schemas.
// It then checks the parameter count, so a missing parameter fails before
// any row is read.
func (q *query) compile() error {
	p := q.opts.Plan
	if p != nil && p.Select != q.st {
		p = nil // a handle for a different statement
	}
	if p != nil && p.prog != nil && !p.prog.stale(q.tx) {
		q.prog, q.plan = p.prog, p
	} else {
		if p != nil && p.prog != nil {
			mPlanInvalidations.Inc()
		}
		c, derived, err := compileSelect(q.tx, q.st, q.params)
		if err != nil {
			return err
		}
		q.prog, q.derived = c, derived
		if p != nil && c.cacheable {
			p.prog, p.valid, q.plan = c, false, p
		}
	}
	return checkParams(q.prog.nparams, q.params)
}

// resolveAccess returns the base table's candidate slots and the access
// decision behind them, replaying the plan's memoized decision when there
// is one and falling back to (and memoizing) a fresh planAccess run
// otherwise.
func (q *query) resolveAccess(table string) ([]int, accessDecision, error) {
	p := q.plan
	if p != nil && p.valid {
		if slots, ok := q.replayAccess(table, p.dec); ok {
			mAccessPlanReuse.Inc()
			return slots, p.dec, nil
		}
	}
	slots, dec, err := planAccess(q.tx, table, q.prog.where, q.params)
	if err != nil {
		return nil, accessDecision{}, err
	}
	if p != nil {
		// Only decisions that replay without re-inspecting the WHERE
		// clause are kept: full scans and (multi-)equality index lookups.
		// IN-unions and range scans collect slots during planning, so
		// caching them would buy nothing.
		p.dec, p.valid = dec, dec.kind != accessOther && dec.kind != accessInList
	}
	return slots, dec, nil
}

// replayAccess re-executes a memoized access decision. ok=false means the
// decision could not be replayed and the caller must replan. A NULL
// comparison value yields an empty candidate set, which is exactly what
// replanning would produce after the WHERE filter: col = NULL matches no
// row.
func (q *query) replayAccess(table string, dec accessDecision) (slots []int, ok bool) {
	if dec.kind == accessFullScan {
		return nil, true
	}
	vals := make([]reldb.Value, len(dec.valExprs))
	for i, e := range dec.valExprs {
		v, okV := e.constVal(q.params)
		if !okV {
			return nil, false
		}
		if v.IsNull() {
			return nil, true
		}
		vals[i] = v
	}
	if dec.kind == accessEqIndex {
		return q.tx.LookupEq(table, dec.cols[0], vals[0])
	}
	return q.tx.LookupEqMulti(table, dec.cols, vals)
}

// expandItems replaces * items with explicit column references.
func expandItems(st *sqlparse.Select, fields []field) ([]sqlparse.SelectItem, error) {
	var items []sqlparse.SelectItem
	for _, item := range st.Items {
		if !item.Star {
			items = append(items, item)
			continue
		}
		want := strings.ToLower(item.Table)
		found := false
		for _, f := range fields {
			if want != "" && f.alias != want {
				continue
			}
			found = true
			items = append(items, sqlparse.SelectItem{
				Expr: &sqlparse.ColRef{Table: f.alias, Name: f.name},
			})
		}
		if !found {
			return nil, fmt.Errorf("sqlexec: %s.* matches no table", item.Table)
		}
	}
	return items, nil
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
func resolveOrderBy(st *sqlparse.Select, items []sqlparse.SelectItem) ([]sqlparse.Expr, error) {
	var out []sqlparse.Expr
	for _, ob := range st.OrderBy {
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
