// Package sqlexec plans and executes parsed SQL statements against the
// reldb storage engine. It implements the query side of the PerfDMF
// database substrate: expressions compiled once per plan and evaluated
// with SQL three-valued logic, index selection for equality and range
// predicates, hash joins, grouping with the aggregate set PerfDMF's
// analysis layer relies on (COUNT/SUM/AVG/MIN/MAX/STDDEV), ORDER BY,
// DISTINCT and LIMIT/OFFSET.
package sqlexec

import (
	"fmt"
	"math"
	"strings"

	"perfdmf/internal/reldb"
	"perfdmf/internal/sqlparse"
)

// frame is one evaluator's run-time state: the current row, the
// execution's parameters and the current group's finished aggregate
// values. Compiled programs are immutable and shared, so every goroutine
// evaluates through a frame of its own.
type frame struct {
	row    reldb.Row // concatenated row covering all bindings
	params []reldb.Value
	aggs   []reldb.Value // indexed by opAgg slot
	// tx enables uncorrelated subquery evaluation; sub caches each
	// subquery's result for the frame's lifetime.
	tx  *reldb.Tx
	sub map[*sqlparse.Subquery]*ResultSet
	// serial marks a frame owned by a parallel worker: subqueries it spawns
	// must not fan out again, or worker counts would multiply.
	serial bool
}

// subResult runs (or returns the cached result of) an uncorrelated
// subquery.
func (f *frame) subResult(sq *sqlparse.Subquery) (*ResultSet, error) {
	if f.tx == nil {
		return nil, fmt.Errorf("sqlexec: subquery not allowed in this context")
	}
	if rs, ok := f.sub[sq]; ok {
		return rs, nil
	}
	var opts Options
	if f.serial {
		opts.Workers = 1
	}
	rs, err := QueryOpts(f.tx, sq.Select, f.params, nil, opts)
	if err != nil {
		return nil, err
	}
	if f.sub == nil {
		f.sub = make(map[*sqlparse.Subquery]*ResultSet)
	}
	f.sub[sq] = rs
	return rs, nil
}

// colmap is the compiler's symbol table: it resolves column references
// against one or more table bindings to row ordinals.
type colmap struct {
	// qualified maps "alias.column" (lower-cased) to a position.
	qualified map[string]int
	// unqualified maps "column" to a position, or -2 when ambiguous.
	unqualified map[string]int
	fields      []field // bound columns in order, for * expansion
	width       int
}

type field struct {
	alias string // binding alias (lower-cased)
	name  string // column name as declared
}

func newColmap() *colmap {
	return &colmap{qualified: make(map[string]int), unqualified: make(map[string]int)}
}

// bind adds a table's columns at the current offset under alias, and also
// under the table name when it differs (table is "" for derived and
// catalog tables, which are known by their alias only).
func (m *colmap) bind(alias, table string, names []string) {
	alias = strings.ToLower(alias)
	for i, name := range names {
		pos := m.width + i
		lower := strings.ToLower(name)
		m.qualified[alias+"."+lower] = pos
		if table != "" && !strings.EqualFold(alias, table) {
			m.qualified[strings.ToLower(table)+"."+lower] = pos
		}
		if old, ok := m.unqualified[lower]; ok && old != pos {
			m.unqualified[lower] = -2
		} else {
			m.unqualified[lower] = pos
		}
		m.fields = append(m.fields, field{alias: alias, name: name})
	}
	m.width += len(names)
}

// resolve returns the position of a column reference.
func (m *colmap) resolve(c *sqlparse.ColRef) (int, error) {
	if c.Table != "" {
		pos, ok := m.qualified[strings.ToLower(c.Table)+"."+strings.ToLower(c.Name)]
		if !ok {
			return 0, fmt.Errorf("sqlexec: unknown column %s.%s", c.Table, c.Name)
		}
		return pos, nil
	}
	pos, ok := m.unqualified[strings.ToLower(c.Name)]
	if !ok {
		return 0, fmt.Errorf("sqlexec: unknown column %s", c.Name)
	}
	if pos == -2 {
		return 0, fmt.Errorf("sqlexec: ambiguous column %s", c.Name)
	}
	return pos, nil
}

// opcode is a compiled expression node's operation.
type opcode uint8

const (
	opConst   opcode = iota // val
	opParam                 // params[idx]
	opCol                   // row[idx], NULL past the row's end
	opAgg                   // aggs[idx]
	opUnary                 // -args[0] when neg, else NOT args[0]
	opBinary                // args[0] bop args[1]
	opIsNull                // args[0] IS [NOT] NULL
	opIn                    // args[0] [NOT] IN (args[1:]...) or IN (sub)
	opBetween               // args[0] [NOT] BETWEEN args[1] AND args[2]
	opFunc                  // scalar function name(args...)
	opSub                   // scalar subquery sub
)

// program is a compiled expression. Column references are row ordinals,
// parameters are parameter indexes, aggregate calls are slots in the
// group's finished values, and constant subtrees are folded into opConst.
// A program is immutable once compiled.
type program struct {
	op   opcode
	bop  sqlparse.BinOp
	neg  bool
	idx  int
	val  reldb.Value
	name string
	args []*program
	sub  *sqlparse.Subquery
}

// aggCall is one aggregate call of a grouped query; arg is nil for *.
type aggCall struct {
	name     string
	star     bool
	distinct bool
	arg      *program
}

// compiler lowers sqlparse expressions into programs against its symbol
// table. It collects the aggregate calls it compiles, in slot order, and
// nparams, one past the highest parameter index it saw.
type compiler struct {
	cols    *colmap
	aggs    []aggCall
	nparams int
}

// scalarArity bounds each scalar function's argument count; -1 is
// unbounded.
var scalarArity = map[string][2]int{
	"ABS": {1, 1}, "SQRT": {1, 1}, "ROUND": {1, 2}, "UPPER": {1, 1}, "LOWER": {1, 1},
	"LENGTH": {1, 1}, "COALESCE": {0, -1}, "IFNULL": {0, -1}, "CONCAT": {0, -1},
}

// compile lowers e (nil for an absent clause), reporting unknown or
// ambiguous columns, unknown functions and malformed calls. Aggregate calls
// compile to slots only where agg allows them (output items, HAVING and
// ORDER BY); an aggregate's own argument never allows them.
func (c *compiler) compile(e sqlparse.Expr, agg bool) (*program, error) {
	var p *program
	var args []sqlparse.Expr
	switch e := e.(type) {
	case nil:
		return nil, nil
	case *sqlparse.Literal:
		return &program{op: opConst, val: e.Value}, nil
	case *sqlparse.Param:
		c.nparams = max(c.nparams, e.Index+1)
		return &program{op: opParam, idx: e.Index}, nil
	case *sqlparse.ColRef:
		pos, err := c.cols.resolve(e)
		if err != nil {
			return nil, err
		}
		return &program{op: opCol, idx: pos}, nil
	case *sqlparse.Subquery:
		return &program{op: opSub, sub: e}, nil
	case *sqlparse.Unary:
		p, args = &program{op: opUnary, neg: e.Neg}, []sqlparse.Expr{e.X}
	case *sqlparse.Binary:
		p, args = &program{op: opBinary, bop: e.Op}, []sqlparse.Expr{e.L, e.R}
	case *sqlparse.IsNull:
		p, args = &program{op: opIsNull, neg: e.Neg}, []sqlparse.Expr{e.X}
	case *sqlparse.InList:
		p, args = &program{op: opIn, neg: e.Neg, sub: e.Sub}, append([]sqlparse.Expr{e.X}, e.List...)
	case *sqlparse.Between:
		p, args = &program{op: opBetween, neg: e.Neg}, []sqlparse.Expr{e.X, e.Lo, e.Hi}
	case *sqlparse.FuncCall:
		if isAggName(e.Name) {
			return c.compileAgg(e, agg)
		}
		arity, ok := scalarArity[e.Name]
		switch {
		case !ok:
			return nil, fmt.Errorf("sqlexec: unknown function %s", e.Name)
		case e.Name == "ROUND" && (len(e.Args) < 1 || len(e.Args) > 2):
			return nil, fmt.Errorf("sqlexec: ROUND expects 1 or 2 arguments")
		case len(e.Args) < arity[0] || arity[1] >= 0 && len(e.Args) > arity[1]:
			return nil, fmt.Errorf("sqlexec: %s expects %d argument(s), got %d", e.Name, arity[0], len(e.Args))
		}
		p, args = &program{op: opFunc, name: e.Name}, e.Args
	default:
		return nil, fmt.Errorf("sqlexec: cannot evaluate %T", e)
	}
	foldable := p.sub == nil
	p.args = make([]*program, len(args))
	for i, a := range args {
		ap, err := c.compile(a, agg)
		if err != nil {
			return nil, err
		}
		p.args[i] = ap
		foldable = foldable && ap.op == opConst
	}
	if !foldable {
		return p, nil
	}
	v, err := p.eval(&frame{})
	if err != nil {
		return nil, err
	}
	return &program{op: opConst, val: v}, nil
}

// compileAll compiles each expression in order.
func (c *compiler) compileAll(exprs []sqlparse.Expr, agg bool) ([]*program, error) {
	out := make([]*program, len(exprs))
	for i, e := range exprs {
		var err error
		if out[i], err = c.compile(e, agg); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// compileAgg validates an aggregate call and assigns it the next slot.
func (c *compiler) compileAgg(e *sqlparse.FuncCall, agg bool) (*program, error) {
	switch {
	case !agg:
		return nil, fmt.Errorf("sqlexec: aggregate %s not allowed here", e.Name)
	case e.Star && e.Name != "COUNT":
		return nil, fmt.Errorf("sqlexec: %s(*) is not valid", e.Name)
	case !e.Star && len(e.Args) != 1:
		return nil, fmt.Errorf("sqlexec: %s expects one argument", e.Name)
	}
	a := aggCall{name: e.Name, star: e.Star, distinct: e.Distinct}
	if !e.Star {
		var err error
		if a.arg, err = c.compile(e.Args[0], false); err != nil {
			return nil, err
		}
	}
	c.aggs = append(c.aggs, a)
	return &program{op: opAgg, idx: len(c.aggs) - 1}, nil
}

// checkParams reports a missing parameter when a program reads n of them.
// Programs index params unchecked, so every execution checks once, before
// it reads a row.
func checkParams(n int, params []reldb.Value) error {
	if n > len(params) {
		return fmt.Errorf("sqlexec: missing parameter %d", len(params)+1)
	}
	return nil
}

// constVal returns the value of a constant program, or of a parameter
// program that params supplies.
func (p *program) constVal(params []reldb.Value) (reldb.Value, bool) {
	switch {
	case p.op == opConst:
		return p.val, true
	case p.op == opParam && p.idx < len(params):
		return params[p.idx], true
	}
	return reldb.Null, false
}

// conjuncts flattens the top-level AND spine of a program.
func (p *program) conjuncts() []*program {
	if p == nil {
		return nil
	}
	if p.op == opBinary && p.bop == sqlparse.OpAnd {
		return append(p.args[0].conjuncts(), p.args[1].conjuncts()...)
	}
	return []*program{p}
}

// evalAll evaluates progs into dst.
func evalAll(dst []reldb.Value, progs []*program, f *frame) error {
	for i, p := range progs {
		v, err := p.eval(f)
		if err != nil {
			return err
		}
		dst[i] = v
	}
	return nil
}

// eval evaluates a program. SQL NULL propagates through operators
// (three-valued logic); WHERE/HAVING treat a NULL result as false.
func (p *program) eval(f *frame) (reldb.Value, error) {
	switch p.op {
	case opConst:
		return p.val, nil
	case opParam:
		return f.params[p.idx], nil
	case opCol:
		if p.idx < len(f.row) {
			return f.row[p.idx], nil
		}
		return reldb.Null, nil // null-extended left-join row
	case opAgg:
		return f.aggs[p.idx], nil
	case opBinary:
		return p.evalBinary(f)
	case opIn:
		return p.evalIn(f)
	case opFunc:
		return p.evalScalarFunc(f)
	case opSub:
		rs, err := f.subResult(p.sub)
		if err != nil {
			return reldb.Null, err
		}
		if len(rs.Cols) != 1 {
			return reldb.Null, fmt.Errorf("sqlexec: scalar subquery must return one column, got %d", len(rs.Cols))
		}
		switch rs.Len() {
		case 0:
			return reldb.Null, nil
		case 1:
			return rs.At(0, 0), nil
		}
		return reldb.Null, fmt.Errorf("sqlexec: scalar subquery returned %d rows", rs.Len())
	}
	var xs [3]reldb.Value // the operands of the unary, IS NULL and BETWEEN forms
	if err := evalAll(xs[:len(p.args)], p.args, f); err != nil {
		return reldb.Null, err
	}
	x, lo, hi := xs[0], xs[1], xs[2]
	switch p.op {
	case opUnary:
		if x.IsNull() {
			return reldb.Null, nil
		}
		if p.neg {
			if x.T == reldb.TFloat {
				return reldb.Float(-x.F), nil
			}
			return reldb.Int(-x.AsInt()), nil
		}
		return reldb.Bool(!x.AsBool()), nil
	case opIsNull:
		return reldb.Bool(x.IsNull() != p.neg), nil
	case opBetween:
		if x.IsNull() || lo.IsNull() || hi.IsNull() {
			return reldb.Null, nil
		}
		in := reldb.Compare(x, lo) >= 0 && reldb.Compare(x, hi) <= 0
		return reldb.Bool(in != p.neg), nil
	}
	return reldb.Null, fmt.Errorf("sqlexec: bad opcode %d", p.op)
}

func (p *program) evalBinary(f *frame) (reldb.Value, error) {
	op := p.bop
	l, err := p.args[0].eval(f)
	if err != nil {
		return reldb.Null, err
	}
	// AND/OR implement three-valued logic with short circuit: a side equal
	// to decide (false for AND, true for OR) settles the result.
	if op == sqlparse.OpAnd || op == sqlparse.OpOr {
		decide := op == sqlparse.OpOr
		if !l.IsNull() && l.AsBool() == decide {
			return reldb.Bool(decide), nil
		}
		r, err := p.args[1].eval(f)
		if err != nil {
			return reldb.Null, err
		}
		if !r.IsNull() && r.AsBool() == decide {
			return reldb.Bool(decide), nil
		}
		if l.IsNull() || r.IsNull() {
			return reldb.Null, nil
		}
		return reldb.Bool(!decide), nil
	}

	r, err := p.args[1].eval(f)
	if err != nil {
		return reldb.Null, err
	}
	if l.IsNull() || r.IsNull() {
		return reldb.Null, nil
	}
	switch op {
	case sqlparse.OpEq:
		return reldb.Bool(reldb.Compare(l, r) == 0), nil
	case sqlparse.OpNe:
		return reldb.Bool(reldb.Compare(l, r) != 0), nil
	case sqlparse.OpLt:
		return reldb.Bool(reldb.Compare(l, r) < 0), nil
	case sqlparse.OpLe:
		return reldb.Bool(reldb.Compare(l, r) <= 0), nil
	case sqlparse.OpGt:
		return reldb.Bool(reldb.Compare(l, r) > 0), nil
	case sqlparse.OpGe:
		return reldb.Bool(reldb.Compare(l, r) >= 0), nil
	case sqlparse.OpLike:
		return reldb.Bool(likeMatch(r.AsString(), l.AsString())), nil
	case sqlparse.OpConcat:
		return reldb.Str(l.AsString() + r.AsString()), nil
	case sqlparse.OpAdd, sqlparse.OpSub, sqlparse.OpMul:
		if l.T == reldb.TFloat || r.T == reldb.TFloat {
			a, b := l.AsFloat(), r.AsFloat()
			switch op {
			case sqlparse.OpAdd:
				return reldb.Float(a + b), nil
			case sqlparse.OpSub:
				return reldb.Float(a - b), nil
			default:
				return reldb.Float(a * b), nil
			}
		}
		a, b := l.AsInt(), r.AsInt()
		switch op {
		case sqlparse.OpAdd:
			return reldb.Int(a + b), nil
		case sqlparse.OpSub:
			return reldb.Int(a - b), nil
		default:
			return reldb.Int(a * b), nil
		}
	case sqlparse.OpDiv:
		// Division is always floating point: PerfDMF's derived metrics
		// (ratios, speedups, FLOP rates) must not truncate.
		b := r.AsFloat()
		if b == 0 {
			return reldb.Null, nil
		}
		return reldb.Float(l.AsFloat() / b), nil
	case sqlparse.OpMod:
		b := r.AsInt()
		if b == 0 {
			return reldb.Null, nil
		}
		return reldb.Int(l.AsInt() % b), nil
	}
	return reldb.Null, fmt.Errorf("sqlexec: bad binary op %d", op)
}

func (p *program) evalIn(f *frame) (reldb.Value, error) {
	x, err := p.args[0].eval(f)
	if err != nil {
		return reldb.Null, err
	}
	if x.IsNull() {
		return reldb.Null, nil
	}
	sawNull := false
	if p.sub != nil {
		rs, err := f.subResult(p.sub)
		if err != nil {
			return reldb.Null, err
		}
		if len(rs.Cols) != 1 {
			return reldb.Null, fmt.Errorf("sqlexec: IN subquery must return one column, got %d", len(rs.Cols))
		}
		for i := range rs.Len() {
			v := rs.At(i, 0)
			if v.IsNull() {
				sawNull = true
				continue
			}
			if reldb.Compare(x, v) == 0 {
				return reldb.Bool(!p.neg), nil
			}
		}
	}
	for _, item := range p.args[1:] {
		v, err := item.eval(f)
		if err != nil {
			return reldb.Null, err
		}
		if v.IsNull() {
			sawNull = true
			continue
		}
		if reldb.Compare(x, v) == 0 {
			return reldb.Bool(!p.neg), nil
		}
	}
	if sawNull {
		return reldb.Null, nil
	}
	return reldb.Bool(p.neg), nil
}

// evalScalarFunc evaluates the supported scalar functions; compile has
// already checked the name and the argument count.
func (p *program) evalScalarFunc(f *frame) (reldb.Value, error) {
	var buf [4]reldb.Value
	args := buf[:0]
	for _, a := range p.args {
		v, err := a.eval(f)
		if err != nil {
			return reldb.Null, err
		}
		args = append(args, v)
	}
	switch p.name {
	case "COALESCE", "IFNULL":
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return reldb.Null, nil
	case "CONCAT":
		var b strings.Builder
		for _, a := range args {
			if a.IsNull() {
				return reldb.Null, nil
			}
			b.WriteString(a.AsString())
		}
		return reldb.Str(b.String()), nil
	}
	x := args[0]
	if x.IsNull() {
		return reldb.Null, nil
	}
	switch p.name {
	case "ABS":
		if x.T == reldb.TFloat {
			return reldb.Float(math.Abs(x.F)), nil
		}
		i := x.AsInt()
		if i < 0 {
			i = -i
		}
		return reldb.Int(i), nil
	case "SQRT":
		return reldb.Float(math.Sqrt(x.AsFloat())), nil
	case "ROUND":
		digits := 0
		if len(args) == 2 {
			digits = int(args[1].AsInt())
		}
		scale := math.Pow(10, float64(digits))
		return reldb.Float(math.Round(x.AsFloat()*scale) / scale), nil
	case "UPPER":
		return reldb.Str(strings.ToUpper(x.AsString())), nil
	case "LOWER":
		return reldb.Str(strings.ToLower(x.AsString())), nil
	case "LENGTH":
		return reldb.Int(int64(len(x.AsString()))), nil
	}
	return reldb.Null, fmt.Errorf("sqlexec: unknown function %s", p.name)
}

// likeMatch implements SQL LIKE: % matches any run, _ matches one byte.
func likeMatch(pattern, s string) bool {
	// Iterative two-pointer match with backtracking on the last %.
	p, i := 0, 0
	star, mark := -1, 0
	for i < len(s) {
		switch {
		case p < len(pattern) && (pattern[p] == '_' || pattern[p] == s[i]):
			p++
			i++
		case p < len(pattern) && pattern[p] == '%':
			star = p
			mark = i
			p++
		case star >= 0:
			p = star + 1
			mark++
			i = mark
		default:
			return false
		}
	}
	for p < len(pattern) && pattern[p] == '%' {
		p++
	}
	return p == len(pattern)
}

// truthy reports whether a WHERE/HAVING/ON result admits the row.
func truthy(v reldb.Value) bool { return !v.IsNull() && v.AsBool() }
