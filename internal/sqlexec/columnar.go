package sqlexec

import (
	"fmt"
	"math"
	"strings"

	"perfdmf/internal/reldb"
	"perfdmf/internal/sqlparse"
)

// Vectorized aggregation over sealed column segments (see reldb/segment.go).
//
// The path has two phases. Phase one evaluates the compiled WHERE conjuncts
// over column vectors and materializes one global selection vector — the
// post-filter row positions in row order, exactly the sequence the row path
// hands to aggregation. Phase two chunks that selection into aggChunkRows
// pieces and folds each with gather kernels into the same chunkGroup /
// aggPartial state the row path produces, then reuses mergeChunks and
// finalizeGroups. Because chunk boundaries, group discovery order, float
// accumulation order, and every comparison mirror the row path operation for
// operation, results are bitwise-identical at any worker count — the
// invariant parallel_test.go's differential corpus pins.
//
// Anything the kernels cannot express — joins, DISTINCT aggregates,
// non-column aggregate arguments or GROUP BY terms, WHERE conjuncts beyond
// {col CMP const, col IS [NOT] NULL, col [NOT] BETWEEN const AND const} —
// falls back to the row path before any work is done.

// cmpClass says how a compiled comparison evaluates a cell against its
// constant, mirroring reldb.Compare's type dispatch for the fixed pair
// (column type, constant type).
type cmpClass uint8

const (
	cmpInt   cmpClass = iota // both int-like: compare .I
	cmpFloat                 // either side float: compare as float64 (NaN -> 0)
	cmpStr                   // both string-like: lexicographic
	cmpConst                 // incomparable types: constant type-tag verdict
)

// cmpSpec is one side of a compiled comparison: the constant, pre-coerced
// for the column's storage class.
type cmpSpec struct {
	class cmpClass
	i64   int64
	f64   float64
	str   string
	tag   int // cmpConst: the constant Compare result (type-tag order)
}

// numericType mirrors reldb's unexported Value.numeric.
func numericType(t reldb.Type) bool {
	switch t {
	case reldb.TInt, reldb.TFloat, reldb.TBool, reldb.TTime:
		return true
	}
	return false
}

// makeCmpSpec compiles Compare(cell, c) for a column of type colType: the
// class picks the same branch Compare would for every non-NULL cell.
func makeCmpSpec(colType reldb.Type, c reldb.Value) cmpSpec {
	stringish := func(t reldb.Type) bool { return t == reldb.TString || t == reldb.TBytes }
	switch {
	case numericType(colType) && numericType(c.T) && (colType == reldb.TFloat || c.T == reldb.TFloat):
		return cmpSpec{class: cmpFloat, f64: c.AsFloat()}
	case numericType(colType) && numericType(c.T):
		return cmpSpec{class: cmpInt, i64: c.I}
	case stringish(colType) && stringish(c.T):
		return cmpSpec{class: cmpStr, str: c.S}
	default:
		tag := 0
		if colType < c.T {
			tag = -1
		} else if colType > c.T {
			tag = 1
		}
		return cmpSpec{class: cmpConst, tag: tag}
	}
}

// cmpIntCell is Compare(cell, const) for an int-class cell.
func (cs *cmpSpec) cmpIntCell(iv int64) int {
	switch cs.class {
	case cmpInt:
		switch {
		case iv < cs.i64:
			return -1
		case iv > cs.i64:
			return 1
		}
		return 0
	case cmpFloat:
		fv := float64(iv)
		switch {
		case fv < cs.f64:
			return -1
		case fv > cs.f64:
			return 1
		}
		return 0
	}
	return cs.tag
}

// cmpFloatCell is Compare(cell, const) for a float cell. Compare returns 0
// when either operand is NaN (neither < nor > holds), which these plain
// comparisons reproduce.
func (cs *cmpSpec) cmpFloatCell(fv float64) int {
	if cs.class == cmpFloat {
		switch {
		case fv < cs.f64:
			return -1
		case fv > cs.f64:
			return 1
		}
		return 0
	}
	return cs.tag
}

// cmpStrCell is Compare(cell, const) for a string cell.
func (cs *cmpSpec) cmpStrCell(sv string) int {
	if cs.class == cmpStr {
		switch {
		case sv < cs.str:
			return -1
		case sv > cs.str:
			return 1
		}
		return 0
	}
	return cs.tag
}

// predOp is the kind of one compiled WHERE conjunct.
type predOp uint8

const (
	predCmp     predOp = iota // col CMP const
	predBetween               // col [NOT] BETWEEN const AND const
	predIsNull                // col IS [NOT] NULL
)

// colPred is one compiled conjunct bound to a column segment. NULL cells
// never pass a value predicate (the row path's comparison yields SQL NULL,
// which is not truthy); predIsNull is the only NULL-observing form.
type colPred struct {
	op     predOp
	ci     int            // schema column index
	bop    sqlparse.BinOp // predCmp operator (const on the right)
	spec   cmpSpec        // predCmp
	lo, hi cmpSpec        // predBetween bounds
	neg    bool           // predIsNull: IS NOT NULL; predBetween: NOT BETWEEN

	// Bound at execution time.
	seg      *reldb.ColumnSegment
	dictPass []bool // dict segments: per-code verdict, computed once
}

// cmpSatisfies maps a Compare result to the operator verdict, mirroring
// evalBinary's comparison switch.
func cmpSatisfies(op sqlparse.BinOp, c int) bool {
	switch op {
	case sqlparse.OpEq:
		return c == 0
	case sqlparse.OpNe:
		return c != 0
	case sqlparse.OpLt:
		return c < 0
	case sqlparse.OpLe:
		return c <= 0
	case sqlparse.OpGt:
		return c > 0
	case sqlparse.OpGe:
		return c >= 0
	}
	return false
}

// passStr is the full verdict for one non-NULL string cell.
func (p *colPred) passStr(sv string) bool {
	switch p.op {
	case predCmp:
		return cmpSatisfies(p.bop, p.spec.cmpStrCell(sv))
	case predBetween:
		in := p.lo.cmpStrCell(sv) >= 0 && p.hi.cmpStrCell(sv) <= 0
		return in != p.neg
	}
	return false
}

// bind attaches the column segment and, for dictionary columns, evaluates
// the predicate once per dictionary entry instead of once per row.
func (p *colPred) bind(set *reldb.SegmentSet) {
	p.seg = set.Col(p.ci)
	if p.seg.IsDict() && p.op != predIsNull {
		dict := p.seg.Dict()
		pass := make([]bool, len(dict))
		for code, sv := range dict {
			pass[code] = p.passStr(sv)
		}
		p.dictPass = pass
	}
}

// apply narrows pass (true = row still selected) over block rows [lo,hi).
func (p *colPred) apply(lo, hi int, pass []bool, sc *colScratch) {
	seg := p.seg
	n := hi - lo
	if p.op == predIsNull {
		for i := 0; i < n; i++ {
			if pass[i] {
				pass[i] = !seg.Valid(lo+i) != p.neg
			}
		}
		return
	}
	if seg.IsDict() {
		codes := seg.Codes(lo, hi)
		for i, c := range codes {
			if pass[i] {
				pass[i] = c >= 0 && p.dictPass[c]
			}
		}
		return
	}
	hasNulls := seg.HasNulls()
	switch seg.Type() {
	case reldb.TInt, reldb.TBool, reldb.TTime:
		vals := buf(&sc.i64, n)
		seg.DecodeInts(lo, hi, vals)
		for i, v := range vals {
			if !pass[i] {
				continue
			}
			if hasNulls && !seg.Valid(lo+i) {
				pass[i] = false
				continue
			}
			if p.op == predCmp {
				pass[i] = cmpSatisfies(p.bop, p.spec.cmpIntCell(v))
			} else {
				in := p.lo.cmpIntCell(v) >= 0 && p.hi.cmpIntCell(v) <= 0
				pass[i] = in != p.neg
			}
		}
	case reldb.TFloat:
		vals := buf(&sc.f64, n)
		seg.DecodeFloats(lo, hi, vals)
		for i, v := range vals {
			if !pass[i] {
				continue
			}
			if hasNulls && !seg.Valid(lo+i) {
				pass[i] = false
				continue
			}
			if p.op == predCmp {
				pass[i] = cmpSatisfies(p.bop, p.spec.cmpFloatCell(v))
			} else {
				in := p.lo.cmpFloatCell(v) >= 0 && p.hi.cmpFloatCell(v) <= 0
				pass[i] = in != p.neg
			}
		}
	default: // raw strings
		strs := seg.Strs(lo, hi)
		for i, v := range strs {
			if !pass[i] {
				continue
			}
			if hasNulls && !seg.Valid(lo+i) {
				pass[i] = false
				continue
			}
			pass[i] = p.passStr(v)
		}
	}
}

// colProgram is the compiled conjunction of a WHERE clause's predicates.
type colProgram struct {
	preds       []colPred
	cols        []int
	alwaysFalse bool // a conjunct is constant-false: nothing selects
}

// compilePredicate lowers the compiled WHERE into column predicates, or
// reports that the clause needs the row path. schema is the base table's
// schema; for a no-join base query, row ordinals are schema column indexes.
func (q *query) compilePredicate(where *program, schema *reldb.Schema) (*colProgram, bool) {
	prog := &colProgram{}
	colType := func(x *program) (int, reldb.Type, bool) {
		if x.op != opCol || x.idx >= len(schema.Columns) {
			return 0, 0, false
		}
		return x.idx, schema.Columns[x.idx].Type, true
	}
	for _, conj := range where.conjuncts() {
		switch conj.op {
		case opIsNull:
			ci, _, ok := colType(conj.args[0])
			if !ok {
				return nil, false
			}
			prog.preds = append(prog.preds, colPred{op: predIsNull, ci: ci, neg: conj.neg})
			prog.cols = append(prog.cols, ci)
		case opBetween:
			ci, typ, ok := colType(conj.args[0])
			if !ok {
				return nil, false
			}
			lo, okLo := conj.args[1].constVal(q.params)
			hi, okHi := conj.args[2].constVal(q.params)
			if !okLo || !okHi {
				return nil, false
			}
			if lo.IsNull() || hi.IsNull() {
				// BETWEEN with a NULL bound is SQL NULL for every row.
				prog.alwaysFalse = true
				continue
			}
			prog.preds = append(prog.preds, colPred{
				op: predBetween, ci: ci, neg: conj.neg,
				lo: makeCmpSpec(typ, lo), hi: makeCmpSpec(typ, hi),
			})
			prog.cols = append(prog.cols, ci)
		case opBinary:
			col, cexpr, op, ok := conj.colCmp()
			switch op {
			case sqlparse.OpEq, sqlparse.OpNe, sqlparse.OpLt, sqlparse.OpLe, sqlparse.OpGt, sqlparse.OpGe:
			default:
				ok = false
			}
			if !ok {
				return nil, false
			}
			ci, typ, ok := colType(col)
			if !ok {
				return nil, false
			}
			c, _ := cexpr.constVal(q.params)
			if c.IsNull() {
				// Comparison with NULL is SQL NULL for every row.
				prog.alwaysFalse = true
				continue
			}
			prog.preds = append(prog.preds, colPred{op: predCmp, ci: ci, bop: op, spec: makeCmpSpec(typ, c)})
			prog.cols = append(prog.cols, ci)
		default:
			return nil, false
		}
	}
	return prog, true
}

// evalBlock appends the passing row positions of block [lo,hi) to out.
func (prog *colProgram) evalBlock(lo, hi int, sc *colScratch, out []int32) []int32 {
	n := hi - lo
	pass := buf(&sc.pass, n)
	for i := range pass {
		pass[i] = true
	}
	for pi := range prog.preds {
		prog.preds[pi].apply(lo, hi, pass, sc)
	}
	for i, ok := range pass {
		if ok {
			out = append(out, int32(lo+i))
		}
	}
	return out
}

// colScratch is one worker's reusable kernel buffers. Each is sized by
// the first kernel that uses it (see buf), so a query allocates only the
// buffers its column types need.
type colScratch struct {
	pass       []bool
	i64        []int64
	f64        []float64
	i32        []int32
	strs       []string
	kv         []reldb.Value
	ids        []int32 // the positions of an all-rows chunk
	rowGroups  []*chunkGroup
	codeGroups []*chunkGroup // single dict group column: code+1 -> group
	key        []byte        // keyOf key of kv
	alloc      *groupAlloc
	// A chunk's groups by key, one map per group-pass shape, cleared and
	// reused chunk after chunk.
	intGroups   map[int64]*chunkGroup
	floatGroups map[uint64]*chunkGroup
	strGroups   map[string]*chunkGroup
	keyGroups   map[string]*chunkGroup // by keyOf key
}

// buf returns (*b)[:n], first replacing *b with a buffer of n elements
// when it holds fewer.
func buf[T any](b *[]T, n int) []T {
	if cap(*b) < n {
		*b = make([]T, n)
	}
	return (*b)[:n]
}

// reuse returns *m emptied, making it on first use.
func reuse[K comparable](m *map[K]*chunkGroup) map[K]*chunkGroup {
	if *m == nil {
		*m = make(map[K]*chunkGroup)
	}
	clear(*m)
	return *m
}

// colAggSpec is one aggregate call bound to its argument segment.
type colAggSpec struct {
	star  bool
	seg   *reldb.ColumnSegment
	dictF []float64 // dict segments: AsFloat per code, computed once
}

// tryColumnarAggregate attempts the vectorized aggregation path for a
// no-join full-scan SELECT over table. It leaves q.colDone false (and
// returns no error) whenever the row path must run instead. On success the
// final result rows and sort keys are stored on q (colDone) and the scan,
// filter and aggregation are all complete.
func (q *query) tryColumnarAggregate(table string) error {
	c := q.prog
	if !c.grouped {
		return nil
	}
	aggCIs := make([]int, len(c.aggs))
	for i, a := range c.aggs {
		switch {
		case a.distinct:
			return nil
		case a.star:
			aggCIs[i] = -1
		case a.arg.op != opCol:
			return nil
		default:
			aggCIs[i] = a.arg.idx
		}
	}
	groupCIs := make([]int, len(c.groupBy))
	for i, g := range c.groupBy {
		if g.op != opCol {
			return nil
		}
		groupCIs[i] = g.idx
	}
	if q.liveRows(table) < parallelMinRows {
		return nil
	}
	tbl, err := q.tx.Table(table)
	if err != nil {
		return nil
	}
	schema := tbl.Schema()
	prog, ok := q.compilePredicate(c.where, schema)
	if !ok {
		mColumnarFallbacks.Inc()
		return nil
	}

	// Segments: a fresh set if one exists; otherwise count an eligible read
	// toward the lazy read-mostly build, feeding the dictionary decision
	// from ANALYZE's NDV estimates when the build fires.
	need := prog.cols
	for _, ci := range groupCIs {
		need = append(need, ci)
	}
	for _, ci := range aggCIs {
		if ci >= 0 {
			need = append(need, ci)
		}
	}
	set := tbl.Segments()
	if set == nil {
		set = tbl.SegmentsLazy(ndvHints(q.tx, table, schema))
	}
	if set == nil || !set.Covers(need...) {
		mColumnarFallbacks.Inc()
		return nil
	}
	for pi := range prog.preds {
		prog.preds[pi].bind(set)
	}

	workers := q.opts.effectiveWorkers()
	sel, all, err := q.columnarSelect(set, prog, workers)
	if err != nil {
		return err
	}
	q.scanned += int64(set.Rows())
	mColumnarScans.Inc()
	mColumnarRowsScanned.Add(int64(set.Rows()))
	if p := q.opts.Plan; p != nil && p.Select == q.st {
		p.Columnar.Add(1)
	}

	out, keys, err := q.columnarFold(tbl, set, sel, all, groupCIs, aggCIs, workers)
	if err != nil {
		return err
	}
	q.colDone = true
	q.colOut, q.colKeys = out, keys
	return nil
}

// columnarSelect evaluates the compiled predicate over the segment set and
// returns the global selection vector: passing row positions in row order,
// identical to the row sequence the row path's scan+filter yields. Workers
// process partitions concurrently; partition results concatenate in order.
// Without predicates every row passes: all is set and sel is nil.
func (q *query) columnarSelect(set *reldb.SegmentSet, prog *colProgram, workers int) (sel []int32, all bool, err error) {
	total := set.Rows()
	if prog.alwaysFalse || total == 0 {
		return nil, false, nil
	}
	if len(prog.preds) == 0 {
		return nil, true, nil
	}
	nparts := max(1, min(workers*partsPerWorker, total))
	type selPart struct {
		lo, hi int
		sel    []int32
	}
	parts := make([]*selPart, nparts)
	for p := range parts {
		parts[p] = &selPart{lo: p * total / nparts, hi: (p + 1) * total / nparts}
	}
	workers = min(workers, nparts)
	if workers > 1 {
		q.fanOut(workers)
	}
	stmt := q.opts.Stmt
	err = runParts(nparts, workers, stmt, func() func(int) error {
		sc := &colScratch{}
		return func(i int) error {
			p := parts[i]
			for lo := p.lo; lo < p.hi; lo += aggChunkRows {
				if err := stmt.Err(); err != nil {
					return err
				}
				p.sel = prog.evalBlock(lo, min(lo+aggChunkRows, p.hi), sc, p.sel)
			}
			return nil
		}
	})
	if err != nil {
		return nil, false, err
	}
	n := 0
	for _, p := range parts {
		n += len(p.sel)
	}
	sel = make([]int32, 0, n)
	for _, p := range parts {
		sel = append(sel, p.sel...)
	}
	return sel, false, nil
}

// columnarFold chunks the selection vector (every row of the set when all
// is set) and folds each chunk with gather kernels into the row path's
// chunkGroup/aggPartial state, then merges in chunk order and finalizes —
// the exact pipeline the row path's aggregate runs.
func (q *query) columnarFold(tbl *reldb.Table, set *reldb.SegmentSet, sel []int32, all bool, groupCIs, aggCIs []int, workers int) ([][]reldb.Value, [][]reldb.Value, error) {
	groups := make([]*reldb.ColumnSegment, len(groupCIs))
	for i, ci := range groupCIs {
		groups[i] = set.Col(ci)
	}
	aggs := make([]colAggSpec, len(aggCIs))
	for i, ci := range aggCIs {
		if ci < 0 {
			aggs[i] = colAggSpec{star: true}
			continue
		}
		seg := set.Col(ci)
		sp := colAggSpec{seg: seg}
		if seg.IsDict() {
			dict := seg.Dict()
			sp.dictF = make([]float64, len(dict))
			for c, sv := range dict {
				sp.dictF[c] = (reldb.Value{T: seg.Type(), S: sv}).AsFloat()
			}
		}
		aggs[i] = sp
	}

	n := len(sel)
	if all {
		n = set.Rows()
	}
	return q.foldGroups(n, workers, func(_ bool, alloc *groupAlloc) func(lo, hi int) (*aggChunk, error) {
		sc := &colScratch{alloc: alloc}
		return func(lo, hi int) (*aggChunk, error) {
			if !all {
				return q.foldColumnarChunk(tbl, set, sel[lo:hi], groups, aggs, sc), nil
			}
			ids := buf(&sc.ids, hi-lo)
			for i := range ids {
				ids[i] = int32(lo + i)
			}
			return q.foldColumnarChunk(tbl, set, ids, groups, aggs, sc), nil
		}
	})
}

// foldColumnarChunk folds one selection chunk into per-group partials. The
// group pass assigns each selected row a chunkGroup (with per-storage-class
// fast paths for a single GROUP BY column); the aggregate pass then updates
// partials column-at-a-time from gathered vectors. Group keys are the
// canonical keyOf over the materialized column values, and each group's
// first row is the real stored row, so merged state is indistinguishable
// from the row path's.
func (q *query) foldColumnarChunk(tbl *reldb.Table, set *reldb.SegmentSet, sel []int32, groups []*reldb.ColumnSegment, aggs []colAggSpec, sc *colScratch) *aggChunk {
	n := len(sel)
	ck := &aggChunk{}
	rowG := buf(&sc.rowGroups, n)
	kv := buf(&sc.kv, len(groups))
	newGroup := func(pos int32) *chunkGroup {
		sc.key = appendKey(sc.key[:0], kv)
		g := sc.alloc.group(string(sc.key), tbl.RowAt(set.Slot(int(pos))))
		ck.order = append(ck.order, g)
		return g
	}

	switch {
	case len(groups) == 0:
		g := newGroup(sel[0])
		for i := range rowG {
			rowG[i] = g
		}
	case len(groups) == 1 && groups[0].IsDict():
		seg := groups[0]
		dict := seg.Dict()
		codes := buf(&sc.i32, n)
		seg.GatherCodes(sel, codes)
		cg := buf(&sc.codeGroups, len(dict)+1)
		clear(cg)
		for i, c := range codes {
			g := cg[c+1]
			if g == nil {
				if c < 0 {
					kv[0] = reldb.Null
				} else {
					kv[0] = reldb.Value{T: seg.Type(), S: dict[c]}
				}
				g = newGroup(sel[i])
				cg[c+1] = g
			}
			rowG[i] = g
		}
	case len(groups) == 1 && intClass(groups[0].Type()):
		seg := groups[0]
		vals := buf(&sc.i64, n)
		seg.GatherInts(sel, vals)
		hasNulls := seg.HasNulls()
		m := reuse(&sc.intGroups)
		var nullG *chunkGroup
		for i, v := range vals {
			if hasNulls && !seg.Valid(int(sel[i])) {
				if nullG == nil {
					kv[0] = reldb.Null
					nullG = newGroup(sel[i])
				}
				rowG[i] = nullG
				continue
			}
			g := m[v]
			if g == nil {
				kv[0] = reldb.Value{T: seg.Type(), I: v}
				g = newGroup(sel[i])
				m[v] = g
			}
			rowG[i] = g
		}
	case len(groups) == 1 && groups[0].Type() == reldb.TFloat:
		seg := groups[0]
		vals := buf(&sc.f64, n)
		seg.GatherFloats(sel, vals)
		hasNulls := seg.HasNulls()
		// Keyed by bit pattern, exactly how keyOf distinguishes floats.
		m := reuse(&sc.floatGroups)
		var nullG *chunkGroup
		for i, v := range vals {
			if hasNulls && !seg.Valid(int(sel[i])) {
				if nullG == nil {
					kv[0] = reldb.Null
					nullG = newGroup(sel[i])
				}
				rowG[i] = nullG
				continue
			}
			bits := math.Float64bits(v)
			g := m[bits]
			if g == nil {
				kv[0] = reldb.Value{T: reldb.TFloat, F: v}
				g = newGroup(sel[i])
				m[bits] = g
			}
			rowG[i] = g
		}
	case len(groups) == 1:
		seg := groups[0]
		strs := buf(&sc.strs, n)
		seg.GatherStrs(sel, strs)
		hasNulls := seg.HasNulls()
		m := reuse(&sc.strGroups)
		var nullG *chunkGroup
		for i, v := range strs {
			if hasNulls && !seg.Valid(int(sel[i])) {
				if nullG == nil {
					kv[0] = reldb.Null
					nullG = newGroup(sel[i])
				}
				rowG[i] = nullG
				continue
			}
			g := m[v]
			if g == nil {
				kv[0] = reldb.Value{T: seg.Type(), S: v}
				g = newGroup(sel[i])
				m[v] = g
			}
			rowG[i] = g
		}
	default:
		m := reuse(&sc.keyGroups)
		for i, r := range sel {
			for c := range groups {
				kv[c] = groups[c].ValueAt(int(r))
			}
			sc.key = appendKey(sc.key[:0], kv)
			g := m[string(sc.key)]
			if g == nil {
				g = newGroup(r)
				m[g.key] = g
			}
			rowG[i] = g
		}
	}

	for ai := range aggs {
		ag := &aggs[ai]
		if ag.star {
			for i := range rowG {
				rowG[i].parts[ai].count++
			}
			continue
		}
		seg := ag.seg
		hasNulls := seg.HasNulls()
		switch {
		case seg.IsDict():
			codes := buf(&sc.i32, n)
			seg.GatherCodes(sel, codes)
			dict := seg.Dict()
			for i, c := range codes {
				if c < 0 {
					continue
				}
				p := &rowG[i].parts[ai]
				p.count++
				f := ag.dictF[c]
				p.sum += f
				p.sumSq += f * f
				p.allInt = false
				sv := dict[c]
				if p.min.IsNull() || sv < p.min.S {
					p.min = reldb.Value{T: seg.Type(), S: sv}
				}
				if p.mx.IsNull() || sv > p.mx.S {
					p.mx = reldb.Value{T: seg.Type(), S: sv}
				}
			}
		case intClass(seg.Type()):
			vals := buf(&sc.i64, n)
			seg.GatherInts(sel, vals)
			nonInt := seg.Type() != reldb.TInt
			for i, v := range vals {
				if hasNulls && !seg.Valid(int(sel[i])) {
					continue
				}
				p := &rowG[i].parts[ai]
				p.count++
				f := float64(v)
				p.sum += f
				p.sumSq += f * f
				if nonInt {
					p.allInt = false
				}
				if p.min.IsNull() || v < p.min.I {
					p.min = reldb.Value{T: seg.Type(), I: v}
				}
				if p.mx.IsNull() || v > p.mx.I {
					p.mx = reldb.Value{T: seg.Type(), I: v}
				}
			}
		case seg.Type() == reldb.TFloat:
			vals := buf(&sc.f64, n)
			seg.GatherFloats(sel, vals)
			for i, v := range vals {
				if hasNulls && !seg.Valid(int(sel[i])) {
					continue
				}
				p := &rowG[i].parts[ai]
				p.count++
				p.sum += v
				p.sumSq += v * v
				p.allInt = false
				// Plain < and > reproduce Compare's NaN rule: a NaN never
				// displaces a set min/max, and a first-seen NaN sticks.
				if p.min.IsNull() || v < p.min.F {
					p.min = reldb.Value{T: reldb.TFloat, F: v}
				}
				if p.mx.IsNull() || v > p.mx.F {
					p.mx = reldb.Value{T: reldb.TFloat, F: v}
				}
			}
		default: // raw strings
			strs := buf(&sc.strs, n)
			seg.GatherStrs(sel, strs)
			for i, sv := range strs {
				if hasNulls && !seg.Valid(int(sel[i])) {
					continue
				}
				p := &rowG[i].parts[ai]
				p.count++
				f := (reldb.Value{T: seg.Type(), S: sv}).AsFloat()
				p.sum += f
				p.sumSq += f * f
				p.allInt = false
				if p.min.IsNull() || sv < p.min.S {
					p.min = reldb.Value{T: seg.Type(), S: sv}
				}
				if p.mx.IsNull() || sv > p.mx.S {
					p.mx = reldb.Value{T: seg.Type(), S: sv}
				}
			}
		}
	}
	return ck
}

// intClass reports the types stored as int64 segments.
func intClass(t reldb.Type) bool {
	return t == reldb.TInt || t == reldb.TBool || t == reldb.TTime
}

// ndvHints reads ANALYZE's per-column NDV estimates for table out of
// PERFDMF_TABLE_STATS, keyed by lower-cased column name, for the segment
// builder's dictionary decision. Only statistics stamped with the table's
// current schema signature count; absent or stale stats mean no hints.
func ndvHints(tx *reldb.Tx, table string, schema *reldb.Schema) map[string]int {
	if schema == nil || !tx.HasTable(StatsTable) {
		return nil
	}
	sig := schemaSig(schema)
	var hints map[string]int
	//lint:allow ctxpoll -- stats-table scan is bounded by analyzed column count, not user rows
	tx.Scan(StatsTable, func(_ int, row reldb.Row) bool { //nolint:errcheck // existence checked above
		if len(row) <= statSchemaSig {
			return true
		}
		if !strings.EqualFold(row[statTableName].AsString(), table) {
			return true
		}
		if row[statSchemaSig].AsString() != sig {
			return true
		}
		col := strings.ToLower(row[statColumnName].AsString())
		if col == "" {
			return true // table-level row
		}
		if hints == nil {
			hints = make(map[string]int)
		}
		hints[col] = int(row[statNDV].AsInt())
		return true
	})
	return hints
}

// execCompact runs COMPACT [table]: build sealed columnar segments for the
// named table (or every user table) right now, skipping the lazy
// read-mostly heuristic. RowsAffected counts the rows encoded. Dictionary
// decisions use ANALYZE's NDV estimates when fresh ones exist.
func execCompact(tx *reldb.Tx, st *sqlparse.Compact, opts Options) (Result, error) {
	var tables []string
	if st.Table != "" {
		if !tx.HasTable(st.Table) {
			return Result{}, fmt.Errorf("sqlexec: no table %s", st.Table)
		}
		tables = []string{st.Table}
	} else {
		tables = tx.TableNames()
	}
	var res Result
	for _, t := range tables {
		if err := opts.Stmt.Err(); err != nil {
			return Result{}, err
		}
		var schema *reldb.Schema
		if tbl, err := tx.Table(t); err == nil {
			schema = tbl.Schema()
		}
		n, err := tx.BuildColumnSegments(t, ndvHints(tx, t, schema))
		if err != nil {
			return Result{}, err
		}
		res.RowsAffected += int64(n)
	}
	return res, nil
}
