package reldb

// Columnar segment store. A SegmentSet is a sealed, immutable snapshot of a
// table's live rows decomposed into per-column typed arrays: int64 (raw,
// frame-of-reference packed, or run-length encoded), float64, and strings
// (dictionary-encoded when the column is low-NDV, raw otherwise), each with
// a validity bitmap for NULLs. Sets are built lazily when a table goes
// read-mostly (segmentBuildAfter eligible reads with no intervening DML) or
// explicitly via the SQL COMPACT statement, and are invalidated by any DML
// or schema change through Table.noteDataChange/bumpVersion. The vectorized
// aggregation path in internal/sqlexec reads them through Table.Segments
// and Table.SegmentsLazy.
//
// Sealed means: once published via Table.colSeg the set is never mutated,
// so concurrent readers may share it freely; freshness is a version compare
// (schemaV and dataV) under the transaction lock.

import (
	"math"
	"strings"
)

const (
	// segmentBuildAfter is how many eligible columnar reads a table must
	// see, with no intervening data change, before the lazy build fires.
	// It is a cheap read-mostly heuristic: a table in upload churn never
	// reaches the threshold because every DML resets the counter.
	segmentBuildAfter = 3

	// dictMaxCodes bounds dictionary size. Columns whose observed (or
	// ANALYZE-estimated) NDV exceeds this fall back to raw string storage:
	// a huge dictionary buys nothing over the raw array.
	dictMaxCodes = 1 << 12

	// rleMinRows / rleMaxRunDivisor gate run-length encoding: RLE wins
	// only when runs are long (observed runs <= n/rleMaxRunDivisor).
	rleMinRows       = 64
	rleMaxRunDivisor = 4
)

// segEncoding identifies the physical layout of one column segment.
type segEncoding uint8

const (
	segInt64   segEncoding = iota // raw []int64
	segIntPack                    // frame-of-reference: base + []int32 deltas
	segIntRLE                     // run-length: values + cumulative run ends
	segFloat64                    // raw []float64
	segDict                       // dictionary strings + []int32 codes
	segString                     // raw []string
)

func (e segEncoding) String() string {
	switch e {
	case segInt64:
		return "int64"
	case segIntPack:
		return "int32-for"
	case segIntRLE:
		return "rle"
	case segFloat64:
		return "float64"
	case segDict:
		return "dict"
	case segString:
		return "string"
	}
	return "?"
}

// ColumnSegment is one column's sealed typed array. NULL cells store the
// zero value in the typed array; the validity bitmap is authoritative.
type ColumnSegment struct {
	typ   Type
	enc   segEncoding
	n     int
	valid []uint64 // validity bitmap, 1 = non-NULL; nil = all valid

	ints    []int64   // segInt64
	base    int64     // segIntPack frame of reference
	packed  []int32   // segIntPack deltas from base
	runVals []int64   // segIntRLE run values
	runEnds []int32   // segIntRLE cumulative exclusive run ends
	floats  []float64 // segFloat64
	dict    []string  // segDict dictionary, first-appearance order
	codes   []int32   // segDict per-row codes; -1 = NULL
	strs    []string  // segString
}

// Len returns the number of rows in the segment.
func (s *ColumnSegment) Len() int { return s.n }

// Type returns the column type every non-NULL cell carries.
func (s *ColumnSegment) Type() Type { return s.typ }

// Encoding names the physical layout, for EXPLAIN output and tests.
func (s *ColumnSegment) Encoding() string { return s.enc.String() }

// HasNulls reports whether any cell is NULL.
func (s *ColumnSegment) HasNulls() bool { return s.valid != nil }

// Valid reports whether row i holds a non-NULL value.
func (s *ColumnSegment) Valid(i int) bool {
	return s.valid == nil || s.valid[i>>6]&(1<<(uint(i)&63)) != 0
}

// IsDict reports whether the segment is dictionary-encoded.
func (s *ColumnSegment) IsDict() bool { return s.enc == segDict }

// Dict returns the dictionary (first-appearance order) of a dict segment,
// or nil. Callers must not mutate it.
func (s *ColumnSegment) Dict() []string {
	if s.enc != segDict {
		return nil
	}
	return s.dict
}

// IntAt returns the integer at row i (0 when NULL). For RLE segments this
// binary-searches the run table; sequential access should prefer
// DecodeInts or GatherInts.
func (s *ColumnSegment) IntAt(i int) int64 {
	switch s.enc {
	case segInt64:
		return s.ints[i]
	case segIntPack:
		return s.base + int64(s.packed[i])
	case segIntRLE:
		lo, hi := 0, len(s.runEnds)
		for lo < hi {
			mid := (lo + hi) / 2
			if int(s.runEnds[mid]) <= i {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return s.runVals[lo]
	}
	return 0
}

// FloatAt returns the float at row i (0 when NULL).
func (s *ColumnSegment) FloatAt(i int) float64 { return s.floats[i] }

// StrAt returns the string at row i ("" when NULL).
func (s *ColumnSegment) StrAt(i int) string {
	if s.enc == segDict {
		if c := s.codes[i]; c >= 0 {
			return s.dict[c]
		}
		return ""
	}
	return s.strs[i]
}

// CodeAt returns the dictionary code at row i, -1 for NULL.
func (s *ColumnSegment) CodeAt(i int) int32 { return s.codes[i] }

// ValueAt materializes row i as the exact Value the row store holds:
// same type tag, same payload, Null for NULL cells.
func (s *ColumnSegment) ValueAt(i int) Value {
	if !s.Valid(i) {
		return Null
	}
	switch s.enc {
	case segInt64, segIntPack, segIntRLE:
		return Value{T: s.typ, I: s.IntAt(i)}
	case segFloat64:
		return Value{T: s.typ, F: s.floats[i]}
	default:
		return Value{T: s.typ, S: s.StrAt(i)}
	}
}

// DecodeInts fills dst (len hi-lo) with rows [lo,hi) of an integer segment.
func (s *ColumnSegment) DecodeInts(lo, hi int, dst []int64) {
	switch s.enc {
	case segInt64:
		copy(dst, s.ints[lo:hi])
	case segIntPack:
		src := s.packed[lo:hi]
		for i, d := range src {
			dst[i] = s.base + int64(d)
		}
	case segIntRLE:
		run := s.findRun(lo)
		for i := lo; i < hi; {
			end := int(s.runEnds[run])
			if end > hi {
				end = hi
			}
			v := s.runVals[run]
			for ; i < end; i++ {
				dst[i-lo] = v
			}
			run++
		}
	}
}

// DecodeFloats fills dst with rows [lo,hi) of a float segment.
func (s *ColumnSegment) DecodeFloats(lo, hi int, dst []float64) {
	copy(dst, s.floats[lo:hi])
}

// Codes returns the code array window [lo,hi) of a dict segment. The
// returned slice aliases sealed storage; callers must not mutate it.
func (s *ColumnSegment) Codes(lo, hi int) []int32 { return s.codes[lo:hi] }

// Strs returns the raw string window [lo,hi). Aliases sealed storage.
func (s *ColumnSegment) Strs(lo, hi int) []string { return s.strs[lo:hi] }

// findRun returns the index of the run containing row i.
func (s *ColumnSegment) findRun(i int) int {
	lo, hi := 0, len(s.runEnds)
	for lo < hi {
		mid := (lo + hi) / 2
		if int(s.runEnds[mid]) <= i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// GatherInts fills dst[i] with the integer at row sel[i]. sel must be
// ascending (a selection vector in row order), which lets RLE gathering
// run a forward cursor instead of a per-row binary search.
func (s *ColumnSegment) GatherInts(sel []int32, dst []int64) {
	switch s.enc {
	case segInt64:
		for i, r := range sel {
			dst[i] = s.ints[r]
		}
	case segIntPack:
		for i, r := range sel {
			dst[i] = s.base + int64(s.packed[r])
		}
	case segIntRLE:
		if len(sel) == 0 {
			return
		}
		run := s.findRun(int(sel[0]))
		for i, r := range sel {
			for int(s.runEnds[run]) <= int(r) {
				run++
			}
			dst[i] = s.runVals[run]
		}
	}
}

// GatherFloats fills dst[i] with the float at row sel[i].
func (s *ColumnSegment) GatherFloats(sel []int32, dst []float64) {
	for i, r := range sel {
		dst[i] = s.floats[r]
	}
}

// GatherCodes fills dst[i] with the dict code at row sel[i].
func (s *ColumnSegment) GatherCodes(sel []int32, dst []int32) {
	for i, r := range sel {
		dst[i] = s.codes[r]
	}
}

// GatherStrs fills dst[i] with the string at row sel[i].
func (s *ColumnSegment) GatherStrs(sel []int32, dst []string) {
	if s.enc == segDict {
		for i, r := range sel {
			if c := s.codes[r]; c >= 0 {
				dst[i] = s.dict[c]
			} else {
				dst[i] = ""
			}
		}
		return
	}
	for i, r := range sel {
		dst[i] = s.strs[r]
	}
}

// SegmentSet is a sealed columnar snapshot of a table's live rows, in slot
// order (the order ScanPartitioned and the serial scan visit them, which
// the bitwise-identity contract with the row path depends on).
type SegmentSet struct {
	schemaV int64
	dataV   int64
	rows    int
	slots   []int32          // row position -> storage slot (late materialization)
	cols    []*ColumnSegment // by schema column index; nil = not vectorized
}

// Rows returns the number of live rows the set snapshots.
func (ss *SegmentSet) Rows() int { return ss.rows }

// Slot returns the storage slot backing row position i, for materializing
// full rows (group "first" rows) out of a columnar scan.
func (ss *SegmentSet) Slot(i int) int { return int(ss.slots[i]) }

// Col returns the segment for schema column ci, or nil when that column
// was not vectorized.
func (ss *SegmentSet) Col(ci int) *ColumnSegment {
	if ci < 0 || ci >= len(ss.cols) {
		return nil
	}
	return ss.cols[ci]
}

// Covers reports whether every listed column index has a segment.
func (ss *SegmentSet) Covers(cols ...int) bool {
	for _, ci := range cols {
		if ss.Col(ci) == nil {
			return false
		}
	}
	return true
}

// Segments returns the table's current segment set when it is fresh (same
// schema version, no DML since the build), or nil. Callers must hold at
// least a read transaction on the owning database.
func (t *Table) Segments() *SegmentSet {
	set := t.colSeg.Load()
	if set != nil && set.schemaV == t.version && set.dataV == t.dataVersion {
		return set
	}
	return nil
}

// SegmentsLazy returns a fresh segment set, counting this call toward the
// read-mostly heuristic and building the set once segmentBuildAfter
// eligible reads have accumulated since the last data change. Returns nil
// until then. hints maps lower-cased column names to estimated NDV (from
// ANALYZE stats); nil means no hints.
func (t *Table) SegmentsLazy(hints map[string]int) *SegmentSet {
	if set := t.Segments(); set != nil {
		return set
	}
	if int(t.segHits.Add(1)) < segmentBuildAfter {
		return nil
	}
	return t.BuildSegments(hints)
}

// BuildSegments builds (or returns the already-fresh) segment set now.
// Safe under a read transaction: concurrent builders serialize on segMu and
// the winner publishes via an atomic pointer; DML cannot run concurrently
// because it holds the database write lock.
func (t *Table) BuildSegments(hints map[string]int) *SegmentSet {
	t.segMu.Lock()
	defer t.segMu.Unlock()
	if set := t.Segments(); set != nil {
		return set
	}
	set := t.buildSegmentSet(hints)
	if set == nil {
		return nil
	}
	t.colSeg.Store(set)
	mSegBuilds.Inc()
	mSegBuildRows.Add(int64(set.rows))
	return set
}

// noteDataChange invalidates the segment snapshot and resets the
// read-mostly counter. Called from every row mutation point (insert,
// deleteSlot, updateSlot, restoreSlot) under the database write lock.
func (t *Table) noteDataChange() {
	t.dataVersion++
	if t.colSeg.Load() != nil {
		t.colSeg.Store(nil)
		mSegInvalidations.Inc()
	}
	t.segHits.Store(0)
}

// buildSegmentSet encodes the live rows. Returns nil when the table cannot
// be snapshotted (slot space exceeds int32).
func (t *Table) buildSegmentSet(hints map[string]int) *SegmentSet {
	if len(t.rows) > math.MaxInt32 {
		return nil
	}
	set := &SegmentSet{schemaV: t.version, dataV: t.dataVersion}
	set.slots = make([]int32, 0, t.live)
	for slot, row := range t.rows {
		if row != nil {
			set.slots = append(set.slots, int32(slot))
		}
	}
	set.rows = len(set.slots)
	set.cols = make([]*ColumnSegment, len(t.schema.Columns))
	for ci := range t.schema.Columns {
		col := &t.schema.Columns[ci]
		hint := 0
		if hints != nil {
			hint = hints[strings.ToLower(col.Name)]
		}
		set.cols[ci] = t.buildColumnSegment(set.slots, ci, col.Type, hint)
	}
	return set
}

// buildColumnSegment encodes one column, or returns nil when a stored cell
// does not carry the declared column type (normalize guarantees it does,
// so this is purely defensive: an unvectorized column, not an error).
func (t *Table) buildColumnSegment(slots []int32, ci int, typ Type, ndvHint int) *ColumnSegment {
	n := len(slots)
	s := &ColumnSegment{typ: typ, n: n}
	setNull := func(i int) {
		if s.valid == nil {
			s.valid = make([]uint64, (n+63)/64)
			for w := range s.valid {
				s.valid[w] = ^uint64(0)
			}
			if tail := uint(n) & 63; tail != 0 {
				s.valid[len(s.valid)-1] = (1 << tail) - 1
			}
		}
		s.valid[i>>6] &^= 1 << (uint(i) & 63)
	}
	switch typ {
	case TInt, TBool, TTime:
		vals := make([]int64, n)
		for i, slot := range slots {
			v := t.rows[slot][ci]
			if v.T == TNull {
				setNull(i)
				continue
			}
			if v.T != typ {
				return nil
			}
			vals[i] = v.I
		}
		encodeInts(s, vals)
	case TFloat:
		s.enc = segFloat64
		s.floats = make([]float64, n)
		for i, slot := range slots {
			v := t.rows[slot][ci]
			if v.T == TNull {
				setNull(i)
				continue
			}
			if v.T != typ {
				return nil
			}
			s.floats[i] = v.F
		}
	case TString, TBytes:
		if !t.buildStringSegment(s, slots, ci, typ, ndvHint, setNull) {
			return nil
		}
	default:
		return nil
	}
	return s
}

// encodeInts picks the integer layout: RLE for long runs, frame-of-
// reference int32 packing when the value range is narrow, raw otherwise.
func encodeInts(s *ColumnSegment, vals []int64) {
	n := len(vals)
	if n == 0 {
		s.enc = segInt64
		s.ints = vals
		return
	}
	runs := 1
	min, max := vals[0], vals[0]
	for i := 1; i < n; i++ {
		v := vals[i]
		if v != vals[i-1] {
			runs++
		}
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if n >= rleMinRows && runs <= n/rleMaxRunDivisor {
		s.enc = segIntRLE
		s.runVals = make([]int64, 0, runs)
		s.runEnds = make([]int32, 0, runs)
		for i := 0; i < n; {
			j := i + 1
			for j < n && vals[j] == vals[i] {
				j++
			}
			s.runVals = append(s.runVals, vals[i])
			s.runEnds = append(s.runEnds, int32(j))
			i = j
		}
		return
	}
	if r := uint64(max) - uint64(min); r < 1<<31 {
		s.enc = segIntPack
		s.base = min
		s.packed = make([]int32, n)
		for i, v := range vals {
			s.packed[i] = int32(v - min)
		}
		return
	}
	s.enc = segInt64
	s.ints = vals
}

// buildStringSegment attempts dictionary encoding, abandoning it for raw
// storage when the dictionary outgrows dictMaxCodes (or when the ANALYZE
// NDV hint says it would).
func (t *Table) buildStringSegment(s *ColumnSegment, slots []int32, ci int, typ Type, ndvHint int, setNull func(int)) bool {
	n := len(slots)
	tryDict := ndvHint <= dictMaxCodes
	var codes []int32
	var dict []string
	var lookup map[string]int32
	if tryDict {
		codes = make([]int32, n)
		lookup = make(map[string]int32)
	}
	for i, slot := range slots {
		v := t.rows[slot][ci]
		if v.T == TNull {
			setNull(i)
			if tryDict {
				codes[i] = -1
			}
			continue
		}
		if v.T != typ {
			return false
		}
		if tryDict {
			c, ok := lookup[v.S]
			if !ok {
				if len(dict) >= dictMaxCodes {
					tryDict = false
					continue
				}
				c = int32(len(dict))
				dict = append(dict, v.S)
				lookup[v.S] = c
			}
			codes[i] = c
		}
	}
	if tryDict {
		s.enc = segDict
		s.dict = dict
		s.codes = codes
		return true
	}
	s.enc = segString
	s.strs = make([]string, n)
	for i, slot := range slots {
		v := t.rows[slot][ci]
		if v.T == TNull {
			continue
		}
		s.strs[i] = v.S
	}
	return true
}
