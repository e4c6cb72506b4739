package reldb

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// IndexKind selects the physical structure of a secondary index.
type IndexKind uint8

const (
	// HashIndex supports equality lookups in O(1). It may span multiple
	// columns (a composite index).
	HashIndex IndexKind = iota
	// OrderedIndex is a B+tree supporting equality and range scans over a
	// single column.
	OrderedIndex
)

func (k IndexKind) String() string {
	if k == HashIndex {
		return "HASH"
	}
	return "BTREE"
}

// Index is a secondary index over one column (hash or B-tree) or several
// columns (composite hash). Rows with a NULL in any indexed column are not
// indexed (matching common SQL engines), so index-assisted plans must not
// be used for IS NULL predicates.
type Index struct {
	Name    string
	Table   string
	Columns []string // one or more column names
	Kind    IndexKind
	Unique  bool

	cols  []int            // column positions in the row
	hash  map[Value][]int  // single-column hash
	multi map[string][]int // composite hash, keyed by encoded tuple
	tree  *btree           // single-column ordered
}

// Column returns the indexed column name for single-column indexes, or the
// comma-joined list for composite ones (metadata display).
func (ix *Index) Column() string { return strings.Join(ix.Columns, ", ") }

func newIndex(name, table string, columns []string, cols []int, kind IndexKind, unique bool) (*Index, error) {
	if len(columns) == 0 {
		return nil, fmt.Errorf("reldb: index %s has no columns", name)
	}
	if len(columns) > 1 && kind != HashIndex {
		return nil, fmt.Errorf("reldb: composite index %s must be HASH", name)
	}
	ix := &Index{Name: name, Table: table, Columns: columns, Kind: kind, Unique: unique, cols: cols}
	switch {
	case len(columns) > 1:
		ix.multi = make(map[string][]int)
	case kind == HashIndex:
		ix.hash = make(map[Value][]int)
	default:
		ix.tree = newBtree()
	}
	return ix, nil
}

// encodeKey builds a collision-free string key for a value tuple.
func encodeKey(vals []Value) string {
	var b strings.Builder
	for _, v := range vals {
		b.WriteByte(byte(v.T) + '0')
		switch v.T {
		case TInt, TBool, TTime:
			b.WriteString(strconv.FormatInt(v.I, 36))
		case TFloat:
			b.WriteString(strconv.FormatUint(math.Float64bits(v.F), 36))
		case TString, TBytes:
			b.WriteString(strconv.Itoa(len(v.S)))
			b.WriteByte(':')
			b.WriteString(v.S)
		}
		b.WriteByte('|')
	}
	return b.String()
}

// key extracts a composite index's key values from a row; ok is false
// when any indexed column is NULL (the row is then not indexed).
func (ix *Index) key(row Row) ([]Value, bool) {
	vals := make([]Value, len(ix.cols))
	for i, c := range ix.cols {
		v := row[c]
		if v.IsNull() {
			return nil, false
		}
		vals[i] = v
	}
	return vals, true
}

// insert indexes row at slot. It reports a uniqueness violation as an error
// before modifying the index. A single-column key is the row's cell itself,
// so only composite keys allocate.
func (ix *Index) insert(row Row, slot int) error {
	if ix.multi != nil {
		vals, ok := ix.key(row)
		if !ok {
			return nil
		}
		k := encodeKey(vals)
		if ix.Unique && len(ix.multi[k]) > 0 {
			return ix.duplicate()
		}
		ix.multi[k] = append(ix.multi[k], slot)
		return nil
	}
	v := row[ix.cols[0]]
	if v.IsNull() {
		return nil
	}
	if ix.hash != nil {
		slots := ix.hash[v]
		if ix.Unique && len(slots) > 0 {
			return ix.duplicate()
		}
		ix.hash[v] = append(slots, slot)
		return nil
	}
	if ix.Unique && len(ix.tree.get(v)) > 0 {
		return ix.duplicate()
	}
	ix.tree.insert(v, slot)
	return nil
}

func (ix *Index) duplicate() error {
	return fmt.Errorf("reldb: unique index %s: duplicate value", ix.Name)
}

// remove un-indexes row at slot.
func (ix *Index) remove(row Row, slot int) {
	if ix.multi != nil {
		if vals, ok := ix.key(row); ok {
			removeKeySlot(ix.multi, encodeKey(vals), slot)
		}
		return
	}
	v := row[ix.cols[0]]
	switch {
	case v.IsNull():
	case ix.hash != nil:
		removeKeySlot(ix.hash, v, slot)
	default:
		ix.tree.remove(v, slot)
	}
}

// removeKeySlot removes slot from key k's slot list, and k once it has none.
func removeKeySlot[K comparable](m map[K][]int, k K, slot int) {
	if slots := removeSlot(m[k], slot); len(slots) > 0 {
		m[k] = slots
	} else {
		delete(m, k)
	}
}

func removeSlot(slots []int, slot int) []int {
	for j, s := range slots {
		if s == slot {
			slots[j] = slots[len(slots)-1]
			return slots[:len(slots)-1]
		}
	}
	return slots
}

// lookup returns the slots whose single indexed column equals v. Only
// valid for single-column indexes.
func (ix *Index) lookup(v Value) []int {
	if v.IsNull() || ix.multi != nil {
		return nil
	}
	if ix.hash != nil {
		return ix.hash[v]
	}
	return ix.tree.get(v)
}

// probeKind classifies how an index answers one equality probe.
type probeKind uint8

const (
	probeExact   probeKind = iota // the converted key finds exactly the equal rows
	probeEmpty                    // no stored value can compare equal
	probeInexact                  // several stored keys may compare equal: scan
)

// probeKey converts an equality probe value to the representation stored in
// a column of type t, so that a hash lookup finds exactly the rows Compare
// calls equal to v. Stored values always carry the column's type
// (Table.normalize coerces them), while Compare equates values across the
// numeric types and across strings and byte strings. A float of magnitude
// 2^53 or more compares equal to several integers, so it is inexact against
// an integer column.
func probeKey(v Value, t Type) (Value, probeKind) {
	switch {
	case v.T == t:
		return v, probeExact
	case v.numeric() && t == TFloat:
		return Float(v.AsFloat()), probeExact
	case v.numeric() && (t == TInt || t == TBool || t == TTime):
		if v.T != TFloat {
			return Value{T: t, I: v.I}, probeExact
		}
		if math.Abs(v.F) >= 1<<53 {
			return Null, probeInexact
		}
		if v.F != math.Trunc(v.F) {
			return Null, probeEmpty
		}
		return Value{T: t, I: int64(v.F)}, probeExact
	case (v.T == TString || v.T == TBytes) && (t == TString || t == TBytes):
		return Value{T: t, S: v.S}, probeExact
	}
	return Null, probeEmpty
}

// lookupVals returns the slots matching a full key tuple.
func (ix *Index) lookupVals(vals []Value) []int {
	if ix.multi != nil {
		return ix.multi[encodeKey(vals)]
	}
	return ix.lookup(vals[0])
}

// Ranged reports whether the index supports ordered range scans.
func (ix *Index) Ranged() bool { return ix.tree != nil }

// scanRange visits slots whose key lies within the bounds, in key order.
// Only valid for ordered indexes.
func (ix *Index) scanRange(lo, hi bound, fn func(slot int) bool) {
	ix.tree.scanRange(lo, hi, func(_ Value, slots []int) bool {
		for _, s := range slots {
			if !fn(s) {
				return false
			}
		}
		return true
	})
}

// rebuild clears and re-populates the index from the table rows, live of
// them non-nil. Only a unique hash is presized, to one key per live row: a
// non-unique index may hold far fewer keys than rows.
func (ix *Index) rebuild(rows []Row, live int) error {
	size := 0
	if ix.Unique {
		size = live
	}
	switch {
	case ix.multi != nil:
		ix.multi = make(map[string][]int, size)
	case ix.hash != nil:
		ix.hash = make(map[Value][]int, size)
	default:
		ix.tree = newBtree()
	}
	for slot, row := range rows {
		if row == nil {
			continue
		}
		if err := ix.insert(row, slot); err != nil {
			return err
		}
	}
	return nil
}
