package reldb

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// Row is a single table row; cells are ordered as in the table schema.
// A row is immutable once published into a table: updates store a new
// row, and DDL that changes a table's width (ADD COLUMN, DROP COLUMN and
// the rollback of either) builds new rows. A row fetched under a
// transaction therefore stays valid, and unchanged, after it ends.
type Row []Value

// clone returns a copy of the row.
func (r Row) clone() Row {
	c := make(Row, len(r))
	copy(c, r)
	return c
}

// Table is the physical storage for one relation: a slot-addressed row
// array with a free list, the primary-key index and any secondary indexes.
// Deleted slots hold a nil row and are recycled in LIFO order, which keeps
// slot assignment deterministic — the WAL replay path depends on that.
type Table struct {
	schema  *Schema
	rows    []Row
	free    []int
	live    int
	autoInc int64
	version int64             // schema version, see Version
	arena   []Value           // block-allocated cell storage for normalize
	pk      *Index            // unique index over the primary key, or nil
	indexes map[string]*Index // secondary indexes by lower-cased index name

	// Columnar segment state (see segment.go). dataVersion counts row
	// mutations; it is a plain int64 because every mutation runs under the
	// database write lock. colSeg and segHits are atomics because readers
	// race only each other: concurrent read transactions share the sealed
	// set and bump the read-mostly counter without coordination.
	dataVersion int64
	colSeg      atomic.Pointer[SegmentSet]
	segHits     atomic.Int32
	segMu       sync.Mutex // serializes segment builds
}

// schemaVersions issues process-wide unique schema versions. Every DDL that
// changes a table's columns or indexes assigns the table a fresh version, so
// a cached access plan detects staleness with a single compare — and a table
// dropped and recreated under the same name can never alias an old version.
var schemaVersions atomic.Int64

func nextSchemaVersion() int64 { return schemaVersions.Add(1) }

// CurrentSchemaVersion returns the most recently issued schema version: the
// process-wide DDL high-water mark. The introspection catalog
// (OBS_PLAN_CACHE) reports it so observers can correlate plan-cache
// invalidations with DDL activity.
func CurrentSchemaVersion() int64 { return schemaVersions.Load() }

func newTable(schema *Schema) *Table {
	t := &Table{schema: schema, indexes: make(map[string]*Index), version: nextSchemaVersion()}
	if schema.PrimaryKey != "" {
		col := schema.ColumnIndex(schema.PrimaryKey)
		t.pk, _ = newIndex("pk_"+schema.Name, schema.Name,
			[]string{schema.PrimaryKey}, []int{col}, HashIndex, true)
	}
	return t
}

// Schema returns the table's schema. Callers must not mutate it.
func (t *Table) Schema() *Schema { return t.schema }

// Version returns the table's schema version: a process-wide unique value
// reassigned by every column or index DDL (including rollbacks of such
// DDL). Plan caches compare it to decide whether a cached access-path
// decision is still valid.
func (t *Table) Version() int64 { return t.version }

// bumpVersion assigns the table a fresh schema version. Schema changes
// also seal off any columnar snapshot built against the old layout.
func (t *Table) bumpVersion() {
	t.version = nextSchemaVersion()
	t.noteDataChange()
}

// Len returns the number of live rows.
func (t *Table) Len() int { return t.live }

// rowArenaBlock is how many rows' worth of cells newRowBuf reserves per
// allocation. Bulk loads (the Miranda upload is >1.6M inserts) otherwise pay
// one small make per row; carving rows out of a shared block cuts that to
// one allocation per block.
const rowArenaBlock = 256

// newRowBuf returns a zeroed row of schema width carved from the table's
// cell arena. The returned slice has capacity == length, so appending to it
// (e.g. addColumn widening rows) copies instead of clobbering a neighbour.
func (t *Table) newRowBuf() Row {
	n := len(t.schema.Columns)
	if n == 0 {
		return Row{}
	}
	if len(t.arena) < n {
		t.arena = make([]Value, n*rowArenaBlock)
	}
	r := Row(t.arena[:n:n])
	t.arena = t.arena[n:]
	return r
}

// ScanPartitioned splits the slot array into at most n contiguous slot
// ranges of near-equal size and calls fn once per partition, in partition
// order, with the partition index, the first slot of the range, and the raw
// row slice (rows[i] is slot base+i; nil entries are free slots). The
// slices alias the table's slot array, which writers change, so they may
// be read (by any number of goroutines) only while the transaction that
// obtained the table is open; the rows read from them are immutable (see
// Row) and may be kept after it ends.
func (t *Table) ScanPartitioned(n int, fn func(part, base int, rows []Row)) {
	total := len(t.rows)
	if total == 0 {
		return
	}
	if n < 1 {
		n = 1
	}
	if n > total {
		n = total
	}
	for p := 0; p < n; p++ {
		lo := p * total / n
		hi := (p + 1) * total / n
		fn(p, lo, t.rows[lo:hi])
	}
}

// normalize coerces a full-width row to the schema's column types, applies
// defaults and the auto-increment counter, and checks NOT NULL constraints.
func (t *Table) normalize(row Row) (Row, error) {
	if len(row) != len(t.schema.Columns) {
		return nil, fmt.Errorf("reldb: table %s: got %d values, want %d",
			t.schema.Name, len(row), len(t.schema.Columns))
	}
	out := t.newRowBuf()
	for i := range row {
		col := &t.schema.Columns[i]
		v := row[i]
		if v.IsNull() {
			switch {
			case col.AutoIncrement:
				t.autoInc++
				v = Int(t.autoInc)
			case !col.Default.IsNull():
				v = col.Default
			case col.NotNull:
				return nil, fmt.Errorf("reldb: table %s: column %s is NOT NULL",
					t.schema.Name, col.Name)
			}
		}
		if !v.IsNull() {
			cv, err := Coerce(v, col.Type)
			if err != nil {
				return nil, fmt.Errorf("reldb: table %s: column %s: %v", t.schema.Name, col.Name, err)
			}
			v = cv
			if col.AutoIncrement && v.I > t.autoInc {
				t.autoInc = v.I
			}
		}
		out[i] = v
	}
	return out, nil
}

// insert stores a normalized row, indexing it, and returns its slot.
func (t *Table) insert(row Row) (int, error) {
	if t.pk != nil {
		if row[t.pk.cols[0]].IsNull() {
			return 0, fmt.Errorf("reldb: table %s: primary key %s is NULL",
				t.schema.Name, t.schema.PrimaryKey)
		}
		if len(t.pk.lookup(row[t.pk.cols[0]])) > 0 {
			return 0, fmt.Errorf("reldb: table %s: duplicate primary key %v",
				t.schema.Name, row[t.pk.cols[0]].Go())
		}
	}
	var slot int
	if n := len(t.free); n > 0 {
		slot = t.free[n-1]
		t.free = t.free[:n-1]
		t.rows[slot] = row
	} else {
		slot = len(t.rows)
		t.rows = append(t.rows, row)
	}
	if t.pk != nil {
		if err := t.pk.insert(row, slot); err != nil {
			t.rows[slot] = nil
			t.free = append(t.free, slot)
			return 0, err
		}
	}
	for _, ix := range t.indexes {
		if err := ix.insert(row, slot); err != nil {
			// Roll back partial indexing. Removing the row from an index
			// that never held it is a harmless no-op, so removing from all
			// indexes except the one that failed is safe.
			if t.pk != nil {
				t.pk.remove(row, slot)
			}
			t.unindexPartial(row, slot, ix)
			t.rows[slot] = nil
			t.free = append(t.free, slot)
			return 0, err
		}
	}
	t.live++
	t.noteDataChange()
	return slot, nil
}

// unindexPartial removes row from every secondary index except stop,
// used to undo a partially indexed insert.
func (t *Table) unindexPartial(row Row, slot int, stop *Index) {
	for _, ix := range t.indexes {
		if ix == stop {
			continue
		}
		ix.remove(row, slot)
	}
}

// deleteSlot removes the row at slot, returning the old row.
func (t *Table) deleteSlot(slot int) (Row, error) {
	if slot < 0 || slot >= len(t.rows) || t.rows[slot] == nil {
		return nil, fmt.Errorf("reldb: table %s: no row at slot %d", t.schema.Name, slot)
	}
	row := t.rows[slot]
	if t.pk != nil {
		t.pk.remove(row, slot)
	}
	for _, ix := range t.indexes {
		ix.remove(row, slot)
	}
	t.rows[slot] = nil
	t.free = append(t.free, slot)
	t.live--
	t.noteDataChange()
	return row, nil
}

// restoreSlot re-inserts a previously deleted row at its original slot;
// used by transaction rollback. The slot must be the most recently freed.
func (t *Table) restoreSlot(slot int, row Row) {
	if n := len(t.free); n > 0 && t.free[n-1] == slot {
		t.free = t.free[:n-1]
	} else {
		// Slot was freed earlier in the undo sequence; remove it wherever
		// it is. Rollback replays undo records in reverse, so this is rare.
		for i, s := range t.free {
			if s == slot {
				t.free = append(t.free[:i], t.free[i+1:]...)
				break
			}
		}
	}
	t.rows[slot] = row
	if t.pk != nil {
		t.pk.insert(row, slot) //nolint:errcheck // restoring a previously valid row
	}
	for _, ix := range t.indexes {
		ix.insert(row, slot) //nolint:errcheck
	}
	t.live++
	t.noteDataChange()
}

// updateSlot replaces the row at slot with a normalized new row, returning
// the old row.
func (t *Table) updateSlot(slot int, row Row) (Row, error) {
	if slot < 0 || slot >= len(t.rows) || t.rows[slot] == nil {
		return nil, fmt.Errorf("reldb: table %s: no row at slot %d", t.schema.Name, slot)
	}
	old := t.rows[slot]
	if t.pk != nil && !Equal(old[t.pk.cols[0]], row[t.pk.cols[0]]) {
		if len(t.pk.lookup(row[t.pk.cols[0]])) > 0 {
			return nil, fmt.Errorf("reldb: table %s: duplicate primary key %v",
				t.schema.Name, row[t.pk.cols[0]].Go())
		}
	}
	if t.pk != nil {
		t.pk.remove(old, slot)
		if err := t.pk.insert(row, slot); err != nil {
			t.pk.insert(old, slot) //nolint:errcheck
			return nil, err
		}
	}
	for _, ix := range t.indexes {
		ix.remove(old, slot)
		if err := ix.insert(row, slot); err != nil {
			ix.insert(old, slot) //nolint:errcheck
			return nil, err
		}
	}
	t.rows[slot] = row
	t.noteDataChange()
	return old, nil
}

// row returns the row at slot, or nil when the slot is empty or invalid.
func (t *Table) row(slot int) Row {
	if slot < 0 || slot >= len(t.rows) {
		return nil
	}
	return t.rows[slot]
}

// RowAt returns the live row at slot, or nil. The row is immutable (see
// Row), so callers may keep it after the transaction that obtained the
// table ends; it is the slot, not the row, that a later write changes.
func (t *Table) RowAt(slot int) Row { return t.row(slot) }

// scan visits every live row in slot order.
func (t *Table) scan(fn func(slot int, row Row) bool) {
	for slot, row := range t.rows {
		if row == nil {
			continue
		}
		if !fn(slot, row) {
			return
		}
	}
}

// lookupPK returns the slot holding primary key v, or -1.
func (t *Table) lookupPK(v Value) int {
	if t.pk == nil {
		return -1
	}
	if slots := t.pk.lookup(v); len(slots) > 0 {
		return slots[0]
	}
	return -1
}

// indexOn returns an index (including the primary-key index) over the named
// column, preferring ordered indexes when ranged is set.
func (t *Table) indexOn(column string, ranged bool) *Index {
	var best *Index
	consider := func(ix *Index) {
		if len(ix.Columns) != 1 || !strings.EqualFold(ix.Columns[0], column) {
			return
		}
		if ranged && !ix.Ranged() {
			return
		}
		if best == nil {
			best = ix
		}
	}
	if t.pk != nil {
		consider(t.pk)
	}
	for _, ix := range t.indexes {
		consider(ix)
	}
	return best
}

// indexOnMulti returns a composite hash index whose column set is exactly
// covered by the given column names (order-insensitive), or nil.
func (t *Table) indexOnMulti(columns []string) *Index {
	want := make(map[string]bool, len(columns))
	for _, c := range columns {
		want[strings.ToLower(c)] = true
	}
	for _, ix := range t.indexes {
		if len(ix.Columns) < 2 || len(ix.Columns) != len(columns) {
			continue
		}
		all := true
		for _, icol := range ix.Columns {
			if !want[strings.ToLower(icol)] {
				all = false
				break
			}
		}
		if all {
			return ix
		}
	}
	return nil
}

// Indexes returns the table's secondary indexes in unspecified order.
func (t *Table) Indexes() []*Index {
	out := make([]*Index, 0, len(t.indexes))
	for _, ix := range t.indexes {
		out = append(out, ix)
	}
	return out
}

// addColumn appends a column to the schema, filling existing rows with the
// column default (or NULL).
func (t *Table) addColumn(col Column) error {
	if t.schema.ColumnIndex(col.Name) >= 0 {
		return fmt.Errorf("reldb: table %s: column %s already exists", t.schema.Name, col.Name)
	}
	if col.AutoIncrement {
		return fmt.Errorf("reldb: table %s: cannot add auto-increment column %s", t.schema.Name, col.Name)
	}
	fill := col.Default
	if fill.IsNull() && col.NotNull {
		return fmt.Errorf("reldb: table %s: new NOT NULL column %s needs a default", t.schema.Name, col.Name)
	}
	if !fill.IsNull() {
		cv, err := Coerce(fill, col.Type)
		if err != nil {
			return err
		}
		fill = cv
	}
	t.schema.Columns = append(t.schema.Columns, col)
	t.rebuildRows(len(t.schema.Columns), func(dst, src Row, _ int) {
		dst[copy(dst, src)] = fill
	})
	t.bumpVersion()
	return nil
}

// dropColumn removes a column from the schema and every row, rebuilding
// indexes whose column position shifted.
func (t *Table) dropColumn(name string) error {
	pos := t.schema.ColumnIndex(name)
	if pos < 0 {
		return fmt.Errorf("reldb: table %s: no column %s", t.schema.Name, name)
	}
	if strings.EqualFold(t.schema.PrimaryKey, name) {
		return fmt.Errorf("reldb: table %s: cannot drop primary key column %s", t.schema.Name, name)
	}
	for _, ix := range t.indexes {
		for _, icol := range ix.Columns {
			if strings.EqualFold(icol, name) {
				return fmt.Errorf("reldb: table %s: column %s is indexed by %s; drop the index first",
					t.schema.Name, name, ix.Name)
			}
		}
	}
	for _, fk := range t.schema.ForeignKeys {
		if strings.EqualFold(fk.Column, name) {
			return fmt.Errorf("reldb: table %s: column %s has a foreign key", t.schema.Name, name)
		}
	}
	t.schema.Columns = append(t.schema.Columns[:pos], t.schema.Columns[pos+1:]...)
	t.rebuildRows(len(t.schema.Columns), func(dst, src Row, _ int) {
		copy(dst[copy(dst, src[:pos]):], src[pos+1:])
	})
	t.refreshIndexColumns()
	t.bumpVersion()
	return nil
}

// refreshIndexColumns recomputes every index's column positions after a
// column was inserted into or removed from the schema.
func (t *Table) refreshIndexColumns() {
	if t.pk != nil {
		t.pk.cols[0] = t.schema.ColumnIndex(t.pk.Columns[0])
	}
	for _, ix := range t.indexes {
		for i, icol := range ix.Columns {
			ix.cols[i] = t.schema.ColumnIndex(icol)
		}
	}
}

// rebuildRows replaces every live row with a new row of width cells that
// fill builds from the old row and its slot. Published rows are never
// written again (see Row), so DDL that changes the width copies. The new
// rows are carved from blocks as newRowBuf carves them, and the cell arena
// restarts at the new width.
func (t *Table) rebuildRows(width int, fill func(dst, src Row, slot int)) {
	var block []Value
	//lint:allow ctxpoll -- DDL width rebuild; aborting halfway would leave rows of two widths
	for slot, row := range t.rows {
		if row == nil {
			continue
		}
		dst := Row{}
		if width > 0 {
			if len(block) < width {
				block = make([]Value, width*rowArenaBlock)
			}
			dst, block = Row(block[:width:width]), block[width:]
		}
		fill(dst, row, slot)
		t.rows[slot] = dst
	}
	t.arena = nil
}
