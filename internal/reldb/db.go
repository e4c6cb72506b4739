package reldb

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// DB is an embedded relational database: a catalog of tables plus optional
// durable storage. All access goes through transactions (see Tx): Read for
// shared snapshots, Write for atomic mutations, Begin for explicit
// multi-statement transactions. A single writer is admitted at a time.
type DB struct {
	mu      sync.RWMutex
	tables  map[string]*Table // keyed by lower-cased table name
	wal     *walWriter        // nil for purely in-memory databases
	dir     string            // durable storage directory ("" = memory)
	walOps  int               // logical ops appended since last checkpoint
	gen     uint64            // checkpoint generation of the snapshot the WAL extends
	chkEach int               // checkpoint after this many ops (0 = never)
	lastChk time.Time         // last successful checkpoint (or the snapshot
	// loaded at Open); zero for in-memory databases and fresh directories
	closed bool
}

// NewMemory returns a new in-memory database with no durable storage.
func NewMemory() *DB {
	return &DB{tables: make(map[string]*Table)}
}

// Tx is a transaction. Read-only transactions may run concurrently; a
// write transaction excludes all others for its duration. Writes are
// buffered into an undo log so Rollback restores the previous state, and
// into a redo log that is appended to the WAL on Commit.
type Tx struct {
	db       *DB
	writable bool
	done     bool
	undo     []undoRec
	redo     []walRecord
}

type undoKind uint8

const (
	undoInsert undoKind = iota
	undoDelete
	undoUpdate
	undoDDL
)

type undoRec struct {
	kind    undoKind
	table   string
	slot    int
	row     Row    // previous row for delete/update
	restore func() // DDL restoration closure
}

// Read runs fn with a shared read transaction.
func (db *DB) Read(fn func(tx *Tx) error) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	mTxRead.Inc()
	tx := &Tx{db: db}
	return fn(tx)
}

// Write runs fn in a write transaction, committing when fn returns nil and
// rolling back when it returns an error.
func (db *DB) Write(fn func(tx *Tx) error) error {
	tx := db.Begin()
	if err := fn(tx); err != nil {
		tx.Rollback()
		return err
	}
	return tx.Commit()
}

// Begin starts an explicit write transaction. The caller must call Commit
// or Rollback; the database is locked until then.
func (db *DB) Begin() *Tx {
	start := time.Now()
	db.mu.Lock()
	mLockWaitNS.Observe(int64(time.Since(start)))
	mTxBegin.Inc()
	return &Tx{db: db, writable: true} //lint:allow lockcheck -- Begin returns holding the lock; Commit/Rollback release it
}

// TryBegin is Begin without the wait: when another transaction holds the
// write lock it returns (nil, false) immediately instead of queueing. The
// telemetry writer uses it so background persistence never lines up behind
// — or gets the lock handed to it in the middle of — the workload it is
// measuring; a refused attempt becomes a governor stall signal instead.
func (db *DB) TryBegin() (*Tx, bool) {
	if !db.mu.TryLock() {
		mTryBeginMisses.Inc()
		return nil, false
	}
	mTxBegin.Inc()
	// TryBegin returns holding the lock; Commit/Rollback release it.
	// (No lockcheck suppression needed: TryLock acquisitions are outside
	// its scope, so the escaped lock is modeled by lockorder's HeldOnEntry
	// contract instead.)
	return &Tx{db: db, writable: true}, true
}

// Commit applies the transaction: the redo log is appended to the WAL (when
// the database is durable) and the write lock is released.
func (tx *Tx) Commit() error { return tx.commit(false) }

// CommitRelaxed commits with relaxed durability: the redo log is appended
// to the WAL but the per-commit fsync (when Options.Sync is on) may be
// deferred and batched with later commits. The write is ordered before any
// subsequent synchronous commit, checkpoint, or Close — a crash can lose
// only the most recent relaxed batch. The telemetry writer uses this: a
// lost tail of self-observation spans is acceptable, an fsync per span
// batch on the workload's engine is not. On databases opened without Sync
// it is identical to Commit.
func (tx *Tx) CommitRelaxed() error { return tx.commit(true) }

func (tx *Tx) commit(relaxed bool) error {
	if !tx.writable || tx.done {
		return nil
	}
	tx.done = true
	mTxCommit.Inc()
	defer tx.db.mu.Unlock()
	if tx.db.wal != nil && len(tx.redo) > 0 {
		if err := tx.db.wal.append(tx.redo, relaxed); err != nil {
			// The in-memory state is ahead of the durable state; roll the
			// memory back so the two agree.
			tx.rollbackLocked()
			return fmt.Errorf("reldb: wal append: %w", err)
		}
		tx.db.walOps += len(tx.redo)
		if tx.db.chkEach > 0 && tx.db.walOps >= tx.db.chkEach {
			if err := tx.db.checkpointLocked(); err != nil {
				return fmt.Errorf("reldb: checkpoint: %w", err)
			}
		}
	}
	return nil
}

// Rollback undoes every change made in the transaction and releases the
// write lock.
func (tx *Tx) Rollback() {
	if !tx.writable || tx.done {
		return
	}
	tx.done = true
	mTxRollback.Inc()
	tx.rollbackLocked()
	tx.db.mu.Unlock()
}

func (tx *Tx) rollbackLocked() {
	for i := len(tx.undo) - 1; i >= 0; i-- {
		u := tx.undo[i]
		switch u.kind {
		case undoInsert:
			t := tx.db.tables[u.table]
			t.deleteSlot(u.slot) //nolint:errcheck // undoing a successful insert
		case undoDelete:
			tx.db.tables[u.table].restoreSlot(u.slot, u.row)
		case undoUpdate:
			t := tx.db.tables[u.table]
			t.updateSlot(u.slot, u.row) //nolint:errcheck // restoring the previous row
		case undoDDL:
			u.restore()
		}
	}
	tx.undo = nil
	tx.redo = nil
}

// logRedo reports whether redo records must be collected: only durable
// databases replay them into the WAL at commit. Skipping them for
// in-memory databases keeps bulk uploads from cloning every row.
func (tx *Tx) logRedo() bool { return tx.db.wal != nil }

func (tx *Tx) needWrite() error {
	if !tx.writable {
		return fmt.Errorf("reldb: write inside a read-only transaction")
	}
	if tx.done {
		return fmt.Errorf("reldb: transaction already finished")
	}
	return nil
}

// Table returns the named table, or an error when it does not exist.
func (tx *Tx) Table(name string) (*Table, error) {
	t := tx.db.tables[strings.ToLower(name)]
	if t == nil {
		return nil, fmt.Errorf("reldb: no table %s", name)
	}
	return t, nil
}

// HasTable reports whether the named table exists.
func (tx *Tx) HasTable(name string) bool {
	return tx.db.tables[strings.ToLower(name)] != nil
}

// TableNames returns the table names in sorted order.
func (tx *Tx) TableNames() []string {
	names := make([]string, 0, len(tx.db.tables))
	for _, t := range tx.db.tables {
		names = append(names, t.schema.Name)
	}
	sort.Strings(names)
	return names
}

// CreateTable adds a table with the given schema.
func (tx *Tx) CreateTable(schema *Schema) error {
	if err := tx.needWrite(); err != nil {
		return err
	}
	if err := schema.validate(); err != nil {
		return err
	}
	if len(schema.Columns) == 0 {
		return fmt.Errorf("reldb: table %s has no columns", schema.Name)
	}
	key := strings.ToLower(schema.Name)
	if tx.db.tables[key] != nil {
		return fmt.Errorf("reldb: table %s already exists", schema.Name)
	}
	for _, fk := range schema.ForeignKeys {
		ref := tx.db.tables[strings.ToLower(fk.RefTable)]
		if ref == nil && !strings.EqualFold(fk.RefTable, schema.Name) {
			return fmt.Errorf("reldb: table %s: foreign key references unknown table %s",
				schema.Name, fk.RefTable)
		}
		if ref != nil && !strings.EqualFold(ref.schema.PrimaryKey, fk.RefColumn) {
			return fmt.Errorf("reldb: table %s: foreign key must reference the primary key of %s",
				schema.Name, fk.RefTable)
		}
	}
	tx.db.tables[key] = newTable(schema.clone())
	tx.undo = append(tx.undo, undoRec{kind: undoDDL, restore: func() {
		delete(tx.db.tables, key)
	}})
	tx.redo = append(tx.redo, walRecord{kind: walCreateTable, schema: schema.clone()})
	return nil
}

// DropTable removes a table and its indexes.
func (tx *Tx) DropTable(name string) error {
	if err := tx.needWrite(); err != nil {
		return err
	}
	key := strings.ToLower(name)
	t := tx.db.tables[key]
	if t == nil {
		return fmt.Errorf("reldb: no table %s", name)
	}
	delete(tx.db.tables, key)
	tx.undo = append(tx.undo, undoRec{kind: undoDDL, restore: func() {
		tx.db.tables[key] = t
	}})
	tx.redo = append(tx.redo, walRecord{kind: walDropTable, table: t.schema.Name})
	return nil
}

// AddColumn appends a column to an existing table.
func (tx *Tx) AddColumn(table string, col Column) error {
	if err := tx.needWrite(); err != nil {
		return err
	}
	t, err := tx.Table(table)
	if err != nil {
		return err
	}
	if err := t.addColumn(col); err != nil {
		return err
	}
	name := col.Name
	tx.undo = append(tx.undo, undoRec{kind: undoDDL, restore: func() {
		t.dropColumn(name) //nolint:errcheck // undoing a successful add
	}})
	tx.redo = append(tx.redo, walRecord{kind: walAddColumn, table: t.schema.Name, column: col})
	return nil
}

// DropColumn removes a column from an existing table.
func (tx *Tx) DropColumn(table, column string) error {
	if err := tx.needWrite(); err != nil {
		return err
	}
	t, err := tx.Table(table)
	if err != nil {
		return err
	}
	pos := t.schema.ColumnIndex(column)
	if pos < 0 {
		return fmt.Errorf("reldb: table %s: no column %s", table, column)
	}
	// Snapshot enough state to restore the column on rollback.
	colDef := t.schema.Columns[pos]
	saved := make([]Value, len(t.rows))
	for slot, row := range t.rows {
		if row != nil {
			saved[slot] = row[pos]
		}
	}
	if err := t.dropColumn(column); err != nil {
		return err
	}
	tx.undo = append(tx.undo, undoRec{kind: undoDDL, restore: func() {
		t.schema.Columns = append(t.schema.Columns, Column{})
		copy(t.schema.Columns[pos+1:], t.schema.Columns[pos:])
		t.schema.Columns[pos] = colDef
		t.rebuildRows(len(t.schema.Columns), func(dst, src Row, slot int) {
			copy(dst, src[:pos])
			dst[pos] = saved[slot]
			copy(dst[pos+1:], src[pos:])
		})
		t.refreshIndexColumns()
		t.bumpVersion()
	}})
	tx.redo = append(tx.redo, walRecord{kind: walDropColumn, table: t.schema.Name, name: column})
	return nil
}

// CreateIndex builds a secondary index over one or more columns of a
// table. Multi-column indexes must be hash indexes.
func (tx *Tx) CreateIndex(name, table string, columns []string, kind IndexKind, unique bool) error {
	if err := tx.needWrite(); err != nil {
		return err
	}
	t, err := tx.Table(table)
	if err != nil {
		return err
	}
	key := strings.ToLower(name)
	if t.indexes[key] != nil {
		return fmt.Errorf("reldb: index %s already exists", name)
	}
	canonical := make([]string, len(columns))
	cols := make([]int, len(columns))
	for i, column := range columns {
		pos := t.schema.ColumnIndex(column)
		if pos < 0 {
			return fmt.Errorf("reldb: table %s: no column %s", table, column)
		}
		canonical[i] = t.schema.Columns[pos].Name
		cols[i] = pos
	}
	ix, err := newIndex(name, t.schema.Name, canonical, cols, kind, unique)
	if err != nil {
		return err
	}
	if err := ix.rebuild(t.rows, t.live); err != nil {
		return err
	}
	t.indexes[key] = ix
	t.bumpVersion()
	tx.undo = append(tx.undo, undoRec{kind: undoDDL, restore: func() {
		delete(t.indexes, key)
		t.bumpVersion()
	}})
	tx.redo = append(tx.redo, walRecord{
		kind: walCreateIndex, table: t.schema.Name, name: name,
		ixColumns: canonical, ixKind: kind, unique: unique,
	})
	return nil
}

// DropIndex removes a secondary index.
func (tx *Tx) DropIndex(table, name string) error {
	if err := tx.needWrite(); err != nil {
		return err
	}
	t, err := tx.Table(table)
	if err != nil {
		return err
	}
	key := strings.ToLower(name)
	ix := t.indexes[key]
	if ix == nil {
		return fmt.Errorf("reldb: no index %s on table %s", name, table)
	}
	delete(t.indexes, key)
	t.bumpVersion()
	tx.undo = append(tx.undo, undoRec{kind: undoDDL, restore: func() {
		t.indexes[key] = ix
		t.bumpVersion()
	}})
	tx.redo = append(tx.redo, walRecord{kind: walDropIndex, table: t.schema.Name, name: name})
	return nil
}

// checkForeignKeys verifies that every foreign-key column in row references
// an existing primary key (or is NULL).
func (tx *Tx) checkForeignKeys(t *Table, row Row) error {
	for _, fk := range t.schema.ForeignKeys {
		v := row[t.schema.ColumnIndex(fk.Column)]
		if v.IsNull() {
			continue
		}
		ref := tx.db.tables[strings.ToLower(fk.RefTable)]
		if ref == nil {
			return fmt.Errorf("reldb: table %s: foreign key references missing table %s",
				t.schema.Name, fk.RefTable)
		}
		if ref.lookupPK(v) < 0 {
			return fmt.Errorf("reldb: table %s: foreign key %s=%v has no match in %s",
				t.schema.Name, fk.Column, v.Go(), fk.RefTable)
		}
	}
	return nil
}

// Insert adds a row (in schema column order; use Null for omitted values)
// and returns the value of the primary-key column, which for auto-increment
// tables is the assigned id.
func (tx *Tx) Insert(table string, row Row) (Value, error) {
	if err := tx.needWrite(); err != nil {
		return Null, err
	}
	t, err := tx.Table(table)
	if err != nil {
		return Null, err
	}
	norm, err := t.normalize(row)
	if err != nil {
		return Null, err
	}
	if err := tx.checkForeignKeys(t, norm); err != nil {
		return Null, err
	}
	slot, err := t.insert(norm)
	if err != nil {
		return Null, err
	}
	mRowsInserted.Inc()
	tx.undo = append(tx.undo, undoRec{kind: undoInsert, table: strings.ToLower(table), slot: slot})
	if tx.logRedo() {
		tx.redo = append(tx.redo, walRecord{kind: walInsert, table: t.schema.Name, row: norm.clone()})
	}
	if t.pk != nil {
		return norm[t.pk.cols[0]], nil
	}
	return Null, nil
}

// Update replaces the row at slot. The new row passes through the same
// normalization and constraint checks as an insert.
func (tx *Tx) Update(table string, slot int, row Row) error {
	if err := tx.needWrite(); err != nil {
		return err
	}
	t, err := tx.Table(table)
	if err != nil {
		return err
	}
	norm, err := t.normalize(row)
	if err != nil {
		return err
	}
	if err := tx.checkForeignKeys(t, norm); err != nil {
		return err
	}
	old, err := t.updateSlot(slot, norm)
	if err != nil {
		return err
	}
	mRowsUpdated.Inc()
	tx.undo = append(tx.undo, undoRec{kind: undoUpdate, table: strings.ToLower(table), slot: slot, row: old})
	if tx.logRedo() {
		tx.redo = append(tx.redo, walRecord{kind: walUpdate, table: t.schema.Name, slot: slot, row: norm.clone()})
	}
	return nil
}

// Delete removes the row at slot.
func (tx *Tx) Delete(table string, slot int) error {
	if err := tx.needWrite(); err != nil {
		return err
	}
	t, err := tx.Table(table)
	if err != nil {
		return err
	}
	old, err := t.deleteSlot(slot)
	if err != nil {
		return err
	}
	mRowsDeleted.Inc()
	tx.undo = append(tx.undo, undoRec{kind: undoDelete, table: strings.ToLower(table), slot: slot, row: old})
	if tx.logRedo() {
		tx.redo = append(tx.redo, walRecord{kind: walDelete, table: t.schema.Name, slot: slot})
	}
	return nil
}

// Scan visits every live row of the table in slot order. The rows are
// immutable (see Row): fn may keep them after the transaction ends.
func (tx *Tx) Scan(table string, fn func(slot int, row Row) bool) error {
	t, err := tx.Table(table)
	if err != nil {
		return err
	}
	t.scan(fn)
	return nil
}

// ScanPartitioned exposes Table.ScanPartitioned under a transaction: the
// slot array split into at most n contiguous ranges, delivered in order.
// The slices alias the slot array and are only safe to read while the
// transaction is open; the rows in them are immutable (see Row) and may
// be kept after it ends.
func (tx *Tx) ScanPartitioned(table string, n int, fn func(part, base int, rows []Row)) error {
	t, err := tx.Table(table)
	if err != nil {
		return err
	}
	t.ScanPartitioned(n, fn)
	return nil
}

// ColumnSegments returns the named table's fresh columnar snapshot,
// counting this call toward the lazy read-mostly build heuristic (see
// Table.SegmentsLazy). Returns nil when the table does not exist or no
// fresh set is available yet. The set is sealed and safe to read for as
// long as the transaction is open.
func (tx *Tx) ColumnSegments(table string, hints map[string]int) *SegmentSet {
	t := tx.db.tables[strings.ToLower(table)]
	if t == nil {
		return nil
	}
	return t.SegmentsLazy(hints)
}

// BuildColumnSegments builds the named table's columnar snapshot now (the
// COMPACT statement), returning the number of rows encoded.
func (tx *Tx) BuildColumnSegments(table string, hints map[string]int) (int, error) {
	t, err := tx.Table(table)
	if err != nil {
		return 0, err
	}
	set := t.BuildSegments(hints)
	if set == nil {
		return 0, fmt.Errorf("reldb: table %s: cannot build column segments", table)
	}
	return set.rows, nil
}

// TableVersion returns the schema version of the named table, or 0 when no
// such table exists. See Table.Version.
func (tx *Tx) TableVersion(table string) int64 {
	t := tx.db.tables[strings.ToLower(table)]
	if t == nil {
		return 0
	}
	return t.version
}

// Row returns the row at slot, or nil.
func (tx *Tx) Row(table string, slot int) Row {
	t := tx.db.tables[strings.ToLower(table)]
	if t == nil {
		return nil
	}
	return t.row(slot)
}

// LookupEq returns the slots whose column equals v, using an index when one
// exists. The probe is first converted to the column's type, so the slots
// are exactly the rows Compare calls equal to v. The second result reports
// whether the index answered: false means there is no index, or v is a
// float too large to map onto an integer column exactly, and the caller
// must scan. The slice belongs to the index and must not be modified.
func (tx *Tx) LookupEq(table, column string, v Value) ([]int, bool) {
	t := tx.db.tables[strings.ToLower(table)]
	if t == nil {
		return nil, false
	}
	ix := t.indexOn(column, false)
	if ix == nil {
		return nil, false
	}
	key, kind := probeKey(v, t.schema.Columns[ix.cols[0]].Type)
	switch kind {
	case probeEmpty:
		return nil, true
	case probeInexact:
		return nil, false
	}
	return ix.lookup(key), true
}

// LookupEqMulti returns the slots matching an equality on several columns
// at once, using a composite hash index whose column set matches exactly.
// Each value is converted to its column's type as in LookupEq. The second
// result reports whether such an index existed and could answer.
func (tx *Tx) LookupEqMulti(table string, columns []string, vals []Value) ([]int, bool) {
	if len(columns) != len(vals) || len(columns) < 2 {
		return nil, false
	}
	t := tx.db.tables[strings.ToLower(table)]
	if t == nil {
		return nil, false
	}
	ix := t.indexOnMulti(columns)
	if ix == nil {
		return nil, false
	}
	// Reorder vals to the index's column order.
	ordered := make([]Value, len(ix.Columns))
	empty := false
	for i, icol := range ix.Columns {
		found := false
		for j, c := range columns {
			if strings.EqualFold(c, icol) {
				ordered[i] = vals[j]
				found = true
				break
			}
		}
		if !found {
			return nil, false
		}
		key, kind := probeKey(ordered[i], t.schema.Columns[ix.cols[i]].Type)
		switch kind {
		case probeInexact:
			return nil, false
		case probeEmpty:
			empty = true
		}
		ordered[i] = key
	}
	if empty {
		return nil, true
	}
	return ix.lookupVals(ordered), true
}

// EqIndex returns the name of the index LookupEq uses for column, or ""
// when the table has none.
func (tx *Tx) EqIndex(table, column string) string {
	t := tx.db.tables[strings.ToLower(table)]
	if t == nil {
		return ""
	}
	if ix := t.indexOn(column, false); ix != nil {
		return ix.Name
	}
	return ""
}

// IndexOn reports whether the table has an index usable for equality
// lookups on column (ranged=false) or range scans (ranged=true).
func (tx *Tx) IndexOn(table, column string, ranged bool) bool {
	t := tx.db.tables[strings.ToLower(table)]
	if t == nil {
		return false
	}
	return t.indexOn(column, ranged) != nil
}

// ScanRange visits slots whose column value lies between lo and hi (either
// may be Null for an open bound) in value order, using an ordered index.
// It reports whether such an index existed.
func (tx *Tx) ScanRange(table, column string, lo, hi Value, loInc, hiInc bool, fn func(slot int) bool) bool {
	t := tx.db.tables[strings.ToLower(table)]
	if t == nil {
		return false
	}
	ix := t.indexOn(column, true)
	if ix == nil {
		return false
	}
	var lb, hb bound
	if !lo.IsNull() {
		lb = bound{val: &lo, inclusive: loInc}
	}
	if !hi.IsNull() {
		hb = bound{val: &hi, inclusive: hiInc}
	}
	ix.scanRange(lb, hb, fn)
	return true
}
