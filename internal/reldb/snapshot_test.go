package reldb

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// fixtureWorkload runs a fixed mix of DDL and DML on db and calls
// checkpoint halfway, so the state ends up split between a snapshot (with
// free slots, NULLs, every type and all three index shapes) and a WAL.
// The committed v1 and v2 fixtures under testdata/ are this workload as
// the row-wise writer stored it; keep it as it is, or regenerate them.
func fixtureWorkload(t testing.TB, db *DB, checkpoint func()) {
	write := func(fn func(tx *Tx) error) {
		t.Helper()
		if err := db.Write(fn); err != nil {
			t.Fatal(err)
		}
	}
	base := time.Date(2005, 6, 15, 12, 0, 0, 0, time.UTC)
	insert := func(tx *Tx, i int, extra ...Value) error {
		n := Int(int64(-1000 * i))
		if i%3 == 0 {
			n = Null
		}
		_, err := tx.Insert("alltypes", append(Row{
			Null, Float(float64(i) * 1.5), Str(fmt.Sprintf("s%d", i%7)), Bool(i%2 == 0),
			Time(base.Add(time.Duration(i) * time.Second)), Bytes([]byte{byte(i), 0, 255}), n,
		}, extra...))
		return err
	}
	write(func(tx *Tx) error {
		if err := tx.CreateTable(appSchema()); err != nil {
			return err
		}
		if err := tx.CreateTable(&Schema{
			Name: "alltypes",
			Columns: []Column{
				{Name: "id", Type: TInt, AutoIncrement: true},
				{Name: "f", Type: TFloat},
				{Name: "s", Type: TString, NotNull: true},
				{Name: "b", Type: TBool},
				{Name: "t", Type: TTime},
				{Name: "blob", Type: TBytes},
				{Name: "n", Type: TInt},
			},
			PrimaryKey: "id",
		}); err != nil {
			return err
		}
		if err := tx.CreateIndex("ix_s", "alltypes", []string{"s"}, HashIndex, false); err != nil {
			return err
		}
		if err := tx.CreateIndex("ix_f", "alltypes", []string{"f"}, OrderedIndex, false); err != nil {
			return err
		}
		return tx.CreateIndex("ix_bn", "alltypes", []string{"b", "n"}, HashIndex, false)
	})
	write(func(tx *Tx) error {
		for i := 0; i < 40; i++ {
			if err := insert(tx, i); err != nil {
				return err
			}
		}
		for _, name := range []string{"a", "b", "c", "d"} {
			if _, err := tx.Insert("application", Row{Null, Str(name), Null}); err != nil {
				return err
			}
		}
		return nil
	})
	write(func(tx *Tx) error {
		for _, slot := range []int{3, 20, 7, 8} {
			if err := tx.Delete("alltypes", slot); err != nil {
				return err
			}
		}
		return tx.Delete("application", 1)
	})
	write(func(tx *Tx) error {
		return tx.AddColumn("alltypes", Column{Name: "extra", Type: TString, Default: Str("d")})
	})
	checkpoint()
	write(func(tx *Tx) error {
		for i := 40; i < 43; i++ {
			if err := insert(tx, i, Str(fmt.Sprint("e", i))); err != nil {
				return err
			}
		}
		if err := tx.Delete("alltypes", 11); err != nil {
			return err
		}
		row := append(Row(nil), tx.Row("alltypes", 12)...)
		row[2], row[6] = Str("updated"), Null
		if err := tx.Update("alltypes", 12, row); err != nil {
			return err
		}
		if err := tx.DropColumn("alltypes", "blob"); err != nil {
			return err
		}
		_, err := tx.Insert("application", Row{Null, Str("wal"), Str("2")})
		return err
	})
}

// dumpState renders every table — schema, auto-increment counter, each
// slot's row, the free list in order, and every index's definition and
// contents — as text, so two databases compare with one string compare.
func dumpState(db *DB) string {
	var b strings.Builder
	for _, name := range sortedTableKeys(db.tables) {
		t := db.tables[name]
		fmt.Fprintf(&b, "table %s pk=%q autoinc=%d live=%d\n", t.schema.Name, t.schema.PrimaryKey, t.autoInc, t.live)
		for _, c := range t.schema.Columns {
			fmt.Fprintf(&b, "  column %s %v notnull=%v auto=%v default=%s\n", c.Name, c.Type, c.NotNull, c.AutoIncrement, dumpValue(c.Default))
		}
		for _, fk := range t.schema.ForeignKeys {
			fmt.Fprintf(&b, "  fk %s -> %s.%s\n", fk.Column, fk.RefTable, fk.RefColumn)
		}
		for slot, row := range t.rows {
			if row == nil {
				fmt.Fprintf(&b, "  slot %d free\n", slot)
				continue
			}
			cells := make([]string, len(row))
			for i, v := range row {
				cells[i] = dumpValue(v)
			}
			fmt.Fprintf(&b, "  slot %d %s\n", slot, strings.Join(cells, " "))
		}
		fmt.Fprintf(&b, "  free %v\n", t.free)
		indexes := []*Index{}
		if t.pk != nil {
			indexes = append(indexes, t.pk)
		}
		for _, key := range sortedIndexKeys(t.indexes) {
			indexes = append(indexes, t.indexes[key])
		}
		for _, ix := range indexes {
			fmt.Fprintf(&b, "  index %s %v %v unique=%v\n", ix.Name, ix.Columns, ix.Kind, ix.Unique)
			for _, e := range dumpIndex(ix) {
				fmt.Fprintf(&b, "    %s\n", e)
			}
		}
	}
	return b.String()
}

func dumpValue(v Value) string {
	switch v.T {
	case TNull:
		return "NULL"
	case TFloat:
		return fmt.Sprintf("%v:%x", v.T, v.F)
	case TString, TBytes:
		return fmt.Sprintf("%v:%q", v.T, v.S)
	}
	return fmt.Sprintf("%v:%d", v.T, v.I)
}

// dumpIndex lists an index's keys with their sorted slot lists, in key order.
func dumpIndex(ix *Index) []string {
	var out []string
	add := func(key string, slots []int) {
		s := append([]int(nil), slots...)
		sort.Ints(s)
		out = append(out, fmt.Sprintf("%s %v", key, s))
	}
	switch {
	case ix.multi != nil:
		for k, slots := range ix.multi {
			add(fmt.Sprintf("%q", k), slots)
		}
	case ix.hash != nil:
		for k, slots := range ix.hash {
			add(dumpValue(k), slots)
		}
	default:
		ix.tree.scanRange(bound{}, bound{}, func(k Value, slots []int) bool {
			add(dumpValue(k), slots)
			return true
		})
	}
	sort.Strings(out)
	return out
}

// plantTaggedCell stores a string in the integer column n of fixtureWorkload's
// alltypes table, so a snapshot must write that column's blocks tagged.
// updateSlot keeps the indexes in step but, unlike Update, does not coerce.
func plantTaggedCell(t testing.TB, db *DB) {
	t.Helper()
	at := db.tables["alltypes"]
	row := at.rows[5].clone()
	row[at.schema.ColumnIndex("n")] = Str("not an int")
	if _, err := at.updateSlot(5, row); err != nil {
		t.Fatal(err)
	}
}

// addGroupRows adds a table "many" whose rows fill more than one row
// group: slots past rowGroupRows, NULLs in both groups, and free slots
// on each side of the group boundary.
func addGroupRows(t testing.TB, db *DB) {
	t.Helper()
	err := db.Write(func(tx *Tx) error {
		if err := tx.CreateTable(&Schema{
			Name:       "many",
			Columns:    []Column{{Name: "id", Type: TInt, AutoIncrement: true}, {Name: "v", Type: TFloat}},
			PrimaryKey: "id",
		}); err != nil {
			return err
		}
		for i := 0; i < rowGroupRows+100; i++ {
			v := Float(float64(i) / 4)
			if i%1000 == 999 {
				v = Null
			}
			if _, err := tx.Insert("many", Row{Null, v}); err != nil {
				return err
			}
		}
		for _, slot := range []int{rowGroupRows + 50, 5, rowGroupRows - 1} {
			if err := tx.Delete("many", slot); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// snapshotBytes writes db as a version 3 snapshot of generation 7.
func snapshotBytes(t testing.TB, db *DB) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := db.writeSnapshot(&b, 7); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func loadBytes(data []byte) (*DB, error) {
	db := NewMemory()
	err := db.loadSnapshot(bufio.NewReader(bytes.NewReader(data)), int64(len(data)))
	return db, err
}

func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func snapshotVersion(t *testing.T, dir string) uint32 {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, snapFile))
	if err != nil {
		t.Fatal(err)
	}
	return binary.LittleEndian.Uint32(data[4:])
}

// TestSnapshotV3RoundTrip writes and reloads a table that needs every
// column block shape — every type, NULLs, a tagged column whose cells'
// types differ from the declared one — across several row groups, with
// free slots and added and dropped columns. The reload must give the same
// slots, free-list order and index contents, and a WAL appended after the
// reopen must replay onto it.
func TestSnapshotV3RoundTrip(t *testing.T) {
	db, dir := openTemp(t, Options{})
	fixtureWorkload(t, db, func() {})
	mustWrite(t, db, func(tx *Tx) error {
		return tx.AddColumn("alltypes", Column{Name: "late", Type: TFloat})
	})
	// A cell whose type differs from its column's cannot come through
	// Insert, which coerces; plant one so column n is written tagged.
	plantTaggedCell(t, db)
	addGroupRows(t, db)
	got, err := loadBytes(snapshotBytes(t, db))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if got.gen != 7 {
		t.Errorf("generation %d, want 7", got.gen)
	}
	if g, w := dumpState(got), dumpState(db); g != w {
		t.Fatalf("reloaded state differs:\n%s\nwant:\n%s", g, w)
	}

	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := dumpState(db)
	db2 := reopen(t, db, dir, Options{})
	if v := snapshotVersion(t, dir); v != 3 {
		t.Fatalf("checkpoint wrote snapshot version %d, want 3", v)
	}
	if got := dumpState(db2); got != want {
		t.Fatalf("reopened state differs:\n%s\nwant:\n%s", got, want)
	}
	// Slot reuse after the reopen must follow the persisted LIFO order, or
	// the WAL's slot-addressed records would replay onto the wrong rows.
	mustWrite(t, db2, func(tx *Tx) error {
		if _, err := tx.Insert("application", Row{Null, Str("after"), Null}); err != nil {
			return err
		}
		row := append(Row(nil), tx.Row("alltypes", 0)...)
		row[1] = Float(-1)
		if err := tx.Update("alltypes", 0, row); err != nil {
			return err
		}
		return tx.Delete("alltypes", 2)
	})
	want = dumpState(db2)
	db3 := reopen(t, db2, dir, Options{})
	defer db3.Close()
	if got := dumpState(db3); got != want {
		t.Fatalf("state after WAL replay differs:\n%s\nwant:\n%s", got, want)
	}
}

// TestPreGenerationFilesOpen opens the committed archives the row-wise
// writer left: a version 1 snapshot with a WAL without a header, and a
// version 2 snapshot with a stamped WAL, both of fixtureWorkload. Each must
// open to the state the workload builds today, keep logging, and move to a
// version 3 snapshot at its next checkpoint, which reopens to the same
// state. A WAL that extends a snapshot newer than the one on disk fails
// the open instead of replaying onto the wrong state.
func TestPreGenerationFilesOpen(t *testing.T) {
	fresh, freshDir := openTemp(t, Options{})
	fixtureWorkload(t, fresh, func() {
		if err := fresh.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	})
	want := dumpState(fresh)
	if err := fresh.Close(); err != nil {
		t.Fatal(err)
	}
	if v := snapshotVersion(t, freshDir); v != 3 {
		t.Fatalf("checkpoint wrote snapshot version %d, want 3", v)
	}
	for _, ver := range []string{"v1", "v2"} {
		t.Run(ver, func(t *testing.T) {
			dir := copyDir(t, filepath.Join("testdata", "snapshot-"+ver))
			db, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("open the %s archive: %v", ver, err)
			}
			if got := dumpState(db); got != want {
				t.Fatalf("%s archive opens to:\n%s\nwant:\n%s", ver, got, want)
			}
			insertApp(t, db, "legacy-wal")
			db = reopen(t, db, dir, Options{})
			names := appNames(t, db)
			if len(names) == 0 || names[len(names)-1] != "legacy-wal" {
				t.Fatalf("a commit on the %s archive did not survive a reopen: %v", ver, names)
			}
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if v := snapshotVersion(t, dir); v != 3 {
				t.Fatalf("checkpoint wrote snapshot version %d, want 3", v)
			}
			before := dumpState(db)
			db = reopen(t, db, dir, Options{})
			if got := dumpState(db); got != before {
				t.Fatalf("the v3 rewrite reopens to:\n%s\nwant:\n%s", got, before)
			}
			insertApp(t, db, "stamped")
			db = reopen(t, db, dir, Options{})
			if got := appNames(t, db); got[len(got)-1] != "stamped" {
				t.Fatalf("after the first v3 checkpoint = %v", got)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			if err := os.Remove(filepath.Join(dir, snapFile)); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "newer than the snapshot") {
				t.Fatalf("open a wal without its snapshot: err=%v, want a generation mismatch", err)
			}
		})
	}
}

// rowSnapshot encodes a version 2 snapshot of one table the way the
// row-wise writer stored it, taking the rows and free list as given.
func rowSnapshot(s *Schema, rows []Row, free []int) []byte {
	var b bytes.Buffer
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:], snapMagic)
	binary.LittleEndian.PutUint32(hdr[4:], 2)
	b.Write(hdr[:])
	putUvarint(&b, 1)
	putSchema(&b, s)
	putUvarint(&b, 0)
	putUvarint(&b, uint64(len(rows)))
	for _, r := range rows {
		if r == nil {
			b.WriteByte(0)
			continue
		}
		b.WriteByte(1)
		putRow(&b, r)
	}
	putUvarint(&b, uint64(len(free)))
	for _, s := range free {
		putUvarint(&b, uint64(s))
	}
	putUvarint(&b, 0)
	return b.Bytes()
}

// columnSnapshot writes a version 3 snapshot of an application table of
// nrows rows whose free list, after deleting the slots in del, is replaced
// by free. The writer checks only that the free list is as long as the
// number of empty slots.
func columnSnapshot(t *testing.T, nrows int, del, free []int) []byte {
	t.Helper()
	db := NewMemory()
	mustWrite(t, db, func(tx *Tx) error {
		if err := tx.CreateTable(appSchema()); err != nil {
			return err
		}
		for i := 0; i < nrows; i++ {
			if _, err := tx.Insert("application", Row{Null, Str("app"), Null}); err != nil {
				return err
			}
		}
		for _, s := range del {
			if err := tx.Delete("application", s); err != nil {
				return err
			}
		}
		return nil
	})
	db.tables["application"].free = free
	return snapshotBytes(t, db)
}

// TestSnapshotLoadRejectsMalformed: a snapshot whose slot bookkeeping
// cannot be right — a free-list entry out of range, listed twice, or
// naming a slot that holds a row, an empty slot missing from the free list,
// or a row wider or narrower than its schema — fails to load. Each once
// loaded, to panic on a later index or to let an insert overwrite a live
// row. So does a byte appended after the last table.
func TestSnapshotLoadRejectsMalformed(t *testing.T) {
	row := Row{Int(1), Str("app"), Null}
	cases := []struct {
		name string
		snap []byte
		want string
	}{
		{"v2 free slot out of range", rowSnapshot(appSchema(), []Row{row, nil}, []int{5}), "out of range"},
		{"v2 free slot listed twice", rowSnapshot(appSchema(), []Row{nil, row, nil}, []int{0, 0}), "listed twice"},
		{"v2 free slot holds a row", rowSnapshot(appSchema(), []Row{row, nil}, []int{0}), "slot 0 is empty or on the free list, not both"},
		{"v2 empty slot not on the free list", rowSnapshot(appSchema(), []Row{nil, row}, nil), "slot 0 is empty or on the free list, not both"},
		{"v2 row narrower than its schema", rowSnapshot(appSchema(), []Row{{Int(1)}}, nil), "holds 1 values, want 3"},
		{"v2 row wider than its schema", rowSnapshot(appSchema(), []Row{append(row, Null)}, nil), "holds 4 values, want 3"},
		{"v3 free slot out of range", columnSnapshot(t, 2, []int{0}, []int{5}), "out of range"},
		{"v3 free slot listed twice", columnSnapshot(t, 3, []int{0, 1}, []int{0, 0}), "listed twice"},
		{"v2 trailing byte", append(rowSnapshot(appSchema(), []Row{row}, nil), 0), "1 trailing bytes"},
		{"v3 trailing byte", append(columnSnapshot(t, 2, nil, nil), 0), "1 bytes after the last table"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := loadBytes(c.snap)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("load: err=%v, want %q", err, c.want)
			}
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, snapFile), c.snap, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "load snapshot") {
				t.Fatalf("open: err=%v, want a load snapshot error", err)
			}
		})
	}
	// The same encoders produce loadable snapshots when the bookkeeping is
	// right.
	for name, snap := range map[string][]byte{
		"v2": rowSnapshot(appSchema(), []Row{row, nil}, []int{1}),
		"v3": columnSnapshot(t, 3, []int{0, 1}, []int{1, 0}),
	} {
		if _, err := loadBytes(snap); err != nil {
			t.Errorf("%s: a well-formed snapshot fails to load: %v", name, err)
		}
	}
}

// TestZeroColumnTableReopens: dropping a table's only column leaves a
// table of zero-width rows, which a checkpoint must store and a reopen
// load, across row groups and after WAL replay. A version 2 snapshot
// holding such a table opens too, and moves to version 3.
func TestZeroColumnTableReopens(t *testing.T) {
	db, dir := openTemp(t, Options{})
	mustWrite(t, db, func(tx *Tx) error {
		if err := tx.CreateTable(&Schema{Name: "t", Columns: []Column{{Name: "c", Type: TString}}}); err != nil {
			return err
		}
		for i := 0; i < rowGroupRows+10; i++ {
			if _, err := tx.Insert("t", Row{Str("x")}); err != nil {
				return err
			}
		}
		if err := tx.Delete("t", 3); err != nil {
			return err
		}
		return tx.DropColumn("t", "c")
	})
	want := dumpState(db)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db = reopen(t, db, dir, Options{})
	if got := dumpState(db); got != want {
		t.Fatalf("reopened state differs:\n%.500s\nwant:\n%.500s", got, want)
	}
	mustWrite(t, db, func(tx *Tx) error {
		_, err := tx.Insert("t", Row{})
		return err
	})
	want = dumpState(db)
	db = reopen(t, db, dir, Options{})
	if got := dumpState(db); got != want {
		t.Fatalf("state after WAL replay differs:\n%.500s\nwant:\n%.500s", got, want)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	dir = t.TempDir()
	snap := rowSnapshot(&Schema{Name: "t"}, []Row{{}, nil, {}}, []int{1})
	if err := os.WriteFile(filepath.Join(dir, snapFile), snap, 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open a v2 snapshot with a zero-column table: %v", err)
	}
	want = dumpState(db)
	if !strings.Contains(want, "live=2") {
		t.Fatalf("v2 zero-column table opens to:\n%s", want)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if v := snapshotVersion(t, dir); v != 3 {
		t.Fatalf("checkpoint wrote snapshot version %d, want 3", v)
	}
	db = reopen(t, db, dir, Options{})
	defer db.Close()
	if got := dumpState(db); got != want {
		t.Fatalf("the v3 rewrite reopens to:\n%s\nwant:\n%s", got, want)
	}
}

// FuzzSnapshotLoad truncates a valid version 3 snapshot, or flips one of
// its bits: loading it must fail with an error or give back the original
// state, and never panic.
func FuzzSnapshotLoad(f *testing.F) {
	db := NewMemory()
	fixtureWorkload(f, db, func() {})
	plantTaggedCell(f, db)
	addGroupRows(f, db)
	snap := snapshotBytes(f, db)
	want := dumpState(db)
	for _, pos := range []int{0, 4, 8, 16, 17, 21, 40, len(snap) / 2, len(snap) - 1} {
		f.Add(uint8(0), uint32(pos), uint8(0))
		f.Add(uint8(1), uint32(pos), uint8(pos))
	}
	f.Fuzz(func(t *testing.T, op uint8, pos uint32, bit uint8) {
		data := append([]byte(nil), snap...)
		i := int(pos % uint32(len(data)))
		if op%2 == 0 {
			data = data[:i]
		} else {
			data[i] ^= 1 << (bit % 8)
		}
		got, err := loadBytes(data)
		if err != nil {
			return
		}
		if got.gen != 7 || dumpState(got) != want {
			t.Fatalf("a damaged snapshot (op %d at byte %d) loaded to a different state", op%2, i)
		}
	})
}
