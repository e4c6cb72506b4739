package reldb

import (
	"strings"
	"sync"
	"testing"
)

func appSchema() *Schema {
	return &Schema{
		Name: "application",
		Columns: []Column{
			{Name: "id", Type: TInt, AutoIncrement: true},
			{Name: "name", Type: TString, NotNull: true},
			{Name: "version", Type: TString},
		},
		PrimaryKey: "id",
	}
}

func expSchema() *Schema {
	return &Schema{
		Name: "experiment",
		Columns: []Column{
			{Name: "id", Type: TInt, AutoIncrement: true},
			{Name: "application", Type: TInt, NotNull: true},
			{Name: "name", Type: TString},
		},
		PrimaryKey: "id",
		ForeignKeys: []ForeignKey{
			{Column: "application", RefTable: "application", RefColumn: "id"},
		},
	}
}

func mustWrite(t *testing.T, db *DB, fn func(tx *Tx) error) {
	t.Helper()
	if err := db.Write(fn); err != nil {
		t.Fatal(err)
	}
}

func TestCreateInsertScan(t *testing.T) {
	db := NewMemory()
	mustWrite(t, db, func(tx *Tx) error {
		if err := tx.CreateTable(appSchema()); err != nil {
			return err
		}
		id, err := tx.Insert("application", Row{Null, Str("sppm"), Str("1.0")})
		if err != nil {
			return err
		}
		if id.AsInt() != 1 {
			t.Errorf("first auto id = %v", id.Go())
		}
		id, err = tx.Insert("APPLICATION", Row{Null, Str("smg2000"), Null})
		if err != nil {
			return err
		}
		if id.AsInt() != 2 {
			t.Errorf("second auto id = %v", id.Go())
		}
		return nil
	})
	var names []string
	db.Read(func(tx *Tx) error {
		return tx.Scan("application", func(_ int, row Row) bool {
			names = append(names, row[1].S)
			return true
		})
	})
	if strings.Join(names, ",") != "sppm,smg2000" {
		t.Fatalf("scan returned %v", names)
	}
}

func TestConstraints(t *testing.T) {
	db := NewMemory()
	mustWrite(t, db, func(tx *Tx) error { return tx.CreateTable(appSchema()) })

	// NOT NULL.
	err := db.Write(func(tx *Tx) error {
		_, err := tx.Insert("application", Row{Null, Null, Null})
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "NOT NULL") {
		t.Errorf("want NOT NULL violation, got %v", err)
	}

	// Duplicate primary key.
	mustWrite(t, db, func(tx *Tx) error {
		_, err := tx.Insert("application", Row{Int(7), Str("a"), Null})
		return err
	})
	err = db.Write(func(tx *Tx) error {
		_, err := tx.Insert("application", Row{Int(7), Str("b"), Null})
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "duplicate primary key") {
		t.Errorf("want duplicate PK, got %v", err)
	}

	// Auto-increment continues past explicit keys.
	mustWrite(t, db, func(tx *Tx) error {
		id, err := tx.Insert("application", Row{Null, Str("c"), Null})
		if err != nil {
			return err
		}
		if id.AsInt() != 8 {
			t.Errorf("auto id after explicit 7 = %v", id.Go())
		}
		return nil
	})

	// Wrong arity.
	err = db.Write(func(tx *Tx) error {
		_, err := tx.Insert("application", Row{Null, Str("x")})
		return err
	})
	if err == nil {
		t.Error("want arity error")
	}

	// Type coercion failure.
	err = db.Write(func(tx *Tx) error {
		_, err := tx.Insert("application", Row{Str("notanint"), Str("x"), Null})
		return err
	})
	if err == nil {
		t.Error("want coercion error")
	}
}

func TestForeignKeys(t *testing.T) {
	db := NewMemory()
	mustWrite(t, db, func(tx *Tx) error {
		if err := tx.CreateTable(appSchema()); err != nil {
			return err
		}
		if err := tx.CreateTable(expSchema()); err != nil {
			return err
		}
		_, err := tx.Insert("application", Row{Null, Str("app"), Null})
		return err
	})
	// Valid reference.
	mustWrite(t, db, func(tx *Tx) error {
		_, err := tx.Insert("experiment", Row{Null, Int(1), Str("e1")})
		return err
	})
	// Dangling reference.
	err := db.Write(func(tx *Tx) error {
		_, err := tx.Insert("experiment", Row{Null, Int(99), Str("e2")})
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "foreign key") {
		t.Errorf("want FK violation, got %v", err)
	}
	// FK referencing a non-PK column is rejected at CREATE time.
	err = db.Write(func(tx *Tx) error {
		return tx.CreateTable(&Schema{
			Name:       "bad",
			Columns:    []Column{{Name: "id", Type: TInt}, {Name: "ref", Type: TInt}},
			PrimaryKey: "id",
			ForeignKeys: []ForeignKey{
				{Column: "ref", RefTable: "application", RefColumn: "name"},
			},
		})
	})
	if err == nil {
		t.Error("want FK-to-non-PK rejection")
	}
}

func TestUpdateDelete(t *testing.T) {
	db := NewMemory()
	var slot int
	mustWrite(t, db, func(tx *Tx) error {
		if err := tx.CreateTable(appSchema()); err != nil {
			return err
		}
		if _, err := tx.Insert("application", Row{Null, Str("old"), Null}); err != nil {
			return err
		}
		tx.Scan("application", func(s int, _ Row) bool { slot = s; return true })
		return nil
	})
	mustWrite(t, db, func(tx *Tx) error {
		return tx.Update("application", slot, Row{Int(1), Str("new"), Str("2.0")})
	})
	db.Read(func(tx *Tx) error {
		row := tx.Row("application", slot)
		if row[1].S != "new" || row[2].S != "2.0" {
			t.Errorf("after update: %v", row)
		}
		return nil
	})
	mustWrite(t, db, func(tx *Tx) error { return tx.Delete("application", slot) })
	db.Read(func(tx *Tx) error {
		if tx.Row("application", slot) != nil {
			t.Error("row still present after delete")
		}
		n := 0
		tx.Scan("application", func(int, Row) bool { n++; return true })
		if n != 0 {
			t.Errorf("%d rows after delete", n)
		}
		return nil
	})
}

func TestRollback(t *testing.T) {
	db := NewMemory()
	mustWrite(t, db, func(tx *Tx) error {
		if err := tx.CreateTable(appSchema()); err != nil {
			return err
		}
		_, err := tx.Insert("application", Row{Null, Str("keep"), Null})
		return err
	})

	tx := db.Begin()
	if _, err := tx.Insert("application", Row{Null, Str("drop1"), Null}); err != nil {
		t.Fatal(err)
	}
	var slot int
	tx.Scan("application", func(s int, row Row) bool {
		if row[1].S == "keep" {
			slot = s
		}
		return true
	})
	if err := tx.Update("application", slot, Row{Int(1), Str("mutated"), Null}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete("application", slot); err != nil {
		t.Fatal(err)
	}
	if err := tx.CreateTable(expSchema()); err != nil {
		t.Fatal(err)
	}
	tx.Rollback()

	db.Read(func(tx *Tx) error {
		if tx.HasTable("experiment") {
			t.Error("experiment table survived rollback")
		}
		var rows []string
		tx.Scan("application", func(_ int, row Row) bool {
			rows = append(rows, row[1].S)
			return true
		})
		if len(rows) != 1 || rows[0] != "keep" {
			t.Errorf("after rollback rows = %v", rows)
		}
		return nil
	})

	// Write() rolls back on error.
	errBoom := db.Write(func(tx *Tx) error {
		if _, err := tx.Insert("application", Row{Null, Str("temp"), Null}); err != nil {
			return err
		}
		return errFake
	})
	if errBoom != errFake {
		t.Fatalf("Write returned %v", errBoom)
	}
	db.Read(func(tx *Tx) error {
		n := 0
		tx.Scan("application", func(int, Row) bool { n++; return true })
		if n != 1 {
			t.Errorf("%d rows after failed Write", n)
		}
		return nil
	})
}

var errFake = &fakeErr{}

type fakeErr struct{}

func (*fakeErr) Error() string { return "fake" }

func TestIndexesAndLookup(t *testing.T) {
	db := NewMemory()
	mustWrite(t, db, func(tx *Tx) error {
		if err := tx.CreateTable(appSchema()); err != nil {
			return err
		}
		for i := 0; i < 100; i++ {
			name := "app" + string(rune('a'+i%10))
			if _, err := tx.Insert("application", Row{Null, Str(name), Null}); err != nil {
				return err
			}
		}
		return tx.CreateIndex("ix_name", "application", []string{"name"}, HashIndex, false)
	})
	db.Read(func(tx *Tx) error {
		slots, ok := tx.LookupEq("application", "name", Str("appc"))
		if !ok {
			t.Fatal("index not used")
		}
		if len(slots) != 10 {
			t.Errorf("lookup returned %d slots, want 10", len(slots))
		}
		// PK lookups work through the implicit PK index.
		slots, ok = tx.LookupEq("application", "id", Int(5))
		if !ok || len(slots) != 1 {
			t.Errorf("pk lookup: ok=%v slots=%v", ok, slots)
		}
		return nil
	})

	// Ordered index supports range scans.
	mustWrite(t, db, func(tx *Tx) error {
		return tx.CreateIndex("ix_id_range", "application", []string{"id"}, OrderedIndex, false)
	})
	db.Read(func(tx *Tx) error {
		var ids []int64
		ok := tx.ScanRange("application", "id", Int(10), Int(14), true, true, func(slot int) bool {
			ids = append(ids, tx.Row("application", slot)[0].I)
			return true
		})
		if !ok {
			t.Fatal("range scan did not use index")
		}
		if len(ids) != 5 || ids[0] != 10 || ids[4] != 14 {
			t.Errorf("range scan ids = %v", ids)
		}
		return nil
	})

	// Unique index rejects duplicates.
	err := db.Write(func(tx *Tx) error {
		return tx.CreateIndex("ix_uni", "application", []string{"name"}, HashIndex, true)
	})
	if err == nil {
		t.Error("unique index over duplicate data should fail to build")
	}
}

func TestAlterTable(t *testing.T) {
	db := NewMemory()
	mustWrite(t, db, func(tx *Tx) error {
		if err := tx.CreateTable(appSchema()); err != nil {
			return err
		}
		_, err := tx.Insert("application", Row{Null, Str("a"), Str("v")})
		return err
	})
	mustWrite(t, db, func(tx *Tx) error {
		return tx.AddColumn("application", Column{Name: "compiler", Type: TString, Default: Str("gcc")})
	})
	db.Read(func(tx *Tx) error {
		tbl, _ := tx.Table("application")
		if len(tbl.Schema().Columns) != 4 {
			t.Fatalf("columns = %d", len(tbl.Schema().Columns))
		}
		tx.Scan("application", func(_ int, row Row) bool {
			if row[3].S != "gcc" {
				t.Errorf("backfill = %v", row[3].Go())
			}
			return true
		})
		return nil
	})
	// New inserts see the wider schema.
	mustWrite(t, db, func(tx *Tx) error {
		_, err := tx.Insert("application", Row{Null, Str("b"), Null, Str("icc")})
		return err
	})
	mustWrite(t, db, func(tx *Tx) error { return tx.DropColumn("application", "version") })
	db.Read(func(tx *Tx) error {
		tbl, _ := tx.Table("application")
		if tbl.Schema().ColumnIndex("version") >= 0 {
			t.Error("version column survived drop")
		}
		tx.Scan("application", func(_ int, row Row) bool {
			if len(row) != 3 {
				t.Errorf("row width %d after drop", len(row))
			}
			return true
		})
		// PK index still works after column shift.
		slots, ok := tx.LookupEq("application", "id", Int(2))
		if !ok || len(slots) != 1 {
			t.Errorf("pk lookup after drop: %v %v", ok, slots)
		}
		return nil
	})
	// Cannot drop the PK column.
	if err := db.Write(func(tx *Tx) error { return tx.DropColumn("application", "id") }); err == nil {
		t.Error("dropping PK column should fail")
	}
}

func TestAlterRollback(t *testing.T) {
	db := NewMemory()
	mustWrite(t, db, func(tx *Tx) error {
		if err := tx.CreateTable(appSchema()); err != nil {
			return err
		}
		_, err := tx.Insert("application", Row{Null, Str("a"), Str("1.0")})
		return err
	})
	tx := db.Begin()
	if err := tx.AddColumn("application", Column{Name: "extra", Type: TInt}); err != nil {
		t.Fatal(err)
	}
	if err := tx.DropColumn("application", "version"); err != nil {
		t.Fatal(err)
	}
	tx.Rollback()
	db.Read(func(tx *Tx) error {
		tbl, _ := tx.Table("application")
		s := tbl.Schema()
		if s.ColumnIndex("extra") >= 0 || s.ColumnIndex("version") < 0 {
			t.Errorf("schema after rollback: %v", s.ColumnNames())
		}
		row := tx.Row("application", 0)
		if len(row) != 3 || row[2].S != "1.0" {
			t.Errorf("row after rollback: %v", row)
		}
		return nil
	})
}

func TestConcurrentReaders(t *testing.T) {
	db := NewMemory()
	mustWrite(t, db, func(tx *Tx) error {
		if err := tx.CreateTable(appSchema()); err != nil {
			return err
		}
		for i := 0; i < 50; i++ {
			if _, err := tx.Insert("application", Row{Null, Str("app"), Null}); err != nil {
				return err
			}
		}
		return nil
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				db.Read(func(tx *Tx) error {
					n := 0
					tx.Scan("application", func(int, Row) bool { n++; return true })
					if n != 50 {
						t.Errorf("reader saw %d rows", n)
					}
					return nil
				})
			}
		}()
	}
	wg.Wait()
}

func TestWriteInReadOnlyTx(t *testing.T) {
	db := NewMemory()
	err := db.Read(func(tx *Tx) error {
		return tx.CreateTable(appSchema())
	})
	if err == nil {
		t.Fatal("DDL inside read-only tx should fail")
	}
}

func TestSchemaValidation(t *testing.T) {
	db := NewMemory()
	cases := []*Schema{
		{Name: "", Columns: []Column{{Name: "a", Type: TInt}}},
		{Name: "t"},
		{Name: "t", Columns: []Column{{Name: "a", Type: TInt}, {Name: "A", Type: TInt}}},
		{Name: "t", Columns: []Column{{Name: "a", Type: TString, AutoIncrement: true}}},
		{Name: "t", Columns: []Column{{Name: "a", Type: TInt}}, PrimaryKey: "nope"},
	}
	for i, s := range cases {
		if err := db.Write(func(tx *Tx) error { return tx.CreateTable(s) }); err == nil {
			t.Errorf("case %d: invalid schema accepted", i)
		}
	}
}

// TestPublishedRowsImmutable holds rows fetched under one read transaction
// across DDL that changes the table's width — DROP COLUMN, a rolled-back
// DROP COLUMN, and ADD COLUMN after a drop — and checks each keeps every
// cell it had when fetched.
func TestPublishedRowsImmutable(t *testing.T) {
	db := NewMemory()
	mustWrite(t, db, func(tx *Tx) error {
		if err := tx.CreateTable(appSchema()); err != nil {
			return err
		}
		if err := tx.AddColumn("application", Column{Name: "note", Type: TString}); err != nil {
			return err
		}
		for _, name := range []string{"a", "b", "c"} {
			if _, err := tx.Insert("application", Row{Null, Str(name), Str("v" + name), Str("n" + name)}); err != nil {
				return err
			}
		}
		return nil
	})
	type held struct {
		row  Row
		want []any
	}
	var rows []held
	fetch := func() {
		t.Helper()
		db.Read(func(tx *Tx) error {
			return tx.Scan("application", func(_ int, row Row) bool {
				h := held{row: row}
				for _, v := range row {
					h.want = append(h.want, v.Go())
				}
				rows = append(rows, h)
				return true
			})
		})
	}
	check := func(step string) {
		t.Helper()
		for i, h := range rows {
			if len(h.row) != len(h.want) {
				t.Fatalf("%s: held row %d has %d cells, fetched with %d", step, i, len(h.row), len(h.want))
			}
			for j, v := range h.row {
				if v.Go() != h.want[j] {
					t.Fatalf("%s: held row %d cell %d = %v, fetched as %v", step, i, j, v.Go(), h.want[j])
				}
			}
		}
	}

	fetch()
	mustWrite(t, db, func(tx *Tx) error { return tx.DropColumn("application", "version") })
	check("DROP COLUMN")

	fetch()
	tx := db.Begin()
	if err := tx.DropColumn("application", "name"); err != nil {
		t.Fatal(err)
	}
	tx.Rollback()
	check("rolled-back DROP COLUMN")

	fetch()
	mustWrite(t, db, func(tx *Tx) error {
		return tx.AddColumn("application", Column{Name: "extra", Type: TInt, Default: Int(7)})
	})
	check("ADD COLUMN after a drop")

	// The table itself took every change.
	db.Read(func(tx *Tx) error {
		row := tx.Row("application", 1)
		if got := []any{row[0].Go(), row[1].Go(), row[2].Go(), row[3].Go()}; len(row) != 4 ||
			got[1] != "b" || got[2] != "nb" || got[3] != int64(7) {
			t.Fatalf("table row after DDL: %v", got)
		}
		return nil
	})
}
