package reldb

import (
	"math"
	"testing"
)

func compositeFixture(t *testing.T) *DB {
	t.Helper()
	db := NewMemory()
	mustWrite(t, db, func(tx *Tx) error {
		if err := tx.CreateTable(&Schema{
			Name: "ilp",
			Columns: []Column{
				{Name: "event", Type: TInt, NotNull: true},
				{Name: "metric", Type: TInt, NotNull: true},
				{Name: "node", Type: TInt},
				{Name: "value", Type: TFloat},
			},
		}); err != nil {
			return err
		}
		if err := tx.CreateIndex("ix_em", "ilp", []string{"event", "metric"}, HashIndex, false); err != nil {
			return err
		}
		for e := 0; e < 10; e++ {
			for m := 0; m < 4; m++ {
				for n := 0; n < 8; n++ {
					if _, err := tx.Insert("ilp", Row{
						Int(int64(e)), Int(int64(m)), Int(int64(n)), Float(float64(e*m + n)),
					}); err != nil {
						return err
					}
				}
			}
		}
		return nil
	})
	return db
}

func TestCompositeIndexLookup(t *testing.T) {
	db := compositeFixture(t)
	db.Read(func(tx *Tx) error {
		slots, ok := tx.LookupEqMulti("ilp", []string{"event", "metric"}, []Value{Int(3), Int(2)})
		if !ok {
			t.Fatal("composite index not used")
		}
		if len(slots) != 8 {
			t.Fatalf("slots: %d", len(slots))
		}
		for _, s := range slots {
			row := tx.Row("ilp", s)
			if row[0].I != 3 || row[1].I != 2 {
				t.Fatalf("wrong row: %v", row)
			}
		}
		// Order-insensitive column matching.
		slots2, ok := tx.LookupEqMulti("ilp", []string{"metric", "event"}, []Value{Int(2), Int(3)})
		if !ok || len(slots2) != 8 {
			t.Fatalf("reordered lookup: ok=%v n=%d", ok, len(slots2))
		}
		// Missing combination.
		slots3, ok := tx.LookupEqMulti("ilp", []string{"event", "metric"}, []Value{Int(99), Int(0)})
		if !ok || len(slots3) != 0 {
			t.Fatalf("missing combo: ok=%v n=%d", ok, len(slots3))
		}
		// No matching composite index for these columns.
		if _, ok := tx.LookupEqMulti("ilp", []string{"event", "node"}, []Value{Int(1), Int(1)}); ok {
			t.Fatal("phantom composite index")
		}
		// Single-column lookups must not use the composite index.
		if _, ok := tx.LookupEq("ilp", "event", Int(1)); ok {
			t.Fatal("composite index served a single-column lookup")
		}
		return nil
	})
}

func TestCompositeIndexMaintenance(t *testing.T) {
	db := compositeFixture(t)
	// Delete a row, verify it leaves the index.
	mustWrite(t, db, func(tx *Tx) error { return tx.Delete("ilp", 0) })
	db.Read(func(tx *Tx) error {
		slots, _ := tx.LookupEqMulti("ilp", []string{"event", "metric"}, []Value{Int(0), Int(0)})
		if len(slots) != 7 {
			t.Fatalf("after delete: %d", len(slots))
		}
		return nil
	})
	// Update moves a row between buckets.
	mustWrite(t, db, func(tx *Tx) error {
		return tx.Update("ilp", 1, Row{Int(9), Int(3), Int(0), Float(1)})
	})
	db.Read(func(tx *Tx) error {
		slots, _ := tx.LookupEqMulti("ilp", []string{"event", "metric"}, []Value{Int(9), Int(3)})
		if len(slots) != 9 {
			t.Fatalf("after update: %d", len(slots))
		}
		return nil
	})
	// Rollback restores index state.
	tx := db.Begin()
	tx.Delete("ilp", 2)
	tx.Rollback()
	db.Read(func(tx *Tx) error {
		slots, _ := tx.LookupEqMulti("ilp", []string{"event", "metric"}, []Value{Int(0), Int(0)})
		// 8 original − slot 0 (deleted) − slot 1 (updated away) = 6; the
		// rolled-back delete of slot 2 must not change the count.
		if len(slots) != 6 {
			t.Fatalf("after rollback: %d", len(slots))
		}
		return nil
	})
}

func TestCompositeIndexConstraints(t *testing.T) {
	db := NewMemory()
	mustWrite(t, db, func(tx *Tx) error {
		return tx.CreateTable(&Schema{
			Name: "t",
			Columns: []Column{
				{Name: "a", Type: TInt},
				{Name: "b", Type: TInt},
			},
		})
	})
	// Composite BTREE rejected.
	if err := db.Write(func(tx *Tx) error {
		return tx.CreateIndex("bad", "t", []string{"a", "b"}, OrderedIndex, false)
	}); err == nil {
		t.Fatal("composite btree accepted")
	}
	// Unique composite index enforces tuple uniqueness.
	mustWrite(t, db, func(tx *Tx) error {
		return tx.CreateIndex("uq", "t", []string{"a", "b"}, HashIndex, true)
	})
	mustWrite(t, db, func(tx *Tx) error {
		_, err := tx.Insert("t", Row{Int(1), Int(2)})
		return err
	})
	// Same a, different b: fine.
	mustWrite(t, db, func(tx *Tx) error {
		_, err := tx.Insert("t", Row{Int(1), Int(3)})
		return err
	})
	// Duplicate tuple rejected.
	if err := db.Write(func(tx *Tx) error {
		_, err := tx.Insert("t", Row{Int(1), Int(2)})
		return err
	}); err == nil {
		t.Fatal("duplicate composite tuple accepted")
	}
	// NULL in any key column skips indexing (and uniqueness).
	mustWrite(t, db, func(tx *Tx) error {
		if _, err := tx.Insert("t", Row{Null, Int(2)}); err != nil {
			return err
		}
		_, err := tx.Insert("t", Row{Null, Int(2)})
		return err
	})
}

func TestCompositeIndexPersistence(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustWrite(t, db, func(tx *Tx) error {
		if err := tx.CreateTable(&Schema{
			Name: "t",
			Columns: []Column{
				{Name: "a", Type: TInt},
				{Name: "b", Type: TInt},
			},
		}); err != nil {
			return err
		}
		if err := tx.CreateIndex("em", "t", []string{"a", "b"}, HashIndex, false); err != nil {
			return err
		}
		_, err := tx.Insert("t", Row{Int(1), Int(2)})
		return err
	})
	// WAL replay path.
	db2 := reopen(t, db, dir, Options{})
	db2.Read(func(tx *Tx) error {
		slots, ok := tx.LookupEqMulti("t", []string{"a", "b"}, []Value{Int(1), Int(2)})
		if !ok || len(slots) != 1 {
			t.Fatalf("after wal replay: ok=%v n=%d", ok, len(slots))
		}
		return nil
	})
	// Snapshot path.
	if err := db2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db3 := reopen(t, db2, dir, Options{})
	defer db3.Close()
	db3.Read(func(tx *Tx) error {
		slots, ok := tx.LookupEqMulti("t", []string{"a", "b"}, []Value{Int(1), Int(2)})
		if !ok || len(slots) != 1 {
			t.Fatalf("after snapshot: ok=%v n=%d", ok, len(slots))
		}
		return nil
	})
}

// TestLookupEqConvertsProbe: equality lookups convert the probe to the
// indexed column's type, so they find exactly the rows Compare calls equal,
// as a scan would. A probe no stored value can equal finds nothing; a float
// that several integers round to makes the index decline, and the caller
// scans.
func TestLookupEqConvertsProbe(t *testing.T) {
	db := compositeFixture(t)
	mustWrite(t, db, func(tx *Tx) error {
		if err := tx.CreateTable(&Schema{
			Name: "kinds",
			Columns: []Column{
				{Name: "f", Type: TFloat},
				{Name: "b", Type: TBool},
				{Name: "s", Type: TString},
			},
		}); err != nil {
			return err
		}
		for _, c := range []string{"f", "b", "s"} {
			if err := tx.CreateIndex("ix_"+c, "kinds", []string{c}, HashIndex, false); err != nil {
				return err
			}
		}
		if _, err := tx.Insert("kinds", Row{Float(5), Bool(true), Str("x")}); err != nil {
			return err
		}
		_, err := tx.Insert("kinds", Row{Float(math.Copysign(0, -1)), Bool(false), Str("y")})
		return err
	})
	db.Read(func(tx *Tx) error {
		for _, c := range []struct {
			col   string
			probe Value
			want  int
			used  bool
		}{
			{"f", Int(5), 1, true},   // BIGINT probe into DOUBLE
			{"f", Float(0), 1, true}, // +0 finds -0
			{"b", Int(1), 1, true},   // true = 1
			{"b", Float(0), 1, true}, // false = 0.0
			{"b", Int(5), 0, true},   // no boolean equals 5
			{"s", Bytes([]byte("x")), 1, true},
			{"s", Int(5), 0, true},          // numbers never equal strings
			{"b", Float(0.5), 0, true},      // fractional: provably empty
			{"b", Float(1 << 60), 0, false}, // too large to convert exactly
			{"f", Null, 0, true},
		} {
			slots, used := tx.LookupEq("kinds", c.col, c.probe)
			if used != c.used || len(slots) != c.want {
				t.Errorf("kinds.%s = %#v: %d slots, used=%v; want %d, %v",
					c.col, c.probe, len(slots), used, c.want, c.used)
			}
		}
		// Composite lookups convert each value.
		if slots, used := tx.LookupEqMulti("ilp", []string{"metric", "event"}, []Value{Float(2), Float(3)}); !used || len(slots) != 8 {
			t.Errorf("composite float probe: %d slots, used=%v; want 8, true", len(slots), used)
		}
		if slots, used := tx.LookupEqMulti("ilp", []string{"metric", "event"}, []Value{Float(2.5), Int(3)}); !used || len(slots) != 0 {
			t.Errorf("composite fractional probe: %d slots, used=%v; want 0, true", len(slots), used)
		}
		if _, used := tx.LookupEqMulti("ilp", []string{"metric", "event"}, []Value{Float(1 << 60), Int(3)}); used {
			t.Error("composite inexact probe answered by the index")
		}
		if name := tx.EqIndex("kinds", "F"); name != "ix_f" {
			t.Errorf("EqIndex(kinds, F) = %q", name)
		}
		if name := tx.EqIndex("kinds", "nope"); name != "" {
			t.Errorf("EqIndex(kinds, nope) = %q", name)
		}
		return nil
	})
}
