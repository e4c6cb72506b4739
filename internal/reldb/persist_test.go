package reldb

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func openTemp(t *testing.T, opts Options) (*DB, string) {
	t.Helper()
	dir := t.TempDir()
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return db, dir
}

func reopen(t *testing.T, db *DB, dir string, opts Options) *DB {
	t.Helper()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return db2
}

func countRows(t *testing.T, db *DB, table string) int {
	t.Helper()
	n := 0
	err := db.Read(func(tx *Tx) error {
		return tx.Scan(table, func(int, Row) bool { n++; return true })
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestWALReplay(t *testing.T) {
	db, dir := openTemp(t, Options{})
	mustWrite(t, db, func(tx *Tx) error {
		if err := tx.CreateTable(appSchema()); err != nil {
			return err
		}
		for i := 0; i < 25; i++ {
			if _, err := tx.Insert("application", Row{Null, Str("app"), Str("v1")}); err != nil {
				return err
			}
		}
		return nil
	})
	mustWrite(t, db, func(tx *Tx) error { return tx.Delete("application", 3) })
	mustWrite(t, db, func(tx *Tx) error {
		return tx.Update("application", 4, Row{Int(5), Str("renamed"), Null})
	})

	db2 := reopen(t, db, dir, Options{})
	defer db2.Close()
	if n := countRows(t, db2, "application"); n != 24 {
		t.Fatalf("replayed %d rows, want 24", n)
	}
	db2.Read(func(tx *Tx) error {
		if tx.Row("application", 3) != nil {
			t.Error("deleted row came back")
		}
		if row := tx.Row("application", 4); row[1].S != "renamed" {
			t.Errorf("updated row = %v", row)
		}
		return nil
	})
	// Auto-increment continues after replay.
	mustWrite(t, db2, func(tx *Tx) error {
		id, err := tx.Insert("application", Row{Null, Str("next"), Null})
		if err != nil {
			return err
		}
		if id.AsInt() != 26 {
			t.Errorf("auto id after replay = %v", id.Go())
		}
		return nil
	})
}

func TestCheckpointAndReplay(t *testing.T) {
	db, dir := openTemp(t, Options{})
	mustWrite(t, db, func(tx *Tx) error {
		if err := tx.CreateTable(appSchema()); err != nil {
			return err
		}
		if err := tx.CreateIndex("ix_name", "application", []string{"name"}, OrderedIndex, false); err != nil {
			return err
		}
		for i := 0; i < 10; i++ {
			if _, err := tx.Insert("application", Row{Null, Str("a"), Null}); err != nil {
				return err
			}
		}
		return nil
	})
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// WAL should be empty after checkpoint.
	if fi, err := os.Stat(filepath.Join(dir, walFile)); err != nil || fi.Size() != 0 {
		t.Fatalf("wal after checkpoint: %v, size=%d", err, fi.Size())
	}
	// More writes go to the fresh WAL.
	mustWrite(t, db, func(tx *Tx) error {
		_, err := tx.Insert("application", Row{Null, Str("post-chk"), Null})
		return err
	})

	db2 := reopen(t, db, dir, Options{})
	defer db2.Close()
	if n := countRows(t, db2, "application"); n != 11 {
		t.Fatalf("rows after checkpoint+wal = %d, want 11", n)
	}
	db2.Read(func(tx *Tx) error {
		// Secondary index survived via snapshot metadata.
		slots, ok := tx.LookupEq("application", "name", Str("post-chk"))
		if !ok || len(slots) != 1 {
			t.Errorf("index lookup after reopen: ok=%v slots=%v", ok, slots)
		}
		return nil
	})
}

func TestDDLThroughWAL(t *testing.T) {
	db, dir := openTemp(t, Options{})
	mustWrite(t, db, func(tx *Tx) error { return tx.CreateTable(appSchema()) })
	mustWrite(t, db, func(tx *Tx) error {
		return tx.AddColumn("application", Column{Name: "os", Type: TString, Default: Str("linux")})
	})
	mustWrite(t, db, func(tx *Tx) error {
		_, err := tx.Insert("application", Row{Null, Str("x"), Null, Null})
		return err
	})
	mustWrite(t, db, func(tx *Tx) error { return tx.DropColumn("application", "version") })
	mustWrite(t, db, func(tx *Tx) error { return tx.CreateTable(expSchema()) })
	mustWrite(t, db, func(tx *Tx) error { return tx.DropTable("experiment") })

	db2 := reopen(t, db, dir, Options{})
	defer db2.Close()
	db2.Read(func(tx *Tx) error {
		if tx.HasTable("experiment") {
			t.Error("dropped table came back")
		}
		tbl, err := tx.Table("application")
		if err != nil {
			t.Fatal(err)
		}
		s := tbl.Schema()
		if s.ColumnIndex("os") < 0 || s.ColumnIndex("version") >= 0 {
			t.Errorf("schema after replay: %v", s.ColumnNames())
		}
		row := tx.Row("application", 0)
		if row[s.ColumnIndex("os")].S != "linux" {
			t.Errorf("default not applied after replay: %v", row)
		}
		return nil
	})
}

func TestTornWALTail(t *testing.T) {
	db, dir := openTemp(t, Options{})
	mustWrite(t, db, func(tx *Tx) error {
		if err := tx.CreateTable(appSchema()); err != nil {
			return err
		}
		for i := 0; i < 5; i++ {
			if _, err := tx.Insert("application", Row{Null, Str("a"), Null}); err != nil {
				return err
			}
		}
		return nil
	})
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: chop bytes off the WAL tail.
	walPath := filepath.Join(dir, walFile)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open with torn wal: %v", err)
	}
	defer db2.Close()
	// The torn batch (the whole 6-op commit) is dropped; the database must
	// still open and accept writes.
	mustWrite(t, db2, func(tx *Tx) error {
		if !tx.HasTable("application") {
			// The entire batch was one commit, so it may be gone entirely.
			return tx.CreateTable(appSchema())
		}
		return nil
	})
}

// appNames returns the application names in slot order.
func appNames(t *testing.T, db *DB) []string {
	t.Helper()
	var names []string
	if err := db.Read(func(tx *Tx) error {
		return tx.Scan("application", func(_ int, r Row) bool {
			names = append(names, r[1].S)
			return true
		})
	}); err != nil {
		t.Fatal(err)
	}
	return names
}

// insertApp commits one application row in its own transaction (one WAL
// batch).
func insertApp(t *testing.T, db *DB, name string) {
	t.Helper()
	mustWrite(t, db, func(tx *Tx) error {
		_, err := tx.Insert("application", Row{Null, Str(name), Null})
		return err
	})
}

// TestTornWALTailThenCommit: recovery from a torn tail must cut the WAL
// back to its last complete batch, so a commit made after the recovery is
// itself recovered by the next open instead of landing behind torn bytes.
func TestTornWALTailThenCommit(t *testing.T) {
	db, dir := openTemp(t, Options{Sync: true})
	mustWrite(t, db, func(tx *Tx) error { return tx.CreateTable(appSchema()) })
	insertApp(t, db, "kept")
	insertApp(t, db, "torn")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, walFile)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, Options{Sync: true})
	if err != nil {
		t.Fatalf("open with torn wal: %v", err)
	}
	if got := appNames(t, db2); !reflect.DeepEqual(got, []string{"kept"}) {
		t.Fatalf("after torn-tail recovery: %v, want [kept]", got)
	}
	insertApp(t, db2, "after")
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}

	db3, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after post-recovery commit: %v", err)
	}
	defer db3.Close()
	if got := appNames(t, db3); !reflect.DeepEqual(got, []string{"kept", "after"}) {
		t.Fatalf("after second reopen: %v, want [kept after]", got)
	}
}

// TestWALHugeDeclaredLength: a final header whose declared length exceeds
// the bytes left in the file is a torn batch. It must neither be trusted
// as an allocation size nor fail the open; the database opens to the
// prefix and keeps accepting durable commits.
func TestWALHugeDeclaredLength(t *testing.T) {
	db, dir := openTemp(t, Options{})
	mustWrite(t, db, func(tx *Tx) error { return tx.CreateTable(appSchema()) })
	insertApp(t, db, "kept")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, walFile)
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [12]byte
	binary.LittleEndian.PutUint64(hdr[0:], 1<<62)
	if _, err := f.Write(append(hdr[:], "partial"...)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open with oversized final header: %v", err)
	}
	if got := appNames(t, db2); !reflect.DeepEqual(got, []string{"kept"}) {
		t.Fatalf("after recovery: %v, want [kept]", got)
	}
	insertApp(t, db2, "after")
	db3 := reopen(t, db2, dir, Options{})
	defer db3.Close()
	if got := appNames(t, db3); !reflect.DeepEqual(got, []string{"kept", "after"}) {
		t.Fatalf("after reopen: %v, want [kept after]", got)
	}
}

// TestWALChecksumMismatchFailsOpen: a complete batch with a bad checksum
// is corruption, not a torn tail, and must fail the open rather than be
// silently truncated away.
func TestWALChecksumMismatchFailsOpen(t *testing.T) {
	db, dir := openTemp(t, Options{})
	mustWrite(t, db, func(tx *Tx) error { return tx.CreateTable(appSchema()) })
	insertApp(t, db, "a")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, walFile)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff // last payload byte of the last batch
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("open with corrupt batch: err=%v, want checksum mismatch", err)
	}
}

func TestSnapshotPreservesValueTypes(t *testing.T) {
	db, dir := openTemp(t, Options{})
	when := time.Date(2005, 6, 15, 12, 0, 0, 0, time.UTC)
	mustWrite(t, db, func(tx *Tx) error {
		if err := tx.CreateTable(&Schema{
			Name: "alltypes",
			Columns: []Column{
				{Name: "id", Type: TInt, AutoIncrement: true},
				{Name: "f", Type: TFloat},
				{Name: "s", Type: TString},
				{Name: "b", Type: TBool},
				{Name: "t", Type: TTime},
				{Name: "blob", Type: TBytes},
				{Name: "n", Type: TInt},
			},
			PrimaryKey: "id",
		}); err != nil {
			return err
		}
		_, err := tx.Insert("alltypes", Row{
			Null, Float(3.14159), Str("héllo"), Bool(true), Time(when), Bytes([]byte{0, 1, 255}), Null,
		})
		return err
	})
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db2 := reopen(t, db, dir, Options{})
	defer db2.Close()
	db2.Read(func(tx *Tx) error {
		row := tx.Row("alltypes", 0)
		if row[1].F != 3.14159 {
			t.Errorf("float = %v", row[1].F)
		}
		if row[2].S != "héllo" {
			t.Errorf("string = %q", row[2].S)
		}
		if !row[3].AsBool() {
			t.Error("bool lost")
		}
		if !row[4].AsTime().Equal(when) {
			t.Errorf("time = %v", row[4].AsTime())
		}
		if b := row[5].Go().([]byte); len(b) != 3 || b[2] != 255 {
			t.Errorf("bytes = %v", b)
		}
		if !row[6].IsNull() {
			t.Error("null lost")
		}
		return nil
	})
}

func TestAutoCheckpoint(t *testing.T) {
	db, dir := openTemp(t, Options{CheckpointEvery: 10})
	mustWrite(t, db, func(tx *Tx) error { return tx.CreateTable(appSchema()) })
	for i := 0; i < 20; i++ {
		mustWrite(t, db, func(tx *Tx) error {
			_, err := tx.Insert("application", Row{Null, Str("a"), Null})
			return err
		})
	}
	// A checkpoint must have happened: snapshot exists and WAL is short.
	if _, err := os.Stat(filepath.Join(dir, snapFile)); err != nil {
		t.Fatalf("no snapshot after auto checkpoint: %v", err)
	}
	db2 := reopen(t, db, dir, Options{})
	defer db2.Close()
	if n := countRows(t, db2, "application"); n != 20 {
		t.Fatalf("rows = %d, want 20", n)
	}
}

func TestRolledBackTxnNotLogged(t *testing.T) {
	db, dir := openTemp(t, Options{})
	mustWrite(t, db, func(tx *Tx) error { return tx.CreateTable(appSchema()) })
	tx := db.Begin()
	if _, err := tx.Insert("application", Row{Null, Str("ghost"), Null}); err != nil {
		t.Fatal(err)
	}
	tx.Rollback()
	db2 := reopen(t, db, dir, Options{})
	defer db2.Close()
	if n := countRows(t, db2, "application"); n != 0 {
		t.Fatalf("rolled-back insert persisted: %d rows", n)
	}
}

// TestCheckpointCrashBeforeWALReset is the checkpoint crash window: a
// crash after the new snapshot is renamed into place but before the WAL is
// reset leaves the new snapshot next to the old WAL, whose records the
// snapshot already holds. Replaying them again failed the open on a
// primary key ("duplicate primary key") and doubled rows without one; the
// old WAL must instead be recognised as older than the snapshot and
// ignored, and the archive must keep accepting durable commits.
func TestCheckpointCrashBeforeWALReset(t *testing.T) {
	db, dir := openTemp(t, Options{})
	mustWrite(t, db, func(tx *Tx) error {
		if err := tx.CreateTable(appSchema()); err != nil {
			return err
		}
		return tx.CreateTable(&Schema{Name: "nokey", Columns: []Column{{Name: "n", Type: TInt}}})
	})
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The WAL now holds only inserts, no CREATE TABLE that would reset the
	// tables on replay.
	for i := 0; i < 5; i++ {
		insertApp(t, db, "row")
		mustWrite(t, db, func(tx *Tx) error {
			_, err := tx.Insert("nokey", Row{Int(int64(i))})
			return err
		})
	}
	walPath := filepath.Join(dir, walFile)
	oldWAL, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Crash between the rename and the WAL reset: new snapshot, old WAL.
	if err := os.WriteFile(walPath, oldWAL, 0o644); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, Options{Sync: true})
	if err != nil {
		t.Fatalf("open after a crash inside checkpoint: %v", err)
	}
	if a, n := countRows(t, db2, "application"), countRows(t, db2, "nokey"); a != 5 || n != 5 {
		t.Fatalf("after the crash: %d application rows and %d nokey rows, want 5 and 5", a, n)
	}
	insertApp(t, db2, "after")
	db3 := reopen(t, db2, dir, Options{})
	defer db3.Close()
	if a, n := countRows(t, db3, "application"), countRows(t, db3, "nokey"); a != 6 || n != 5 {
		t.Fatalf("after a commit and reopen: %d application rows and %d nokey rows, want 6 and 5", a, n)
	}
}
