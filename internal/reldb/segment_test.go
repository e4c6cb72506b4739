package reldb

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// segSchema is a one-table schema exercising every segment encoding:
// a dense ascending int (frame-of-reference packable), a long-run int
// (RLE), a wide-range int (raw int64), a float, a low-NDV string
// (dictionary) and a high-NDV string (raw), all nullable except id.
func segSchema() *Schema {
	return &Schema{
		Name: "seg",
		Columns: []Column{
			{Name: "id", Type: TInt, AutoIncrement: true},
			{Name: "run", Type: TInt},
			{Name: "wide", Type: TInt},
			{Name: "x", Type: TFloat},
			{Name: "ev", Type: TString},
			{Name: "uniq", Type: TString},
		},
		PrimaryKey: "id",
	}
}

// segFixture seeds nrows rows with deterministic values and periodic NULLs.
func segFixture(t testing.TB, nrows int) *DB {
	t.Helper()
	db := NewMemory()
	mustSegWrite(t, db, func(tx *Tx) error {
		if err := tx.CreateTable(segSchema()); err != nil {
			return err
		}
		for i := 0; i < nrows; i++ {
			row := Row{
				Null,
				Int(int64(i / 97)),             // long runs -> RLE
				Int(int64(i) * 3_000_000_000),  // > int32 range -> raw int64
				Float(float64(i) / 7.0),        // floats
				Str(fmt.Sprintf("ev%d", i%11)), // 11 distinct -> dict
				Str(fmt.Sprintf("uniq-%d", i)), // all distinct, raw via hint
			}
			if i%13 == 0 {
				row[1], row[3], row[4] = Null, Null, Null
			}
			if _, err := tx.Insert("seg", row); err != nil {
				return err
			}
		}
		return nil
	})
	return db
}

func mustSegWrite(t testing.TB, db *DB, fn func(tx *Tx) error) {
	t.Helper()
	if err := db.Write(fn); err != nil {
		t.Fatal(err)
	}
}

// buildSet force-builds the fixture's segment set with an NDV hint that
// pushes uniq past the dictionary bound.
func buildSet(t testing.TB, db *DB, nrows int) *SegmentSet {
	t.Helper()
	var set *SegmentSet
	if err := db.Read(func(tx *Tx) error {
		n, err := tx.BuildColumnSegments("seg", map[string]int{"uniq": nrows})
		if err != nil {
			return err
		}
		if n != nrows {
			t.Errorf("BuildColumnSegments encoded %d rows, want %d", n, nrows)
		}
		set = tx.ColumnSegments("seg", nil)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if set == nil {
		t.Fatal("no fresh segment set after an explicit build")
	}
	return set
}

// TestSegmentEncodingsRoundTrip pins the encoding choices and checks that
// every access path — ValueAt, the block decoders and the gather kernels —
// reproduces the stored values exactly, NULLs included.
func TestSegmentEncodingsRoundTrip(t *testing.T) {
	const nrows = 5000
	db := segFixture(t, nrows)
	set := buildSet(t, db, nrows)
	if set.Rows() != nrows {
		t.Fatalf("set.Rows() = %d, want %d", set.Rows(), nrows)
	}

	wantEnc := map[int]string{
		1: "rle",     // run: 97-long runs
		2: "int64",   // wide: range exceeds int32 packing
		3: "float64", // x
		4: "dict",    // ev: 11 distinct values
		5: "string",  // uniq: NDV hint disables the dictionary
	}
	for ci, want := range wantEnc {
		seg := set.Col(ci)
		if seg == nil {
			t.Fatalf("column %d not vectorized", ci)
		}
		if got := seg.Encoding(); got != want {
			t.Errorf("column %d encoding = %s, want %s", ci, got, want)
		}
	}
	// id is NOT NULL ascending from 1: packs into int32 deltas.
	if got := set.Col(0).Encoding(); got != "int32-for" {
		t.Errorf("id encoding = %s, want int32-for", got)
	}
	if set.Col(4).Dict() == nil || len(set.Col(4).Dict()) != 11 {
		t.Errorf("ev dictionary = %v, want 11 entries", set.Col(4).Dict())
	}

	// Row-by-row: ValueAt must equal what the row store holds.
	if err := db.Read(func(tx *Tx) error {
		tbl, err := tx.Table("seg")
		if err != nil {
			return err
		}
		for i := 0; i < set.Rows(); i++ {
			row := tbl.RowAt(set.Slot(i))
			for ci := 0; ci < 6; ci++ {
				got, want := set.Col(ci).ValueAt(i), row[ci]
				if Compare(got, want) != 0 || got.T != want.T {
					t.Fatalf("row %d col %d: ValueAt = %#v, row store %#v", i, ci, got, want)
				}
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// Block decode and gather must agree with ValueAt on every encoding.
	sel := make([]int32, 0, nrows/3)
	for i := 0; i < nrows; i += 3 {
		sel = append(sel, int32(i))
	}
	for _, ci := range []int{0, 1, 2} {
		seg := set.Col(ci)
		dst := make([]int64, nrows)
		seg.DecodeInts(0, nrows, dst)
		for i, v := range dst {
			if seg.Valid(i) && v != seg.IntAt(i) {
				t.Fatalf("col %d DecodeInts[%d] = %d, IntAt = %d", ci, i, v, seg.IntAt(i))
			}
		}
		g := make([]int64, len(sel))
		seg.GatherInts(sel, g)
		for i, r := range sel {
			if seg.Valid(int(r)) && g[i] != seg.IntAt(int(r)) {
				t.Fatalf("col %d GatherInts[%d] = %d, IntAt(%d) = %d", ci, i, g[i], r, seg.IntAt(int(r)))
			}
		}
	}
	gs := make([]string, len(sel))
	for _, ci := range []int{4, 5} {
		set.Col(ci).GatherStrs(sel, gs)
		for i, r := range sel {
			if set.Col(ci).Valid(int(r)) && gs[i] != set.Col(ci).StrAt(int(r)) {
				t.Fatalf("col %d GatherStrs[%d] = %q, StrAt = %q", ci, i, gs[i], set.Col(ci).StrAt(int(r)))
			}
		}
	}
}

// TestSegmentLazyBuildHeuristic pins the read-mostly trigger: no set until
// segmentBuildAfter eligible reads accumulate, any DML resets the counter
// and invalidates a published set.
func TestSegmentLazyBuildHeuristic(t *testing.T) {
	db := segFixture(t, 200)
	if err := db.Read(func(tx *Tx) error {
		for i := 1; i < segmentBuildAfter; i++ {
			if set := tx.ColumnSegments("seg", nil); set != nil {
				t.Fatalf("segment set built after only %d reads", i)
			}
		}
		if set := tx.ColumnSegments("seg", nil); set == nil {
			t.Fatalf("no segment set after %d eligible reads", segmentBuildAfter)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// DML invalidates: the stale set must never be returned as fresh.
	mustSegWrite(t, db, func(tx *Tx) error {
		_, err := tx.Insert("seg", Row{Null, Int(1), Int(2), Float(3), Str("ev0"), Str("u")})
		return err
	})
	if err := db.Read(func(tx *Tx) error {
		if set := tx.ColumnSegments("seg", nil); set != nil {
			t.Fatal("stale segment set returned after DML")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestSegmentLifecycleRace is the -race lifecycle check: readers hold and
// traverse sealed snapshots (and trigger rebuilds) while a writer issues
// invalidating DML. A snapshot captured before an invalidation must stay
// internally consistent — same row count, same values — because sets are
// sealed, and afterwards the goroutine count must return to baseline.
func TestSegmentLifecycleRace(t *testing.T) {
	const nrows = 2000
	db := segFixture(t, nrows)
	buildSet(t, db, nrows)
	baseline := runtime.NumGoroutine()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := db.Read(func(tx *Tx) error {
					set := tx.ColumnSegments("seg", nil)
					if set == nil {
						// Invalidated mid-churn: force a rebuild of the
						// current state, as COMPACT would.
						if _, err := tx.BuildColumnSegments("seg", nil); err != nil {
							return err
						}
						set = tx.ColumnSegments("seg", nil)
					}
					if set == nil {
						return fmt.Errorf("no set after explicit build")
					}
					// Traverse the sealed snapshot end to end; a torn set
					// would fault or disagree with its own row count.
					n := set.Rows()
					var live int
					for i := 0; i < n; i++ {
						if set.Col(4).Valid(i) {
							live++
						}
						_ = set.Col(0).IntAt(i)
						_ = set.Col(3).ValueAt(i)
					}
					if live > n {
						return fmt.Errorf("validity overcount: %d of %d", live, n)
					}
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	for i := 0; i < 60; i++ {
		mustSegWrite(t, db, func(tx *Tx) error {
			_, err := tx.Insert("seg", Row{
				Null, Int(int64(i)), Int(int64(i) * 4_000_000_000),
				Float(float64(i)), Str("ev-new"), Str(fmt.Sprintf("u-%d", i)),
			})
			return err
		})
	}
	close(stop)
	wg.Wait()

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSegmentBuildConcurrentReaders: many readers force-building at once
// must converge on one published set per data version (builders serialize
// on segMu), never a torn or duplicate build racing the atomic publish.
func TestSegmentBuildConcurrentReaders(t *testing.T) {
	const nrows = 800
	db := segFixture(t, nrows)
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := db.Read(func(tx *Tx) error {
				n, err := tx.BuildColumnSegments("seg", nil)
				if err != nil {
					return err
				}
				if n != nrows {
					return fmt.Errorf("build saw %d rows, want %d", n, nrows)
				}
				return nil
			}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}
