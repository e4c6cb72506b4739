package godbc

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// canonicalDSN re-encodes parsed options with one spelling per value,
// omitting only the options whose absence parses to the same value.
func canonicalDSN(o connOptions, file bool) string {
	b := func(v bool) string {
		if v {
			return "1"
		}
		return "0"
	}
	q := []string{
		"readonly=" + b(o.readonly),
		"columnar=" + b(o.columnar),
	}
	if o.workers != 0 {
		q = append(q, "workers="+strconv.Itoa(o.workers))
	}
	if o.obs.traceSet {
		q = append(q, "trace="+b(o.obs.trace))
	}
	if o.obs.slowSet {
		q = append(q, "slowms="+strconv.FormatInt(int64(o.obs.slow/time.Millisecond), 10))
	}
	scheme := "mem:"
	if file {
		scheme = "file:"
		q = append(q, "sync="+b(o.store.Sync), "checkpoint="+strconv.Itoa(o.store.CheckpointEvery))
	}
	return scheme + o.path + "?" + strings.Join(q, "&")
}

// TestParseDSN pins what each option parses to, including the workers
// normalisation to the executor's value and the defaults of absent keys.
func TestParseDSN(t *testing.T) {
	o, err := parseDSN("db", false)
	if err != nil {
		t.Fatal(err)
	}
	want := connOptions{path: "db", columnar: true}
	if !reflect.DeepEqual(o, want) {
		t.Fatalf("defaults = %+v, want %+v", o, want)
	}
	for _, tc := range []struct {
		rest    string
		workers int
	}{{"db?workers=0", 1}, {"db?workers=1", 1}, {"db?workers=8", 8}} {
		o, err := parseDSN(tc.rest, false)
		if err != nil || o.workers != tc.workers {
			t.Errorf("parseDSN(%q) workers = %d, %v; want %d", tc.rest, o.workers, err, tc.workers)
		}
	}
	o, err = parseDSN("/d?readonly=yes&trace=no&slowms=7&columnar=false&sync=true&checkpoint=9", true)
	if err != nil {
		t.Fatal(err)
	}
	if !o.readonly || !o.obs.traceSet || o.obs.trace || !o.obs.slowSet || o.obs.slow != 7*time.Millisecond ||
		o.columnar || !o.store.Sync || o.store.CheckpointEvery != 9 || o.path != "/d" {
		t.Fatalf("parsed %+v", o)
	}
	for _, bad := range []string{"db?slowms=9223372036855"} {
		if _, err := parseDSN(bad, false); err == nil {
			t.Errorf("parseDSN(%q) accepted", bad)
		}
	}
}

// FuzzOpenDSN opens arbitrary mem: DSNs. Each must open or fail with an
// error, never panic, and a DSN that opens must open again, to the same
// options, under the canonical re-encoding of what it parsed to. The file:
// grammar is checked the same way without touching the filesystem.
func FuzzOpenDSN(f *testing.F) {
	for _, seed := range []string{
		"fz", "fz?", "fz?&", "fz?=1", "fz?trace", "fz?trce=1", "fz?readonly=on",
		"fz?trace=1&slowms=50&readonly=0&workers=0&columnar=no",
		"fz?workers=8&trace=yes&trace=no", "fz?slowms=-1",
		"fz?slowms=1e-3", "fz?workers=NaN", "fz?sync=1&checkpoint=10",
		"fz?workers=+3", "fz?slowms=007", "a?b?c=d",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, rest string) {
		if o, err := parseDSN(rest, true); err == nil {
			dsn := canonicalDSN(o, true)
			o2, err := parseDSN(strings.TrimPrefix(dsn, "file:"), true)
			if err != nil || !reflect.DeepEqual(o, o2) {
				t.Fatalf("file:%s parsed to %+v; canonical %q gives %+v, %v", rest, o, dsn, o2, err)
			}
		}
		c, err := Open("mem:" + rest)
		if err != nil {
			return
		}
		o := c.(*conn).connOptions
		c.Close()
		dsn := canonicalDSN(o, false)
		c2, err := Open(dsn)
		if err != nil {
			t.Fatalf("mem:%s opens but canonical %q fails: %v", rest, dsn, err)
		}
		o2 := c2.(*conn).connOptions
		c2.Close()
		DropMemory(o.path)
		if !reflect.DeepEqual(o, o2) {
			t.Fatalf("mem:%s parsed to %+v; canonical %q to %+v", rest, o, dsn, o2)
		}
	})
}
