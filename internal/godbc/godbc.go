// Package godbc is PerfDMF's database connectivity layer — the role JDBC
// plays in the paper. Analysis code opens a connection by DSN, executes
// vendor-neutral SQL through Exec/Query with ? parameters, and inspects the
// live schema through MetaData (the getMetaData() mechanism the paper's
// flexible APPLICATION/EXPERIMENT/TRIAL schema depends on).
//
// Two drivers are registered by default, standing in for the paper's four
// supported DBMSes:
//
//	mem:<name>            a named, shared in-memory database
//	file:<directory>      a durable database (snapshot + WAL) in a directory
//
// Options follow a "?" as k=v pairs joined by "&", as in
// file:/path/to/dir?sync=1&checkpoint=50000. They are parsed strictly: an
// unknown key or a malformed value fails Open. A boolean is 1, true or yes,
// or 0, false or no.
//
//	key              driver  value          default
//	readonly         both    boolean        0
//	trace            both    boolean        global setting
//	slowms           both    integer >= 0   global setting
//	workers          both    integer >= 0   GOMAXPROCS
//	columnar         both    boolean        1
//	sync             file    boolean        0
//	checkpoint       file    integer >= 0   0 (never)
//
// readonly=1 rejects every mutating statement on the connection — the
// access-authorization hook the paper sketches for shared repositories
// (§5.1). trace records every statement into the obs tracer, and slowms is
// the slow-query threshold in milliseconds (0 silences a global one);
// unset, both defer to the obs configuration (PERFDMF_TRACE and
// PERFDMF_SLOW_MS).
// workers caps the goroutines a SELECT may use (0 and 1 run serially);
// columnar=0 forces the row path. sync=1 fsyncs every commit, and
// checkpoint=N rewrites the snapshot every N logged operations.
package godbc

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"perfdmf/internal/reldb"
)

// Driver creates connections for one DSN scheme.
type Driver interface {
	// Open opens a connection to the database identified by the DSN's
	// opaque part (everything after "scheme:").
	Open(rest string) (Conn, error)
}

// ColumnInfo describes one column, as reported by MetaData.
type ColumnInfo struct {
	Name          string
	Type          string // SQL type name: BIGINT, DOUBLE, VARCHAR, ...
	NotNull       bool
	PrimaryKey    bool
	AutoIncrement bool
	Default       any
}

// IndexInfo describes one secondary index.
type IndexInfo struct {
	Name   string
	Column string
	Kind   string // HASH or BTREE
	Unique bool
}

// MetaData exposes the live schema of a connected database.
type MetaData interface {
	// Tables lists table names in sorted order.
	Tables() ([]string, error)
	// Columns lists the columns of a table in declaration order.
	Columns(table string) ([]ColumnInfo, error)
	// Indexes lists the secondary indexes of a table.
	Indexes(table string) ([]IndexInfo, error)
}

// Result reports the effect of an Exec.
type Result struct {
	RowsAffected int64
	LastInsertID int64
}

// Rows is a cursor over a query result. It holds no lock or transaction
// between Next calls: the statement's rows are fixed when Query returns,
// and writers on other connections neither wait for the cursor nor change
// what it reads. Close releases the result, after which the cursor is
// exhausted (Next reports false). Closing twice is safe.
type Rows interface {
	// Columns returns the result column names.
	Columns() []string
	// Next advances to the next row, reporting false at the end.
	Next() bool
	// Scan copies the current row into dest pointers (*int, *int64,
	// *float64, *string, *bool, *time.Time, *[]byte or *any).
	Scan(dest ...any) error
	// Value returns the raw value of column i in the current row.
	Value(i int) any
	// Err returns the first error encountered while iterating.
	Err() error
	// Close releases the cursor.
	Close() error
}

// Stmt is a prepared statement: parsed once, executed many times. PerfDMF's
// bulk trial upload depends on this being cheap.
type Stmt interface {
	Exec(args ...any) (Result, error)
	Query(args ...any) (Rows, error)
	Close() error
}

// Conn is a database connection.
type Conn interface {
	// Exec runs a DDL/DML statement (or BEGIN/COMMIT/ROLLBACK).
	Exec(query string, args ...any) (Result, error)
	// Query runs a SELECT.
	Query(query string, args ...any) (Rows, error)
	// Prepare parses a statement for repeated execution.
	Prepare(query string) (Stmt, error)
	// Begin starts an explicit transaction on this connection.
	Begin() error
	// Commit commits the open transaction.
	Commit() error
	// Rollback aborts the open transaction.
	Rollback() error
	// MetaData returns the schema inspection interface.
	MetaData() MetaData
	// Close releases the connection.
	Close() error
}

var (
	driversMu sync.RWMutex
	drivers   = make(map[string]Driver)
)

// Register makes a driver available under a scheme name. It panics when the
// scheme is already taken, matching database/sql convention.
func Register(scheme string, d Driver) {
	driversMu.Lock()
	defer driversMu.Unlock()
	if _, dup := drivers[scheme]; dup {
		panic("godbc: Register called twice for driver " + scheme)
	}
	drivers[scheme] = d
}

// Drivers returns the registered scheme names, sorted.
func Drivers() []string {
	driversMu.RLock()
	defer driversMu.RUnlock()
	out := make([]string, 0, len(drivers))
	for k := range drivers {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Open opens a connection given a DSN of the form "scheme:rest".
func Open(dsn string) (Conn, error) {
	scheme, rest, ok := strings.Cut(dsn, ":")
	if !ok {
		return nil, fmt.Errorf("godbc: malformed DSN %q (want scheme:rest)", dsn)
	}
	driversMu.RLock()
	d := drivers[scheme]
	driversMu.RUnlock()
	if d == nil {
		return nil, fmt.Errorf("godbc: unknown driver %q (registered: %s)",
			scheme, strings.Join(Drivers(), ", "))
	}
	return d.Open(rest)
}

// connOptions is one parsed DSN: the path and every option value, already
// in the form the connection uses. parseDSN is the only code that reads
// DSN option text.
type connOptions struct {
	path     string
	readonly bool    // reject all mutating statements
	obs      obsOpts // per-connection trace/slow-query overrides
	workers  int     // sqlexec.Options.Workers: 0 = GOMAXPROCS, 1 = serial
	// columnar enables the vectorized aggregation path (default on). Off
	// forces row-at-a-time execution for comparison runs.
	columnar bool
	store    reldb.Options // ?sync and ?checkpoint (file: only)
}

// dsnOption is one DSN key. set stores a value and reports whether it is
// well formed; a fileOnly key is unknown to the mem: driver.
type dsnOption struct {
	key      string
	fileOnly bool
	want     string // the grammar, for the error message
	set      func(o *connOptions, v string) bool
}

// dsnOptions is the whole DSN grammar, sorted by key.
var dsnOptions = []dsnOption{
	{"checkpoint", true, "a non-negative integer", func(o *connOptions, v string) (ok bool) {
		o.store.CheckpointEvery, ok = dsnInt(v, math.MaxInt64)
		return ok
	}},
	{"columnar", false, "a boolean", func(o *connOptions, v string) (ok bool) {
		o.columnar, ok = dsnBool(v)
		return ok
	}},
	{"readonly", false, "a boolean", func(o *connOptions, v string) (ok bool) {
		o.readonly, ok = dsnBool(v)
		return ok
	}},
	{"slowms", false, "a non-negative integer", func(o *connOptions, v string) bool {
		ms, ok := dsnInt(v, int64(math.MaxInt64/time.Millisecond))
		o.obs.slowSet, o.obs.slow = true, time.Duration(ms)*time.Millisecond
		return ok
	}},
	{"sync", true, "a boolean", func(o *connOptions, v string) (ok bool) {
		o.store.Sync, ok = dsnBool(v)
		return ok
	}},
	{"trace", false, "a boolean", func(o *connOptions, v string) (ok bool) {
		o.obs.traceSet = true
		o.obs.trace, ok = dsnBool(v)
		return ok
	}},
	{"workers", false, "a non-negative integer", func(o *connOptions, v string) bool {
		n, ok := dsnInt(v, math.MaxInt64)
		o.workers = max(n, 1) // ?workers=0 runs serially, as 1 does
		return ok
	}},
}

func dsnBool(v string) (b, ok bool) {
	switch v {
	case "1", "true", "yes":
		return true, true
	case "0", "false", "no":
		return false, true
	}
	return false, false
}

func dsnInt(v string, limit int64) (int, bool) {
	n, err := strconv.ParseInt(v, 10, 0)
	return int(n), err == nil && n >= 0 && n <= limit
}

// parseDSN parses what follows "scheme:" in a DSN, path?k=v&k2=v2, for the
// file: driver when file is set and for mem: otherwise. Unlike the lenient
// global env knobs, DSN options are spelled by the user right now, so an
// unknown key or a malformed value fails with the list of known keys: a
// misspelled ?trce=1 that silently did nothing would leave the operator
// believing tracing is on.
func parseDSN(rest string, file bool) (connOptions, error) {
	path, query, _ := strings.Cut(rest, "?")
	o := connOptions{path: path, columnar: true}
	if file && path == "" {
		return o, fmt.Errorf("godbc: file DSN needs a directory path")
	}
	if query == "" {
		return o, nil
	}
	fail := func(format string, args ...any) (connOptions, error) {
		var known []string
		for _, d := range dsnOptions {
			if file || !d.fileOnly {
				known = append(known, d.key)
			}
		}
		return o, fmt.Errorf("godbc: "+format+" (known options: %s)", append(args, strings.Join(known, ", "))...)
	}
	for _, kv := range strings.Split(query, "&") {
		k, v, ok := strings.Cut(kv, "=")
		i := slices.IndexFunc(dsnOptions, func(d dsnOption) bool { return d.key == k && (file || !d.fileOnly) })
		switch {
		case !ok || k == "":
			return fail("malformed DSN option %q", kv)
		case i < 0:
			return fail("unknown DSN option %q", k)
		case !dsnOptions[i].set(&o, v):
			return fail("option %s=%q is not %s", k, v, dsnOptions[i].want)
		}
	}
	return o, nil
}

// --- built-in drivers ---

// memDriver serves named, shared in-memory databases: two connections with
// the same name see the same data, which is how the PerfExplorer server and
// its tests share an archive without a daemon.
type memDriver struct {
	mu  sync.Mutex
	dbs map[string]*reldb.DB
}

func (d *memDriver) Open(rest string) (Conn, error) {
	o, err := parseDSN(rest, false)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	db := d.dbs[o.path]
	if db == nil {
		db = reldb.NewMemory()
		d.dbs[o.path] = db
	}
	return newConn(db, o, nil), nil
}

// fileDriver serves durable databases rooted at a directory. Connections to
// the same directory share one engine instance and are reference counted;
// the first connection's sync and checkpoint options configure it.
type fileDriver struct {
	mu   sync.Mutex
	open map[string]*fileEntry
}

type fileEntry struct {
	db   *reldb.DB
	refs int
}

func (d *fileDriver) Open(rest string) (Conn, error) {
	o, err := parseDSN(rest, true)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	entry := d.open[o.path]
	if entry == nil {
		db, err := reldb.Open(o.path, o.store)
		if err != nil {
			return nil, err
		}
		entry = &fileEntry{db: db}
		d.open[o.path] = entry
	}
	entry.refs++
	release := func() error {
		d.mu.Lock()
		defer d.mu.Unlock()
		entry.refs--
		if entry.refs == 0 {
			delete(d.open, o.path)
			if err := entry.db.Checkpoint(); err != nil {
				entry.db.Close()
				return err
			}
			return entry.db.Close()
		}
		return nil
	}
	return newConn(entry.db, o, release), nil
}

var memDrv = &memDriver{dbs: make(map[string]*reldb.DB)}

// DropMemory detaches the named in-memory database from the mem: driver:
// the next Open of the same name starts empty, and once every open
// connection is closed the old engine becomes garbage. Without it a mem:
// archive lives for the rest of the process — benchmarks that open a fresh
// archive per repetition use DropMemory so dead archives stop inflating
// the heap (and with it, allocator and GC cost) of later repetitions.
func DropMemory(name string) {
	memDrv.mu.Lock()
	defer memDrv.mu.Unlock()
	delete(memDrv.dbs, name)
}

func init() {
	Register("mem", memDrv)
	Register("file", &fileDriver{open: make(map[string]*fileEntry)})
}
