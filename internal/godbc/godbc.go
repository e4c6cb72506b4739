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
// The file DSN accepts options: file:/path/to/dir?sync=1&checkpoint=50000.
// Both drivers accept readonly=1, which rejects every mutating statement
// on that connection — the access-authorization hook the paper sketches
// for shared repositories (§5.1: "a simple matter to implement access
// authorization to enforce different policies for performance data
// security and sharing").
//
// Both drivers also accept per-connection observability overrides,
// ?trace=1&slowms=50: trace records every statement on the connection into
// the obs tracer, slowms sets the connection's slow-query threshold in
// milliseconds (0 silences a globally-configured threshold). Unset options
// defer to the global obs configuration (PERFDMF_TRACE / PERFDMF_SLOW_MS).
//
// The ?workers=N option caps the parallelism of SELECT execution on the
// connection: N>1 allows up to N worker goroutines for partitioned scans
// and partial aggregation, N=0 (or 1) forces serial execution, and leaving
// the option unset defers to the executor's default (GOMAXPROCS). Like the
// observability options, malformed values fail Open.
//
// The ?telemetrybudget=PCT option sets the self-telemetry overhead budget
// (percent) that StartTelemetry's sampling governor enforces when no
// explicit budget is passed; ordinary connections validate and ignore it.
package godbc

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

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

// Rows is a cursor over a query result. It is fully materialized; Close
// releases the buffered result set, after which the cursor is exhausted
// (Next reports false). Closing twice is safe.
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

// parseDSNOptions splits "path?k=v&k2=v2" into the path and option map.
func parseDSNOptions(rest string) (string, map[string]string, error) {
	path, query, _ := strings.Cut(rest, "?")
	opts := make(map[string]string)
	if query == "" {
		return path, opts, nil
	}
	for _, kv := range strings.Split(query, "&") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok || k == "" {
			return "", nil, fmt.Errorf("godbc: malformed DSN option %q", kv)
		}
		opts[k] = v
	}
	return path, opts, nil
}

// checkOptions rejects DSN option keys the driver does not recognize. A
// misspelled observability option (?trce=1) silently doing nothing is worse
// than an error: the operator believes tracing is on when it is not.
func checkOptions(opts map[string]string, known ...string) error {
	for k := range opts {
		recognized := false
		for _, want := range known {
			if k == want {
				recognized = true
				break
			}
		}
		if !recognized {
			sort.Strings(known)
			return fmt.Errorf("godbc: unknown DSN option %q (known options: %s)",
				k, strings.Join(known, ", "))
		}
	}
	return nil
}

func optInt(opts map[string]string, key string, def int) (int, error) {
	s, ok := opts[key]
	if !ok {
		return def, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("godbc: option %s=%q is not an integer", key, s)
	}
	return n, nil
}

func optBool(opts map[string]string, key string) bool {
	v := opts[key]
	return v == "1" || v == "true" || v == "yes"
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
	name, opts, err := parseDSNOptions(rest)
	if err != nil {
		return nil, err
	}
	if err := checkOptions(opts, "readonly", "trace", "slowms", "workers", "columnar", "telemetrybudget"); err != nil {
		return nil, err
	}
	oo, err := parseObsOptions(opts)
	if err != nil {
		return nil, err
	}
	workers, err := parseWorkersOption(opts)
	if err != nil {
		return nil, err
	}
	columnar, err := parseColumnarOption(opts)
	if err != nil {
		return nil, err
	}
	if _, _, err := parseTelemetryBudgetOption(opts); err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	db := d.dbs[name]
	if db == nil {
		db = reldb.NewMemory()
		d.dbs[name] = db
	}
	c := newConn(db, nil)
	c.readonly = optBool(opts, "readonly")
	c.obs = oo
	c.workers = workers
	c.columnar = columnar
	return c, nil
}

// fileDriver serves durable databases rooted at a directory. Connections to
// the same directory share one engine instance and are reference counted.
type fileDriver struct {
	mu   sync.Mutex
	open map[string]*fileEntry
}

type fileEntry struct {
	db   *reldb.DB
	refs int
}

func (d *fileDriver) Open(rest string) (Conn, error) {
	path, opts, err := parseDSNOptions(rest)
	if err != nil {
		return nil, err
	}
	if path == "" {
		return nil, fmt.Errorf("godbc: file DSN needs a directory path")
	}
	if err := checkOptions(opts, "readonly", "sync", "checkpoint", "trace", "slowms", "workers", "columnar", "telemetrybudget"); err != nil {
		return nil, err
	}
	oo, err := parseObsOptions(opts)
	if err != nil {
		return nil, err
	}
	workers, err := parseWorkersOption(opts)
	if err != nil {
		return nil, err
	}
	columnar, err := parseColumnarOption(opts)
	if err != nil {
		return nil, err
	}
	if _, _, err := parseTelemetryBudgetOption(opts); err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	entry := d.open[path]
	if entry == nil {
		chk, err := optInt(opts, "checkpoint", 0)
		if err != nil {
			return nil, err
		}
		db, err := reldb.Open(path, reldb.Options{
			Sync:            optBool(opts, "sync"),
			CheckpointEvery: chk,
		})
		if err != nil {
			return nil, err
		}
		entry = &fileEntry{db: db}
		d.open[path] = entry
	}
	entry.refs++
	readonly := optBool(opts, "readonly")
	release := func() error {
		d.mu.Lock()
		defer d.mu.Unlock()
		entry.refs--
		if entry.refs == 0 {
			delete(d.open, path)
			if err := entry.db.Checkpoint(); err != nil {
				entry.db.Close()
				return err
			}
			return entry.db.Close()
		}
		return nil
	}
	c := newConn(entry.db, release)
	c.readonly = readonly
	c.obs = oo
	c.workers = workers
	c.columnar = columnar
	return c, nil
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
