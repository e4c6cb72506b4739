package godbc

import (
	"sync"

	"perfdmf/internal/sqlexec"
	"perfdmf/internal/sqlparse"
)

// stmtCacheMax bounds the per-connection statement cache. PerfDMF workloads
// cycle through a small, fixed statement vocabulary (the upload loop and
// the analysis queries), so a modest FIFO is plenty and keeps a connection
// that streams ad-hoc SQL from holding every statement it ever saw.
const stmtCacheMax = 256

// cacheEntry is one cached statement: the parsed AST, plus — for SELECTs —
// a reusable executor plan that caches the compiled program and the
// access-path decision, keyed by the schema version of every table the
// statement binds. The AST is never mutated by execution, so sharing it
// across executions (and with prepared statements) is safe.
type cacheEntry struct {
	st   sqlparse.Statement
	plan *sqlexec.Plan // non-nil only for SELECT statements
}

// stmtCache maps SQL text to parsed statements for one connection. A conn
// serves a single goroutine (JDBC's Connection contract), but the
// introspection catalog snapshots caches from other goroutines, so the map
// and its hit/miss accounting are mutex-guarded. The cached entries (and
// their Plan handles) remain owned by the connection goroutine — snapshot
// reads only the cache-level counters, never entry internals.
type stmtCache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
	fifo    []string // insertion order, for eviction
	hits    int64
	misses  int64
}

func newStmtCache() *stmtCache {
	return &stmtCache{entries: make(map[string]*cacheEntry)}
}

// lookup returns the cached entry for sql (nil on miss) and counts the
// outcome in the cache's own hit/miss tallies.
func (sc *stmtCache) lookup(sql string) *cacheEntry {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	e := sc.entries[sql]
	if e != nil {
		sc.hits++
	} else {
		sc.misses++
	}
	return e
}

func (sc *stmtCache) store(sql string, e *cacheEntry) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if _, ok := sc.entries[sql]; ok {
		sc.entries[sql] = e
		return
	}
	if len(sc.fifo) >= stmtCacheMax {
		evict := sc.fifo[0]
		sc.fifo = sc.fifo[1:]
		delete(sc.entries, evict)
	}
	sc.entries[sql] = e
	sc.fifo = append(sc.fifo, sql)
}

// snapshot reports the cache's size and hit/miss counters for
// OBS_PLAN_CACHE. Safe to call from any goroutine.
func (sc *stmtCache) snapshot() (entries int, hits, misses int64) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return len(sc.entries), sc.hits, sc.misses
}

// columnarHits sums the cached SELECT plans' columnar-execution counters
// for OBS_PLAN_CACHE.columnar_hits. Plan.Columnar is atomic, so reading it
// from a snapshotting goroutine while the connection executes is safe; the
// map itself is guarded by the cache mutex as usual.
func (sc *stmtCache) columnarHits() int64 {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	var n int64
	for _, e := range sc.entries {
		if e.plan != nil {
			n += e.plan.Columnar.Load()
		}
	}
	return n
}

// parseCached returns the cached parse of query, parsing and caching on
// miss. Every statement that reaches Exec/Query/Prepare with the same text
// skips the lexer and parser after the first time; the attached plan
// additionally skips expression compilation and the executor's access-path
// search while the schema versions hold (see sqlexec.Plan).
func (c *conn) parseCached(query string) (*cacheEntry, error) {
	e := c.cache.lookup(query)
	if !c.quiet {
		sqlexec.CountPlanCache(e != nil)
	}
	if e != nil {
		return e, nil
	}
	st, err := sqlparse.Parse(query)
	if err != nil {
		return nil, err
	}
	e = &cacheEntry{st: st}
	if sel, ok := st.(*sqlparse.Select); ok {
		e.plan = sqlexec.NewPlan(sel)
	}
	c.cache.store(query, e)
	return e, nil
}
