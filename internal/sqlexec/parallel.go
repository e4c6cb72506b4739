package sqlexec

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"perfdmf/internal/obs"
	"perfdmf/internal/reldb"
	"perfdmf/internal/sqlparse"
)

// Options tune a single SELECT execution.
type Options struct {
	// Workers caps the number of goroutines the executor may use for
	// partitioned scans and partial aggregation. 0 (the zero value) means
	// DefaultWorkers(); 1 runs every part inline on the calling goroutine.
	Workers int
	// Plan, when non-nil, is a reusable handle that caches the compiled
	// program and the access-path decision across executions of the same
	// statement (see Plan). It must belong to the calling goroutine.
	Plan *Plan
	// Stmt, when non-nil, is the statement's live accounting entry. The
	// executor updates its row/worker counters and polls its cancellation
	// context between row batches, so a KILL unwinds the statement within
	// one scan chunk.
	Stmt *StmtEntry
	// NoColumnar disables the vectorized aggregation path over sealed
	// column segments (columnar.go), forcing row-at-a-time execution. Both
	// paths return bitwise-identical results; this exists for comparison
	// benchmarks and the godbc ?columnar=0 DSN option.
	NoColumnar bool
}

// DefaultWorkers is the worker count used when Options does not set one:
// the scheduler's current parallelism.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

func (o Options) effectiveWorkers() int {
	if o.Workers <= 0 {
		return DefaultWorkers()
	}
	return o.Workers
}

// parallelMinRows is the fan-out threshold: below this many live rows a
// scan runs inline on the calling goroutine, because the fan-out costs
// more than it saves there, so point queries never pay it.
const parallelMinRows = 4096

// aggChunkRows is the fold-chunk size for partial aggregation. Chunk
// boundaries depend only on the input length — never on the worker count —
// so float accumulation order, group discovery order, and therefore the
// exact result bits are identical at every Workers setting. Workers only
// decide how many chunks fold concurrently.
const aggChunkRows = 4096

// partsPerWorker oversplits the scan so the atomic work queue can balance
// partitions whose free-slot density differs.
const partsPerWorker = 4

// QueryOpts is Query with explicit execution options and an optional
// span. Its result may be in either ResultSet form.
func QueryOpts(tx *reldb.Tx, st *sqlparse.Select, params []reldb.Value, sp *obs.Span, opts Options) (*ResultSet, error) {
	q := &query{tx: tx, st: st, params: params, sp: sp, opts: opts}
	return q.run()
}

// runParts runs the parts 0..n-1 of a job on up to workers goroutines and
// is the executor's one worker pool. Parts are claimed in increasing index
// order and each claimed part runs to completion; the pool stops claiming
// at the first error or kill, and every goroutine is reaped before return.
// Because no part after a failing one can be claimed before it, the
// lowest-index error — the first in input order — is the one reported,
// whatever the worker count. worker is the per-worker init hook: it runs
// once on each worker's goroutine and returns that worker's part function.
// One worker runs inline on the calling goroutine.
func runParts(n, workers int, stmt *StmtEntry, worker func() func(part int) error) error {
	if n == 0 {
		return nil
	}
	if workers = min(workers, n); workers <= 1 {
		run := worker()
		for i := 0; i < n; i++ {
			if err := stmt.Err(); err != nil {
				return err
			}
			if err := run(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next atomic.Int64
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	errs := make([]error, n)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run := worker()
			for !stop.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				err := stmt.Err()
				if err == nil {
					err = run(i)
				}
				if err != nil {
					errs[i] = err
					stop.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// fanOut records that this execution runs workers goroutines at once: the
// span's parallel(n) annotation and the statement's live worker count.
func (q *query) fanOut(workers int) {
	if q.par < workers {
		q.par = workers
	}
	if stmt := q.opts.Stmt; stmt != nil {
		stmt.workers.Store(int32(workers))
	}
}

// scanFilter collects the base table's live rows in slot order, applying
// where when it is non-nil. With workers>1 the slot array is split into
// partitions that workers scan and filter concurrently into their own
// buffers; buffers are concatenated in partition order, so the result is
// byte-identical at every worker count. One worker scans the whole table
// inline as a single partition.
func (q *query) scanFilter(table string, where *program, workers int) ([]reldb.Row, error) {
	type part struct {
		rows    []reldb.Row
		kept    []reldb.Row
		visited int64
	}
	nparts := 1
	if workers > 1 {
		nparts = workers * partsPerWorker
	}
	var parts []*part
	q.tx.ScanPartitioned(table, nparts, func(_, _ int, rows []reldb.Row) { //nolint:errcheck // table verified by compile
		parts = append(parts, &part{rows: rows})
	})
	if workers > len(parts) {
		workers = len(parts)
	}
	if workers > 1 {
		mParallelScans.Inc()
		mScanPartitions.Add(int64(len(parts)))
		q.fanOut(workers)
	}
	stmt := q.opts.Stmt
	err := runParts(len(parts), workers, stmt, func() func(int) error {
		f := q.frame(workers > 1)
		return func(i int) error {
			p := parts[i]
			for _, row := range p.rows {
				if row == nil {
					continue
				}
				p.visited++
				if p.visited%cancelCheckRows == 0 {
					if err := stmt.Err(); err != nil {
						return err
					}
					if stmt != nil {
						stmt.rowsScanned.Add(cancelCheckRows)
					}
				}
				if where != nil {
					f.row = row
					v, err := where.eval(f)
					if err != nil {
						return err
					}
					if !truthy(v) {
						continue
					}
				}
				p.kept = append(p.kept, row)
			}
			return nil
		}
	})
	if err != nil {
		return nil, err
	}
	total := 0
	for _, p := range parts {
		total += len(p.kept)
		q.scanned += p.visited
	}
	if len(parts) == 1 && total > 0 {
		return parts[0].kept, nil
	}
	// Empty or not, the result is a non-nil slice at every worker count:
	// a reference-form ResultSet holds it as is.
	out := make([]reldb.Row, 0, total)
	for _, p := range parts {
		out = append(out, p.kept...)
	}
	return out, nil
}

// aggPartial is the mergeable state of one aggregate over a subset of a
// group's rows: everything COUNT/SUM/AVG/MIN/MAX/STDDEV need. A DISTINCT
// aggregate collects its values in dist instead and folds them only in
// finish. The DISTINCT state sits behind a pointer because the fold
// kernels stride over partials row by row, and every byte added here
// slows them.
type aggPartial struct {
	count   int64
	sum     float64
	sumSq   float64
	min, mx reldb.Value
	allInt  bool
	dist    *distinctVals // non-nil only for DISTINCT aggregates
}

// distinctVals is a DISTINCT aggregate's distinct non-NULL values in
// first-occurrence order, so finish computes bitwise one left fold over
// them. keys[i] is vals[i]'s keyOf key, and seen holds every key.
type distinctVals struct {
	seen map[string]struct{}
	vals []reldb.Value
	keys []string
}

// newPartials returns fresh partial states for aggs, in order.
func newPartials(aggs []aggCall) []aggPartial {
	return initPartials(make([]aggPartial, len(aggs)), aggs)
}

// initPartials readies zeroed partial states for aggs, in order.
func initPartials(parts []aggPartial, aggs []aggCall) []aggPartial {
	for i, a := range aggs {
		parts[i].allInt = true
		if a.distinct {
			parts[i].dist = &distinctVals{seen: make(map[string]struct{})}
		}
	}
	return parts
}

func (p *aggPartial) observe(v reldb.Value) {
	if p.dist != nil {
		p.dist.add(v, keyOf([]reldb.Value{v}))
		return
	}
	p.count++
	f := v.AsFloat()
	p.sum += f
	p.sumSq += f * f
	if v.T != reldb.TInt {
		p.allInt = false
	}
	if p.min.IsNull() || reldb.Compare(v, p.min) < 0 {
		p.min = v
	}
	if p.mx.IsNull() || reldb.Compare(v, p.mx) > 0 {
		p.mx = v
	}
}

func (d *distinctVals) add(v reldb.Value, k string) {
	if _, dup := d.seen[k]; dup {
		return
	}
	d.seen[k] = struct{}{}
	d.vals = append(d.vals, v)
	d.keys = append(d.keys, k)
}

// merge folds a later chunk's partial into p.
func (p *aggPartial) merge(o *aggPartial) {
	if p.dist != nil {
		for i, k := range o.dist.keys {
			p.dist.add(o.dist.vals[i], k)
		}
		return
	}
	p.count += o.count
	p.sum += o.sum
	p.sumSq += o.sumSq
	p.allInt = p.allInt && o.allInt
	if !o.min.IsNull() && (p.min.IsNull() || reldb.Compare(o.min, p.min) < 0) {
		p.min = o.min
	}
	if !o.mx.IsNull() && (p.mx.IsNull() || reldb.Compare(o.mx, p.mx) > 0) {
		p.mx = o.mx
	}
}

// finish turns the merged state into the aggregate's value.
func (p *aggPartial) finish(name string) reldb.Value {
	if p.dist != nil {
		f := aggPartial{allInt: true}
		for _, v := range p.dist.vals {
			f.observe(v)
		}
		return f.finish(name)
	}
	switch name {
	case "COUNT":
		return reldb.Int(p.count)
	case "SUM":
		if p.count == 0 {
			return reldb.Null
		}
		if p.allInt {
			return reldb.Int(int64(p.sum))
		}
		return reldb.Float(p.sum)
	case "AVG":
		if p.count == 0 {
			return reldb.Null
		}
		return reldb.Float(p.sum / float64(p.count))
	case "MIN":
		return p.min
	case "MAX":
		return p.mx
	case "STDDEV":
		// Population standard deviation, matching the common DBMS default.
		if p.count == 0 {
			return reldb.Null
		}
		n := float64(p.count)
		variance := p.sumSq/n - (p.sum/n)*(p.sum/n)
		if variance < 0 {
			variance = 0 // guard against rounding
		}
		return reldb.Float(math.Sqrt(variance))
	}
	return reldb.Null
}

// chunkGroup is one group's partial state within (or merged across) chunks.
type chunkGroup struct {
	key   string
	first reldb.Row // first row of the group in input order
	parts []aggPartial
}

// groupAlloc carves chunk groups and their partial states from blocks of
// groupBlockRows groups. A fold's groups are garbage once finalizeGroups
// has read them, so release hands the blocks back for the next fold
// instead of to the collector: a GROUP BY then allocates little, and pays
// little GC assist work, whatever GC phase it runs in. A groupAlloc
// belongs to one goroutine.
type groupAlloc struct {
	aggs   []aggCall
	blocks []*groupBlock // every block carved from, for release
	groups []chunkGroup
	parts  []aggPartial
}

type groupBlock struct {
	groups []chunkGroup
	parts  []aggPartial
}

const groupBlockRows = 64

// freeGroupBlocks holds up to maxFreeGroupBlocks released blocks, cleared,
// for the next fold, which takes the most recently released first. It is
// a bounded free list rather than a sync.Pool: a collection empties a
// pool, so the first GROUP BY after each one would allocate its group
// state anew, and its cost would depend on when the collector last ran.
// A block keeps partial states for at most maxFreeBlockAggs aggregates.
var freeGroupBlocks struct {
	sync.Mutex
	blocks []*groupBlock
}

const (
	maxFreeGroupBlocks = 64
	maxFreeBlockAggs   = 8
)

// group returns a new group with the given key and first row.
func (a *groupAlloc) group(key string, first reldb.Row) *chunkGroup {
	n := len(a.aggs)
	if len(a.groups) == 0 {
		var b *groupBlock
		free := &freeGroupBlocks
		free.Lock()
		if k := len(free.blocks); k > 0 {
			b = free.blocks[k-1]
			free.blocks = free.blocks[:k-1]
		}
		free.Unlock()
		if b == nil {
			b = &groupBlock{groups: make([]chunkGroup, groupBlockRows)}
		}
		if cap(b.parts) < groupBlockRows*n {
			b.parts = make([]aggPartial, groupBlockRows*n)
		}
		a.blocks = append(a.blocks, b)
		a.groups, a.parts = b.groups, b.parts[:groupBlockRows*n]
	}
	g := &a.groups[0]
	g.key, g.first, g.parts = key, first, initPartials(a.parts[:n:n], a.aggs)
	a.groups, a.parts = a.groups[1:], a.parts[n:]
	return g
}

// release clears every block the groups were carved from and returns it
// to the free list while that has room. No group may be used afterwards.
func (a *groupAlloc) release() {
	for _, b := range a.blocks {
		clear(b.groups)
		if cap(b.parts) > groupBlockRows*maxFreeBlockAggs {
			b.parts = nil
		}
		clear(b.parts[:cap(b.parts)])
	}
	free := &freeGroupBlocks
	free.Lock()
	keep := min(len(a.blocks), maxFreeGroupBlocks-len(free.blocks))
	free.blocks = append(free.blocks, a.blocks[:keep]...)
	free.Unlock()
	a.blocks, a.groups, a.parts = nil, nil, nil
}

// aggChunk is the fold result of one fixed-size input chunk.
type aggChunk struct {
	groups map[string]*chunkGroup // by key, while the row path folds the chunk
	order  []*chunkGroup          // discovery order within the chunk
}

// chunkFolder folds rows one at a time into fixed-size chunks of
// per-group partial states: its input rows [k*aggChunkRows,
// (k+1)*aggChunkRows) form chunk k, the chunking foldGroups uses, so
// merging its chunks in order gives the same result bits.
type chunkFolder struct {
	q      *query
	f      *frame
	reused bool // rows arrive in one reused buffer: copy a group's first row
	chunks []*aggChunk
	n      int           // rows folded into the last chunk
	kv     []reldb.Value // the row's GROUP BY values
	key    []byte        // their keyOf key
	alloc  *groupAlloc
}

func (q *query) newFolder(f *frame, reused bool, alloc *groupAlloc) *chunkFolder {
	return &chunkFolder{q: q, f: f, reused: reused, kv: make([]reldb.Value, len(q.prog.groupBy)), alloc: alloc}
}

// add folds one row into the last chunk, starting a new chunk when it is
// full.
func (cf *chunkFolder) add(row reldb.Row) error {
	c := cf.q.prog
	if len(cf.chunks) == 0 || cf.n == aggChunkRows {
		cf.chunks = append(cf.chunks, &aggChunk{groups: make(map[string]*chunkGroup)})
		cf.n = 0
	}
	ck := cf.chunks[len(cf.chunks)-1]
	cf.n++
	cf.f.row = row
	if len(c.groupBy) > 0 {
		if err := evalAll(cf.kv, c.groupBy, cf.f); err != nil {
			return err
		}
		cf.key = appendKey(cf.key[:0], cf.kv)
	}
	g := ck.groups[string(cf.key)]
	if g == nil {
		first := row
		if cf.reused {
			first = append(reldb.Row(nil), row...)
		}
		g = cf.alloc.group(string(cf.key), first)
		ck.groups[g.key] = g
		ck.order = append(ck.order, g)
	}
	for i, a := range c.aggs {
		if a.star {
			g.parts[i].count++
			continue
		}
		v, err := a.arg.eval(cf.f)
		if err != nil {
			return err
		}
		if v.IsNull() {
			continue
		}
		g.parts[i].observe(v)
	}
	return nil
}

// foldChunk folds one chunk of at most aggChunkRows input rows into
// per-group partial states of its own.
func (cf *chunkFolder) foldChunk(rows []reldb.Row) (*aggChunk, error) {
	stmt := cf.q.opts.Stmt
	cf.chunks, cf.n = cf.chunks[:0], 0
	for n, row := range rows {
		// Poll cancellation inside the fold too: once every chunk has been
		// claimed, the pool's claim-time check can no longer observe a
		// kill, so in-flight folds must notice it themselves.
		if n%cancelCheckRows == cancelCheckRows-1 {
			if err := stmt.Err(); err != nil {
				return nil, err
			}
		}
		if err := cf.add(row); err != nil {
			return nil, err
		}
	}
	return cf.chunks[0], nil
}

// aggregate groups rows and evaluates the aggregate items per group (see
// foldGroups).
func (q *query) aggregate(rows []reldb.Row) ([][]reldb.Value, [][]reldb.Value, error) {
	workers := q.opts.effectiveWorkers()
	if workers > 1 && len(rows) > aggChunkRows {
		mParallelAggs.Inc()
	}
	return q.foldGroups(len(rows), workers, func(parallel bool, alloc *groupAlloc) func(lo, hi int) (*aggChunk, error) {
		cf := q.newFolder(q.frame(parallel), false, alloc)
		return func(lo, hi int) (*aggChunk, error) { return cf.foldChunk(rows[lo:hi]) }
	})
}

// foldGroups is the one grouping pipeline behind the row and columnar
// paths. The n input rows are split into fixed-size chunks, chunks are
// folded (concurrently when there are several and workers>1) into
// per-group partial states, and partials are merged single-threaded in
// chunk order, then finalized. worker runs once per worker goroutine, told
// whether others run beside it and given the allocator its groups come
// from, and returns its chunk fold.
func (q *query) foldGroups(n, workers int, worker func(parallel bool, alloc *groupAlloc) func(lo, hi int) (*aggChunk, error)) ([][]reldb.Value, [][]reldb.Value, error) {
	chunks := make([]*aggChunk, (n+aggChunkRows-1)/aggChunkRows)
	if workers = min(workers, len(chunks)); workers > 1 {
		q.fanOut(workers)
	}
	var mu sync.Mutex
	var allocs []*groupAlloc
	defer func() {
		for _, a := range allocs {
			a.release()
		}
	}()
	err := runParts(len(chunks), workers, q.opts.Stmt, func() func(int) error {
		alloc := &groupAlloc{aggs: q.prog.aggs}
		mu.Lock()
		allocs = append(allocs, alloc)
		mu.Unlock()
		fold := worker(workers > 1, alloc)
		return func(i int) error {
			lo := i * aggChunkRows
			var err error
			chunks[i], err = fold(lo, min(lo+aggChunkRows, n))
			return err
		}
	})
	if err != nil {
		return nil, nil, err
	}
	return q.finalizeGroups(mergeChunks(chunks))
}

// mergeChunks merges per-chunk group partials in chunk order: group
// discovery order and each group's first row match the input order, and
// float partials accumulate in a fixed order regardless of worker count.
func mergeChunks(chunks []*aggChunk) []*chunkGroup {
	merged := make(map[string]*chunkGroup)
	var order []*chunkGroup
	for _, ck := range chunks {
		for _, g := range ck.order {
			m := merged[g.key]
			if m == nil {
				merged[g.key] = g
				order = append(order, g)
				continue
			}
			for i := range m.parts {
				m.parts[i].merge(&g.parts[i])
			}
		}
	}
	return order
}

// finalizeGroups evaluates HAVING, the output items and the ORDER BY keys
// per merged group, with each group's first input row as the non-aggregate
// environment. Without GROUP BY there is always exactly one group: over
// zero input rows it is the global group with an all-NULL row.
func (q *query) finalizeGroups(order []*chunkGroup) ([][]reldb.Value, [][]reldb.Value, error) {
	c := q.prog
	if len(c.groupBy) == 0 && len(order) == 0 {
		order = []*chunkGroup{{first: make(reldb.Row, c.width), parts: newPartials(c.aggs)}}
	}
	f := q.frame(false)
	f.aggs = make([]reldb.Value, len(c.aggs))
	recs, keys := newRecords(len(order), len(c.items)), newRecords(len(order), len(c.order))
	n := 0
	for _, g := range order {
		for i, a := range c.aggs {
			f.aggs[i] = g.parts[i].finish(a.name)
		}
		f.row = g.first
		if c.having != nil {
			v, err := c.having.eval(f)
			if err != nil {
				return nil, nil, err
			}
			if !truthy(v) {
				continue
			}
		}
		if err := evalAll(recs[n], c.items, f); err != nil {
			return nil, nil, err
		}
		if keys != nil {
			if err := evalAll(keys[n], c.order, f); err != nil {
				return nil, nil, err
			}
		}
		n++
	}
	if keys != nil {
		keys = keys[:n]
	}
	return recs[:n], keys, nil
}
