package sqlexec

import (
	"fmt"
	"strings"

	"perfdmf/internal/reldb"
	"perfdmf/internal/sqlparse"
)

// StatsTable is the stored catalog table ANALYZE maintains: one row per
// (table, column) holding the table's analyzed row count and the column's
// NDV, null accounting and min/max. OBS_TABLE_STATS is the read surface;
// the cost-based planner consumes the same rows.
const StatsTable = "PERFDMF_TABLE_STATS"

// Column positions in StatsTable, in schema order.
const (
	statTableName = iota
	statColumnName
	statRowCount
	statNDV
	statNullCount
	statNullFrac
	statMinValue
	statMaxValue
	statSchemaSig
	statAnalyzedAt
)

// statsSchema is the StatsTable layout; ensureStatsTable creates it on the
// first ANALYZE in a database.
func statsSchema() *reldb.Schema {
	return &reldb.Schema{
		Name: StatsTable,
		Columns: []reldb.Column{
			{Name: "table_name", Type: reldb.TString, NotNull: true},
			{Name: "column_name", Type: reldb.TString, NotNull: true},
			{Name: "row_count", Type: reldb.TInt},
			{Name: "ndv", Type: reldb.TInt},
			{Name: "null_count", Type: reldb.TInt},
			{Name: "null_frac", Type: reldb.TFloat},
			{Name: "min_value", Type: reldb.TString},
			{Name: "max_value", Type: reldb.TString},
			{Name: "schema_sig", Type: reldb.TString},
			{Name: "analyzed_at", Type: reldb.TTime},
		},
	}
}

func ensureStatsTable(tx *reldb.Tx) error {
	if tx.HasTable(StatsTable) {
		return nil
	}
	return tx.CreateTable(statsSchema())
}

// execAnalyze runs ANALYZE [table]: it scans the named table (or every
// user table) with the partitioned scan, folds per-column row count / NDV /
// null / min-max statistics, and replaces the table's rows in StatsTable.
// RowsAffected counts the statistics rows written.
func execAnalyze(tx *reldb.Tx, st *sqlparse.Analyze, opts Options) (Result, error) {
	mCatalogAnalyze.Inc()
	var tables []string
	if st.Table != "" {
		if strings.EqualFold(st.Table, StatsTable) {
			return Result{}, fmt.Errorf("sqlexec: cannot ANALYZE %s", StatsTable)
		}
		if !tx.HasTable(st.Table) {
			return Result{}, fmt.Errorf("sqlexec: no table %s", st.Table)
		}
		tables = []string{st.Table}
	} else {
		for _, t := range tx.TableNames() {
			if strings.EqualFold(t, StatsTable) {
				continue
			}
			tables = append(tables, t)
		}
	}
	if err := ensureStatsTable(tx); err != nil {
		return Result{}, err
	}
	var res Result
	for _, t := range tables {
		if err := opts.Stmt.Err(); err != nil {
			return Result{}, err
		}
		n, err := analyzeTable(tx, t, opts)
		if err != nil {
			return Result{}, err
		}
		res.RowsAffected += n
	}
	return res, nil
}

// colStats is one column's mergeable partial state over a row subset.
type colStats struct {
	nulls    int64
	distinct map[string]struct{}
	min, max reldb.Value
}

func (c *colStats) observe(v reldb.Value) {
	if v.IsNull() {
		c.nulls++
		return
	}
	c.distinct[keyOf([]reldb.Value{v})] = struct{}{}
	if c.min.IsNull() || reldb.Compare(v, c.min) < 0 {
		c.min = v
	}
	if c.max.IsNull() || reldb.Compare(v, c.max) > 0 {
		c.max = v
	}
}

func (c *colStats) merge(o *colStats) {
	c.nulls += o.nulls
	for k := range o.distinct {
		c.distinct[k] = struct{}{}
	}
	if !o.min.IsNull() && (c.min.IsNull() || reldb.Compare(o.min, c.min) < 0) {
		c.min = o.min
	}
	if !o.max.IsNull() && (c.max.IsNull() || reldb.Compare(o.max, c.max) > 0) {
		c.max = o.max
	}
}

func newColStats(n int) []colStats {
	out := make([]colStats, n)
	for i := range out {
		out[i].distinct = make(map[string]struct{})
	}
	return out
}

// analyzeTable computes and persists one table's statistics, returning the
// number of statistics rows written (one per column). The scan reuses the
// executor's partitioned layout and worker pool: partitions fold into
// per-partition partials, which merge in partition order.
func analyzeTable(tx *reldb.Tx, table string, opts Options) (int64, error) {
	tbl, err := tx.Table(table)
	if err != nil {
		return 0, err
	}
	schema := tbl.Schema()
	ncols := len(schema.Columns)
	stmt := opts.Stmt

	type part struct {
		rows  []reldb.Row
		stats []colStats
		count int64
	}
	var parts []*part
	workers := opts.effectiveWorkers()
	tx.ScanPartitioned(table, workers*partsPerWorker, func(_, _ int, rows []reldb.Row) { //nolint:errcheck // table verified above
		parts = append(parts, &part{rows: rows})
	})
	workers = min(workers, len(parts))
	if workers > 1 && stmt != nil {
		stmt.workers.Store(int32(workers))
	}
	err = runParts(len(parts), workers, stmt, func() func(int) error {
		return func(i int) error {
			p := parts[i]
			var err error
			p.stats, p.count, err = foldStatsPart(p.rows, ncols, stmt)
			return err
		}
	})
	if err != nil {
		return 0, err
	}

	merged := newColStats(ncols)
	var rowCount int64
	for _, p := range parts {
		rowCount += p.count
		for c := range merged {
			merged[c].merge(&p.stats[c])
		}
	}

	if err := replaceStatsRows(tx, table, schema, rowCount, merged); err != nil {
		return 0, err
	}
	return int64(ncols), nil
}

// foldStatsPart folds one partition's rows into fresh per-column partials,
// checking for cancellation between row batches.
func foldStatsPart(rows []reldb.Row, ncols int, stmt *StmtEntry) ([]colStats, int64, error) {
	cs := newColStats(ncols)
	var n int64
	for _, row := range rows {
		if row == nil {
			continue
		}
		n++
		if n%cancelCheckRows == 0 {
			if err := stmt.Err(); err != nil {
				return nil, 0, err
			}
			if stmt != nil {
				stmt.rowsScanned.Add(cancelCheckRows)
			}
		}
		for c := 0; c < ncols && c < len(row); c++ {
			cs[c].observe(row[c])
		}
	}
	return cs, n, nil
}

// schemaSig fingerprints a table's shape so staleness survives process
// restarts — reldb schema versions are process-local counters and reset on
// reopen, while the stats table is durable. Any column rename, type change,
// nullability change, or primary-key change alters the signature.
func schemaSig(schema *reldb.Schema) string {
	var b strings.Builder
	for i, c := range schema.Columns {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strings.ToLower(c.Name))
		b.WriteByte(':')
		b.WriteString(c.Type.String())
		if c.NotNull {
			b.WriteString(":nn")
		}
	}
	if schema.PrimaryKey != "" {
		b.WriteString("|pk:")
		b.WriteString(strings.ToLower(schema.PrimaryKey))
	}
	return b.String()
}

// replaceStatsRows swaps the table's rows in StatsTable: delete the stale
// generation, insert the fresh one, all inside the caller's transaction.
func replaceStatsRows(tx *reldb.Tx, table string, schema *reldb.Schema, rowCount int64, stats []colStats) error {
	var stale []int
	//lint:allow ctxpoll -- stats-table scan is bounded by analyzed column count, not user rows
	tx.Scan(StatsTable, func(slot int, r reldb.Row) bool { //nolint:errcheck // created by ensureStatsTable
		if strings.EqualFold(r[statTableName].AsString(), table) {
			stale = append(stale, slot)
		}
		return true
	})
	for _, slot := range stale {
		if err := tx.Delete(StatsTable, slot); err != nil {
			return err
		}
	}
	sig := schemaSig(schema)
	at := reldb.Time(now())
	for i, col := range schema.Columns {
		cs := &stats[i]
		nullFrac := 0.0
		if rowCount > 0 {
			nullFrac = float64(cs.nulls) / float64(rowCount)
		}
		minV, maxV := reldb.Null, reldb.Null
		if !cs.min.IsNull() {
			minV = reldb.Str(cs.min.AsString())
		}
		if !cs.max.IsNull() {
			maxV = reldb.Str(cs.max.AsString())
		}
		row := reldb.Row{
			reldb.Str(schema.Name), reldb.Str(col.Name),
			reldb.Int(rowCount), reldb.Int(int64(len(cs.distinct))), reldb.Int(cs.nulls),
			reldb.Float(nullFrac), minV, maxV,
			reldb.Str(sig), at,
		}
		if _, err := tx.Insert(StatsTable, row); err != nil {
			return err
		}
	}
	return nil
}
