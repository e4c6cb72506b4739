package sqlexec

import (
	"sort"
	"strings"

	"perfdmf/internal/obs"
	"perfdmf/internal/reldb"
	"perfdmf/internal/sqlparse"
)

// The introspection catalog: read-only virtual tables, addressable from any
// SELECT, that snapshot engine state at bind time. They are materialized
// like derived tables — never stored, never writable, invisible to DDL —
// so joins, filters, aggregates and ORDER BY all work over them unchanged.
const (
	// CatalogMetrics snapshots the process metric registry.
	CatalogMetrics = "OBS_METRICS"
	// CatalogActiveStatements lists every statement currently executing.
	CatalogActiveStatements = "OBS_ACTIVE_STATEMENTS"
	// CatalogTableStats joins ANALYZE's persisted statistics with live
	// table state and a staleness verdict.
	CatalogTableStats = "OBS_TABLE_STATS"
	// CatalogMetricsHistory exposes the in-memory metric history ring: one
	// row per metric that moved in each scrape, delta-encoded like the
	// persisted PERFDMF_METRICS_HISTORY table the scrape loop mirrors into.
	CatalogMetricsHistory = "OBS_METRICS_HISTORY"
	// CatalogAlerts lists alert episodes from the persisted alerts table,
	// open and resolved, sorted by episode id.
	CatalogAlerts = "OBS_ALERTS"
)

// AlertsBackingTable is the stored table OBS_ALERTS projects. It is defined
// here (not in godbc, which owns its DDL) so the catalog can read episode
// rows without a layering inversion.
const AlertsBackingTable = "PERFDMF_ALERTS"

// catalogDef is one virtual table: its column names and a snapshot
// function producing the rows.
type catalogDef struct {
	cols []string
	rows func(tx *reldb.Tx) ([]reldb.Row, error)
}

// catalogs maps upper-cased virtual table names to their definitions: the
// executor's own tables below, plus those layers above it add with
// RegisterCatalog.
var catalogs = map[string]*catalogDef{
	CatalogMetrics: {
		cols: []string{"name", "kind", "value", "count", "sum", "p50", "p95", "p99"},
		rows: obsMetricsRows,
	},
	CatalogActiveStatements: {
		cols: []string{"statement_id", "sql", "kind", "phase", "elapsed_us",
			"rows_scanned", "rows_returned", "workers", "killed"},
		rows: obsActiveStatementsRows,
	},
	CatalogTableStats: {
		cols: []string{"table_name", "column_name", "row_count", "ndv", "null_frac",
			"min_value", "max_value", "live_rows", "stale", "analyzed_at"},
		rows: obsTableStatsRows,
	},
	CatalogMetricsHistory: {
		cols: []string{"at", "elapsed_us", "name", "kind", "value",
			"delta_count", "delta_sum", "p50", "p95", "p99"},
		rows: obsMetricsHistoryRows,
	},
	CatalogAlerts: {
		cols: alertsCols,
		rows: obsAlertsRows,
	},
}

// alertsCols mirrors the PERFDMF_ALERTS schema; obsAlertsRows projects the
// stored rows through this order whatever the table's physical layout.
var alertsCols = []string{"alert_id", "rule_id", "rule_name", "metric", "severity",
	"state", "value", "threshold", "detail", "pending_at", "firing_at", "resolved_at"}

// RegisterCatalog adds a virtual table to the catalog: name (matched
// case-insensitively), its column names, and the function that snapshots
// its rows at bind time, inside the querying transaction. Layers above the
// executor use it for state the executor cannot see, such as godbc's
// per-connection plan caches and its telemetry pipeline; every row must
// have len(cols) values. Call it from an init function: the catalog is read
// without locking, and a name registered twice panics.
func RegisterCatalog(name string, cols []string, rows func(tx *reldb.Tx) ([]reldb.Row, error)) {
	name = strings.ToUpper(name)
	if catalogs[name] != nil {
		panic("sqlexec: RegisterCatalog called twice for " + name)
	}
	catalogs[name] = &catalogDef{cols: cols, rows: rows}
}

// catalogTable resolves a FROM-clause name to a virtual table definition,
// nil for ordinary tables. Catalog names are reserved: they shadow any
// stored table of the same name.
func catalogTable(name string) *catalogDef {
	return catalogs[strings.ToUpper(name)]
}

// virtualRef reports whether a table reference addresses a virtual catalog
// table (and therefore binds to materialized rows, not storage).
func virtualRef(tr sqlparse.TableRef) bool {
	return tr.Sub == nil && catalogTable(tr.Table) != nil
}

// obsMetricsRows snapshots obs.Default. Counters and gauges fill the value
// column; histograms fill count/sum and the quantile columns instead.
func obsMetricsRows(*reldb.Tx) ([]reldb.Row, error) {
	s := obs.Default.Snapshot()
	type rec struct {
		name, kind string
		row        reldb.Row
	}
	recs := make([]rec, 0, len(s.Counters)+len(s.Gauges)+len(s.Histograms))
	scalar := func(name, kind string, v int64) {
		recs = append(recs, rec{name, kind, reldb.Row{
			reldb.Str(name), reldb.Str(kind), reldb.Float(float64(v)),
			reldb.Null, reldb.Null, reldb.Null, reldb.Null, reldb.Null,
		}})
	}
	counterNames := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		counterNames = append(counterNames, name)
	}
	sort.Strings(counterNames)
	for _, name := range counterNames {
		scalar(name, "counter", s.Counters[name])
	}
	gaugeNames := make([]string, 0, len(s.Gauges))
	for name := range s.Gauges {
		gaugeNames = append(gaugeNames, name)
	}
	sort.Strings(gaugeNames)
	for _, name := range gaugeNames {
		scalar(name, "gauge", s.Gauges[name])
	}
	histNames := make([]string, 0, len(s.Histograms))
	for name := range s.Histograms {
		histNames = append(histNames, name)
	}
	sort.Strings(histNames)
	for _, name := range histNames {
		h := s.Histograms[name]
		recs = append(recs, rec{name, "histogram", reldb.Row{
			reldb.Str(name), reldb.Str("histogram"), reldb.Null,
			reldb.Int(h.Count), reldb.Int(h.Sum),
			reldb.Int(h.P50), reldb.Int(h.P95), reldb.Int(h.P99),
		}})
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].name != recs[j].name {
			return recs[i].name < recs[j].name
		}
		return recs[i].kind < recs[j].kind
	})
	rows := make([]reldb.Row, len(recs))
	for i, r := range recs {
		rows[i] = r.row
	}
	return rows, nil
}

// obsActiveStatementsRows snapshots the statement registry, sorted by id.
// The querying statement itself appears in the result — it is, after all,
// active — unless its connection keeps it out of the registry (godbc's
// quiet monitoring connections do).
func obsActiveStatementsRows(*reldb.Tx) ([]reldb.Row, error) {
	infos := Statements.Snapshot()
	rows := make([]reldb.Row, len(infos))
	for i, s := range infos {
		rows[i] = reldb.Row{
			reldb.Int(s.ID), reldb.Str(s.SQL), reldb.Str(s.Kind), reldb.Str(s.Phase),
			reldb.Int(s.ElapsedUS), reldb.Int(s.RowsScanned), reldb.Int(s.RowsReturned),
			reldb.Int(int64(s.Workers)), reldb.Bool(s.Killed),
		}
	}
	return rows, nil
}

// obsMetricsHistoryRows flattens the process-wide history ring: every
// sample's points, oldest sample first, in the sample's (sorted) point
// order. Counters and gauges fill value; histograms fill the delta and
// quantile columns instead — the same shape godbc persists.
func obsMetricsHistoryRows(*reldb.Tx) ([]reldb.Row, error) {
	samples := obs.DefaultHistory.Samples()
	var rows []reldb.Row
	for _, s := range samples {
		at := reldb.Time(s.At)
		elapsed := reldb.Int(s.Elapsed.Microseconds())
		for _, p := range s.Points {
			row := reldb.Row{at, elapsed, reldb.Str(p.Name), reldb.Str(p.Kind)}
			if p.Kind == "histogram" {
				row = append(row, reldb.Null,
					reldb.Int(p.DeltaCount), reldb.Int(p.DeltaSum),
					reldb.Int(p.P50), reldb.Int(p.P95), reldb.Int(p.P99))
			} else {
				row = append(row, reldb.Float(p.Value),
					reldb.Null, reldb.Null, reldb.Null, reldb.Null, reldb.Null)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// obsAlertsRows reads the persisted PERFDMF_ALERTS episodes inside the
// querying transaction, resolving columns by name so the projection
// survives schema drift, sorted by episode id. No alerts table (alerting
// never enabled on this database) means no rows, not an error.
func obsAlertsRows(tx *reldb.Tx) ([]reldb.Row, error) {
	if !tx.HasTable(AlertsBackingTable) {
		return nil, nil
	}
	tbl, err := tx.Table(AlertsBackingTable)
	if err != nil {
		return nil, nil
	}
	idx := make(map[string]int)
	for i, c := range tbl.Schema().Columns {
		idx[strings.ToLower(c.Name)] = i
	}
	pick := func(r reldb.Row, name string) reldb.Value {
		if i, ok := idx[name]; ok && i < len(r) {
			return r[i]
		}
		return reldb.Null
	}
	var rows []reldb.Row
	//lint:allow ctxpoll -- alerts scan is bounded by episode retention, not user rows
	tx.Scan(AlertsBackingTable, func(_ int, r reldb.Row) bool { //nolint:errcheck // existence checked above
		out := make(reldb.Row, 0, len(alertsCols))
		for _, col := range alertsCols {
			out = append(out, pick(r, col))
		}
		rows = append(rows, out)
		return true
	})
	sort.Slice(rows, func(i, j int) bool { return rows[i][0].AsInt() < rows[j][0].AsInt() })
	return rows, nil
}

// obsTableStatsRows reads PERFDMF_TABLE_STATS inside the querying
// transaction and annotates each row with the table's live row count and a
// staleness verdict: stale when the table has been dropped, its schema
// fingerprint changed, or its live row count drifted from the analyzed
// count. The fingerprint (not the in-process schema version) makes the
// verdict survive process restarts against a file-backed archive.
func obsTableStatsRows(tx *reldb.Tx) ([]reldb.Row, error) {
	if !tx.HasTable(StatsTable) {
		return nil, nil
	}
	var rows []reldb.Row
	//lint:allow ctxpoll -- stats-table scan is bounded by analyzed column count, not user rows
	tx.Scan(StatsTable, func(_ int, r reldb.Row) bool { //nolint:errcheck // existence checked above
		name := r[statTableName].AsString()
		liveRows := reldb.Null
		stale := true
		if tbl, err := tx.Table(name); err == nil {
			live := int64(tbl.Len())
			liveRows = reldb.Int(live)
			stale = schemaSig(tbl.Schema()) != r[statSchemaSig].AsString() ||
				live != r[statRowCount].AsInt()
		}
		rows = append(rows, reldb.Row{
			r[statTableName], r[statColumnName], r[statRowCount], r[statNDV],
			r[statNullFrac], r[statMinValue], r[statMaxValue],
			liveRows, reldb.Bool(stale), r[statAnalyzedAt],
		})
		return true
	})
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a[0].S != b[0].S {
			return a[0].S < b[0].S
		}
		return a[1].S < b[1].S
	})
	return rows, nil
}
