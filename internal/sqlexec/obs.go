package sqlexec

import "perfdmf/internal/obs"

// Executor-level metrics, resolved once. Access-path counters move on every
// base-table access decision; the row counters track scanned (fetched and
// examined) vs. returned (surviving projection and LIMIT) rows, the ratio
// that tells whether indexes are doing their job. The parallel counters
// report how often the partitioned scan and chunked aggregation paths
// engage, and the plan-cache counters how often statement execution skipped
// the parser (hits are recorded by godbc's per-connection statement cache;
// reuse/invalidation by the executor's access-path memo).
var (
	mIndexAccess  = obs.Default.Counter("sqlexec_index_access_total")
	mFullScan     = obs.Default.Counter("sqlexec_full_scan_total")
	mRowsScanned  = obs.Default.Counter("sqlexec_rows_scanned_total")
	mRowsReturned = obs.Default.Counter("sqlexec_rows_returned_total")

	mParallelScans  = obs.Default.Counter("sqlexec_parallel_scans_total")
	mParallelAggs   = obs.Default.Counter("sqlexec_parallel_aggs_total")
	mScanPartitions = obs.Default.Counter("sqlexec_scan_partitions_total")

	mColumnarScans       = obs.Default.Counter("sqlexec_columnar_scans_total")
	mColumnarRowsScanned = obs.Default.Counter("sqlexec_columnar_rows_scanned_total")
	mColumnarFallbacks   = obs.Default.Counter("sqlexec_columnar_fallbacks_total")

	mPlanCacheHits     = obs.Default.Counter("sqlexec_plan_cache_hits_total")
	mPlanCacheMisses   = obs.Default.Counter("sqlexec_plan_cache_misses_total")
	mPlanInvalidations = obs.Default.Counter("sqlexec_plan_cache_invalidations_total")
	mAccessPlanReuse   = obs.Default.Counter("sqlexec_access_plan_reuse_total")

	mStmtStarted = obs.Default.Counter("sqlexec_stmt_started_total")
	mStmtKilled  = obs.Default.Counter("sqlexec_stmt_killed_total")
	mStmtActive  = obs.Default.Gauge("sqlexec_stmt_active")

	mCatalogQueries = obs.Default.Counter("obs_catalog_queries_total")
	mCatalogAnalyze = obs.Default.Counter("obs_catalog_analyze_total")
)

// CountPlanCache records one prepared-plan cache lookup: a hit served the
// statement without touching the parser, a miss had to parse it. The
// counters live here rather than in godbc so every layer reporting on the
// plan cache shares one metric family.
func CountPlanCache(hit bool) {
	if hit {
		mPlanCacheHits.Inc()
	} else {
		mPlanCacheMisses.Inc()
	}
}
