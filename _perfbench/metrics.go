package main

import (
	"fmt"
	"os"
	"sort"
	"time"
)

// endToEnd fills the untraced run's metrics.
func (b *bench) endToEnd(m metrics, rec *recorder, setupS float64) {
	m.set("setup_s", "s", setupS)
	// TAU uploads, parse → durable commit: the TAU runs are all the same
	// size. Retention deletes are not ingest, and in mixed they mostly wait
	// for the reader's statements; core.delete_s carries their cost.
	ups := rec.durations(opUpload)
	tauPoints := float64(len(ups) * b.fx.inputs[0].points)
	m.set("ingest_points_per_s", "points/s", ratio(tauPoints, rec.busy(opUpload).Seconds()))
	m.set("upload_p50_ms", "ms", quantile(ups, 0.5))
	m.set("upload_p90_ms", "ms", quantile(ups, 0.9))
	// Reopens fall in two modes some 15 ms apart, in shares that change
	// with the host's load, so the middle half's mean, not the median.
	m.set("reopen_s", "s", midMean(rec.durations(opReopen))/1000)
	m.set("disk_bytes_per_point", "B/point", ratio(float64(b.bytes), float64(b.livePoints())))
	sum := rec.durations(opSummary)
	m.set("summary_p50_ms", "ms", quantile(sum, 0.5))
	m.set("summary_p90_ms", "ms", quantile(sum, 0.9))
	for _, k := range []string{opLoadTrial, opSpeedup, opGroupBy, opCluster, opAdhoc} {
		m.set(k+"_p50_ms", "ms", quantile(rec.durations(k), 0.5))
	}
	m.set("browse_ops_per_s", "ops/s", roundRate(rec))
	m.set("ok_op_frac", "ratio", 1-ratio(float64(rec.failed), float64(rec.attempted)))
	m.set("live_heap_mb", "MB", b.heapMB)
}

// roundRate is the analyst's throughput over whole rounds: a round's op
// count divided by its time built from each kind's mean duration, so a
// round cut short by the deadline does not tilt the mix.
func roundRate(rec *recorder) float64 {
	var ops, secs float64
	for _, k := range analystKinds {
		d := rec.durations(k)
		if len(d) == 0 {
			continue
		}
		var sum time.Duration
		for _, x := range d {
			sum += x
		}
		ops += float64(roundMix[k])
		secs += float64(roundMix[k]) * (sum / time.Duration(len(d))).Seconds()
	}
	return ratio(ops, secs)
}

// livePoints is the profile rows the archive holds at the end.
func (b *bench) livePoints() int {
	n := b.fx.ref.basePoints
	for _, t := range b.up.live {
		n += t.in.points
	}
	return n
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer fills the traced run's metrics. window holds the traced ops;
// calib and tracedMain are the untraced and traced halves of the main
// phase, compared for the tracing overhead; points is what was uploaded
// inside the window.
func (b *bench) perLayer(m metrics, t *traceResult, window, calib, tracedMain *recorder, points int64, all *recorder) {
	lay := newLayerTimes()
	for _, l := range b.retired {
		lay.add(l)
	}
	d := t.delta
	c := func(name string) float64 { return float64(d.Counters[name]) }
	hs := func(name string) float64 { return time.Duration(d.Histograms[name].Sum).Seconds() }
	self := func(name string) float64 { return lay.self[name].Seconds() }
	per := func(name string) float64 { return ratio(float64(lay.stmts[name]), float64(lay.calls[name])) }

	// Statement phases from the engine's spans, leaving out the checker's.
	var parse, plan, exec, mat time.Duration
	stmtSpans := 0
	for _, sp := range t.spans {
		if sp.Root == "check" || (sp.Kind != "exec" && sp.Kind != "query" && sp.Kind != "prepare") {
			continue
		}
		stmtSpans++
		parse += sp.Parse
		if sp.Kind == "exec" {
			// The engine splits only queries into phases: everything after
			// a DML statement's parse is its execution.
			exec += sp.Total - sp.Parse
			continue
		}
		plan += sp.Plan
		exec += sp.Execute
		mat += sp.Materialize
	}
	// reldb time (write-lock wait, WAL append and fsync) of autocommit
	// statements sits inside their Execute phase; move it to reldb.
	reldbAll := time.Duration(d.Histograms["reldb_lock_wait_ns"].Sum + d.Histograms["reldb_wal_append_ns"].Sum)
	reldbInExec := reldbAll - t.conns.txReldb
	if reldbInExec < 0 {
		reldbInExec = 0
	}
	stmtTime := t.conns.exec + t.conns.query + t.conns.prepare
	godbcSelf := stmtTime - (parse + plan + exec + mat)
	execute := exec - reldbInExec
	reldbSelf := t.conns.tx + reldbInExec + lay.self["reldb.close"] + lay.self["reldb.open"]

	m.set("formats.parse_s", "s", self("formats"))
	var parsedBytes int64
	for _, in := range b.fx.inputs {
		parsedBytes += in.bytes
	}
	// Parsed bytes in the window: every input parse the uploader made there.
	mb := float64(parsedBytes) / float64(len(b.fx.inputs)) * float64(lay.calls["formats"]) / (1 << 20)
	m.set("formats.parse_mb_per_s", "MB/s", ratio(mb, self("formats")))

	m.set("core.upload_self_s", "s", self("core.upload"))
	m.set("core.stmts_per_upload", "count", per("core.upload"))
	m.set("core.delete_s", "s", lay.total["core.delete"].Seconds())
	m.set("core.download_self_s", "s", self("core.download"))
	m.set("core.stmts_per_load_trial", "count", per("core.download"))
	m.set("core.api_self_s", "s", self("core.api"))

	m.set("godbc.exec_s", "s", t.conns.exec.Seconds())
	m.set("godbc.exec_calls", "count", float64(t.conns.execCalls))
	m.set("godbc.prepare_s", "s", t.conns.prepare.Seconds())
	m.set("godbc.query_s", "s", t.conns.query.Seconds())
	m.set("godbc.query_calls", "count", float64(t.conns.queryCalls))
	m.set("godbc.rows_scan_s", "s", t.conns.rows.Seconds())
	m.set("godbc.tx_s", "s", t.conns.tx.Seconds())
	m.set("godbc.self_s", "s", godbcSelf.Seconds())

	m.set("sqlparse.parse_s", "s", parse.Seconds())
	m.set("sqlexec.plan_s", "s", plan.Seconds())
	m.set("sqlexec.plan_cache_hit_ratio", "ratio", ratio(c("sqlexec_plan_cache_hits_total"),
		c("sqlexec_plan_cache_hits_total")+c("sqlexec_plan_cache_misses_total")))
	m.set("sqlexec.execute_s", "s", execute.Seconds())
	m.set("sqlexec.materialize_s", "s", mat.Seconds())
	m.set("sqlexec.rows_scanned_per_returned", "ratio", ratio(c("sqlexec_rows_scanned_total"), c("sqlexec_rows_returned_total")))
	m.set("sqlexec.full_scans", "count", c("sqlexec_full_scan_total"))
	m.set("sqlexec.index_accesses", "count", c("sqlexec_index_access_total"))
	m.set("sqlexec.columnar_hit_ratio", "ratio", ratio(c("sqlexec_columnar_scans_total"),
		c("sqlexec_columnar_scans_total")+c("sqlexec_columnar_fallbacks_total")))
	m.set("sqlexec.parallel_aggs", "count", c("sqlexec_parallel_aggs_total"))

	m.set("reldb.wal_append_s", "s", hs("reldb_wal_append_ns")-hs("reldb_wal_fsync_ns"))
	m.set("reldb.wal_fsync_s", "s", hs("reldb_wal_fsync_ns"))
	m.set("reldb.wal_fsyncs", "count", float64(d.Histograms["reldb_wal_fsync_ns"].Count))
	m.set("reldb.wal_bytes_per_point", "B/point", ratio(c("reldb_wal_bytes_total"), float64(points)))
	m.set("reldb.rows_inserted", "count", c("reldb_rows_inserted_total"))
	m.set("reldb.rows_deleted", "count", c("reldb_rows_deleted_total"))
	m.set("reldb.btree_splits", "count", c("reldb_btree_splits_total"))
	m.set("reldb.write_lock_wait_s", "s", hs("reldb_lock_wait_ns"))
	m.set("reldb.checkpoint_s", "s", hs("reldb_checkpoint_ns"))
	m.set("reldb.snapshot_load_s", "s", hs("reldb_snapshot_load_ns"))
	m.set("reldb.wal_replay_ops", "count", c("reldb_wal_replay_ops_total"))
	m.set("reldb.segment_builds", "count", c("reldb_segment_builds_total"))
	m.set("reldb.segment_build_rows", "count", c("reldb_segment_build_rows_total"))
	m.set("reldb.segment_invalidations", "count", c("reldb_segment_invalidations_total"))
	m.set("reldb.self_s", "s", reldbSelf.Seconds())

	m.set("analysis.speedup_self_s", "s", self("analysis"))
	m.set("mining.extract_self_s", "s", self("mining.extract"))
	m.set("mining.kmeans_s", "s", self("mining.kmeans"))

	m.set("go.gc_pause_s", "s", t.gcPause.Seconds())
	m.set("go.alloc_bytes_per_point", "B/point", ratio(float64(t.alloc), float64(points)))

	if b.cfg.workload == "mixed" {
		overlap, late := b.mixedStats(all)
		m.set("mixed.read_overlap_frac", "ratio", overlap)
		m.set("mixed.schedule_lateness_ms", "ms", late)
	}

	// Closure: the layers' self times against the traced ops' wall time.
	var lateness time.Duration
	for _, l := range b.lateness[b.lateSkip:] {
		lateness += l
	}
	wall := window.busy(kindsOf(window)...) - lateness
	layers := []struct {
		name string
		d    time.Duration
	}{
		{"formats", lay.self["formats"]},
		{"core", lay.self["core.upload"] + lay.self["core.delete"] + lay.self["core.download"] + lay.self["core.api"]},
		{"analysis", lay.self["analysis"]},
		{"mining", lay.self["mining.extract"] + lay.self["mining.kmeans"]},
		{"godbc", godbcSelf + t.conns.rows},
		{"sqlparse", parse},
		{"sqlexec", plan + execute + mat},
		{"reldb", reldbSelf},
	}
	var attributed time.Duration
	fmt.Fprintf(os.Stderr, "perfbench: traced window: %d ops, wall %.3fs across clients\n", window.attempted, wall.Seconds())
	for _, l := range layers {
		attributed += l.d
		fmt.Fprintf(os.Stderr, "  %-10s self %8.3fs  %5.1f%%\n", l.name, l.d.Seconds(), 100*ratio(l.d.Seconds(), wall.Seconds()))
	}
	unattr := ratio((wall - attributed).Seconds(), wall.Seconds())
	fmt.Fprintf(os.Stderr, "  %-10s      %8.3fs  %5.1f%%\n", "unattrib.", (wall - attributed).Seconds(), 100*unattr)
	m.set("trace.wall_s", "s", wall.Seconds())
	m.set("trace.unattributed_frac", "ratio", unattr)
	m.set("trace.overhead_frac", "ratio", overhead(calib, tracedMain))
	m.set("trace.spans", "count", float64(stmtSpans))
	m.set("trace.spans_dropped", "count", float64(t.dropped))
	complete := 1.0
	if t.dropped > 0 {
		complete = 0
		fmt.Fprintf(os.Stderr, "perfbench: INCOMPLETE: %d spans dropped; per-layer statement phases undercount\n", t.dropped)
	}
	m.set("trace.complete", "count", complete)
	m.set("failed_op_frac", "ratio", ratio(float64(all.failed), float64(all.attempted)))
	fmt.Fprint(os.Stderr, m.table())
}

// overhead compares the traced half of the main phase with the untraced
// half: per op kind, medians weighted by the traced half's op counts.
func overhead(untraced, traced *recorder) float64 {
	var num, den float64
	for _, k := range kindsOf(traced) {
		a, b := untraced.durations(k), traced.durations(k)
		if len(a) == 0 || len(b) == 0 {
			continue
		}
		num += float64(len(b)) * quantile(b, 0.5)
		den += float64(len(b)) * quantile(a, 0.5)
	}
	return ratio(num, den) - 1
}

// kindsOf lists a recorder's op kinds, sorted.
func kindsOf(r *recorder) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.ops))
	for k := range r.ops {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// mixedStats is the share of analyst ops that overlapped an upload or
// delete, and the uploader's mean schedule lateness in ms.
func (b *bench) mixedStats(all *recorder) (float64, float64) {
	b.up.mu.Lock()
	spans := append([][2]time.Time(nil), b.up.spans...)
	b.up.mu.Unlock()
	all.mu.Lock()
	var n, hit int
	for _, k := range analystKinds {
		for _, s := range all.ops[k] {
			n++
			end := s.start.Add(s.dur)
			for _, sp := range spans {
				if s.start.Before(sp[1]) && sp[0].Before(end) {
					hit++
					break
				}
			}
		}
	}
	all.mu.Unlock()
	var late time.Duration
	for _, l := range b.lateness {
		late += l
	}
	return ratio(float64(hit), float64(n)), ratio(ms(late), float64(len(b.lateness)))
}
