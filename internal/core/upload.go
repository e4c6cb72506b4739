package core

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"perfdmf/internal/godbc"
	"perfdmf/internal/model"
	"perfdmf/internal/obs"
)

// UploadOptions tunes the trial upload path.
type UploadOptions struct {
	// TrialName overrides the profile's own name.
	TrialName string
	// BatchSize is the number of rows per bulk INSERT statement (default
	// 64). 1 disables batching — the ablation in DESIGN.md measures the
	// difference.
	BatchSize int
	// Date stamps the trial row; zero means time.Now().
	Date time.Time
}

// defaultBatchSize is the number of rows per profile-table INSERT when
// UploadOptions sets none, and for derived metrics.
const defaultBatchSize = 64

// ilpColumns is the column list of INTERVAL_LOCATION_PROFILE in insert
// order.
var ilpColumns = []string{
	"interval_event", "node", "context", "thread", "metric",
	"inclusive_percentage", "inclusive", "exclusive_percentage", "exclusive",
	"inclusive_per_call", "call", "subroutines",
}

// summaryColumns is the column list of the two summary tables.
var summaryColumns = []string{
	"interval_event", "metric",
	"inclusive_percentage", "inclusive", "exclusive_percentage", "exclusive",
	"inclusive_per_call", "call", "subroutines",
}

var alpColumns = []string{
	"atomic_event", "node", "context", "thread",
	"sample_count", "maximum_value", "minimum_value", "mean_value", "standard_deviation",
}

// batchInserter issues multi-row INSERTs of a fixed batch size and writes
// the remainder as one INSERT sized to it. The full-batch statement is
// prepared once — the upload path is the hottest code in PerfDMF.
type batchInserter struct {
	conn     godbc.Conn
	table    string
	cols     []string
	batch    godbc.Stmt
	buffered []any
}

func newBatchInserter(conn godbc.Conn, table string, cols []string, batchSize int) (*batchInserter, error) {
	batch, err := conn.Prepare(insertSQL(table, cols, batchSize))
	if err != nil {
		return nil, err
	}
	// A full batch fills the buffer's capacity.
	return &batchInserter{conn: conn, table: table, cols: cols, batch: batch,
		buffered: make([]any, 0, batchSize*len(cols))}, nil
}

// add buffers one row, writing a full batch.
func (bi *batchInserter) add(vals ...any) error {
	if len(vals) != len(bi.cols) {
		return fmt.Errorf("core: batch inserter got %d values, want %d", len(vals), len(bi.cols))
	}
	bi.buffered = append(bi.buffered, vals...)
	if len(bi.buffered) < cap(bi.buffered) {
		return nil
	}
	if _, err := bi.batch.Exec(bi.buffered...); err != nil {
		return err
	}
	mUploadBatch.Observe(int64(len(bi.buffered) / len(bi.cols)))
	bi.buffered = bi.buffered[:0]
	return nil
}

// flush writes the buffered remainder, if any, as one INSERT.
func (bi *batchInserter) flush() error {
	if len(bi.buffered) == 0 {
		return nil
	}
	n := len(bi.buffered) / len(bi.cols)
	if _, err := bi.conn.Exec(insertSQL(bi.table, bi.cols, n), bi.buffered...); err != nil {
		return err
	}
	mUploadBatch.Observe(int64(n))
	bi.buffered = bi.buffered[:0]
	return nil
}

func (bi *batchInserter) close() { bi.batch.Close() }

// UploadTrial stores a parsed profile as a new trial under the selected
// experiment: the trial row, metric and event catalogs, every
// INTERVAL_LOCATION_PROFILE and ATOMIC_LOCATION_PROFILE row, and the total
// and mean summary tables. The whole upload is one transaction.
func (s *DataSession) UploadTrial(p *model.Profile, opts UploadOptions) (*Trial, error) {
	return s.UploadTrialCtx(context.Background(), p, opts)
}

// UploadTrialCtx is UploadTrial with span-tree propagation: the upload
// becomes one "upload" span (a child of whatever span ctx carries), its
// phases — catalogs, interval rows, summaries, atomic events — become
// children, and every statement the session connection issues inside them
// becomes a leaf. Per-trial throughput lands in core_upload_rows_per_sec.
func (s *DataSession) UploadTrialCtx(ctx context.Context, p *model.Profile, opts UploadOptions) (*Trial, error) {
	if s.exp == nil {
		return nil, fmt.Errorf("core: select an experiment before uploading a trial")
	}
	if opts.BatchSize <= 0 {
		opts.BatchSize = defaultBatchSize
	}
	name := opts.TrialName
	if name == "" {
		name = p.Name
	}
	date := opts.Date
	if date.IsZero() {
		date = time.Now().UTC()
	}

	uctx, sp := obs.StartSpan(ctx, "upload", "upload:"+name)
	if sp != nil {
		s.BindSpanContext(uctx)
		defer s.BindSpanContext(ctx)
	}
	start := time.Now()

	trial, err := func() (*Trial, error) {
		if err := s.conn.Begin(); err != nil {
			return nil, err
		}
		trial, err := s.uploadTrialTx(uctx, p, opts, name, date)
		if err != nil {
			s.conn.Rollback() //nolint:errcheck // surfacing the original error
			return nil, err
		}
		if err := s.conn.Commit(); err != nil {
			return nil, err
		}
		return trial, nil
	}()

	if err != nil {
		mUploadErrors.Inc()
		sp.Finish(err)
		return nil, err
	}
	rows := int64(p.DataPoints())
	mUploadTrials.Inc()
	mUploadRows.Add(rows)
	if sp != nil {
		sp.RowsReturned = rows
		elapsed := time.Since(start)
		mUploadNS.Observe(int64(elapsed))
		if secs := elapsed.Seconds(); secs > 0 {
			mUploadRowRate.Set(int64(float64(rows) / secs))
		}
	}
	sp.Finish(nil)
	return trial, nil
}

func (s *DataSession) uploadTrialTx(ctx context.Context, p *model.Profile, opts UploadOptions, name string, date time.Time) (*Trial, error) {
	res, err := s.conn.Exec(`INSERT INTO trial
		(experiment, name, date, node_count, contexts_per_node, max_threads_per_context, metadata)
		VALUES (?, ?, ?, ?, ?, ?, ?)`,
		s.exp.ID, name, date,
		p.NodeCount(), p.ContextsPerNode(), p.MaxThreadsPerContext(), encodeMeta(p.Meta))
	if err != nil {
		return nil, err
	}
	trialID := res.LastInsertID

	// Metric and event catalogs, keeping model-ID → database-ID maps.
	metricIDs := make([]int64, len(p.Metrics()))
	eventIDs := make([]int64, len(p.IntervalEvents()))
	err = s.phase(ctx, "upload:catalogs", func() error {
		insMetric, err := s.conn.Prepare("INSERT INTO metric (trial, name, derived) VALUES (?, ?, ?)")
		if err != nil {
			return err
		}
		defer insMetric.Close()
		for _, m := range p.Metrics() {
			r, err := insMetric.Exec(trialID, m.Name, m.Derived)
			if err != nil {
				return err
			}
			metricIDs[m.ID] = r.LastInsertID
		}

		insEvent, err := s.conn.Prepare("INSERT INTO interval_event (trial, name, group_name) VALUES (?, ?, ?)")
		if err != nil {
			return err
		}
		defer insEvent.Close()
		for _, e := range p.IntervalEvents() {
			r, err := insEvent.Exec(trialID, e.Name, e.Group)
			if err != nil {
				return err
			}
			eventIDs[e.ID] = r.LastInsertID
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	metrics := make([]int, len(metricIDs))
	for m := range metrics {
		metrics[m] = m
	}
	if err := s.phase(ctx, "upload:rows", func() error {
		return s.uploadIntervalRows(p, opts.BatchSize, metrics, metricIDs, eventIDs)
	}); err != nil {
		return nil, err
	}
	if err := s.phase(ctx, "upload:summaries", func() error {
		return s.uploadSummaries(p, metrics, metricIDs, eventIDs)
	}); err != nil {
		return nil, err
	}

	// Atomic events.
	if len(p.AtomicEvents()) > 0 {
		if err := s.phase(ctx, "upload:atomic", func() error {
			return s.uploadAtomicEvents(p, opts, trialID)
		}); err != nil {
			return nil, err
		}
	}

	trial := &Trial{
		ID:           trialID,
		ExperimentID: s.exp.ID,
		Name:         name,
		Fields: map[string]any{
			"date":                    date,
			"node_count":              int64(p.NodeCount()),
			"contexts_per_node":       int64(p.ContextsPerNode()),
			"max_threads_per_context": int64(p.MaxThreadsPerContext()),
		},
	}
	return trial, nil
}

// pctScale holds, for each metric written, the denominators of the
// percentage columns over one thread or one summary: the largest inclusive
// and the total exclusive value.
type pctScale struct{ maxIncl, totalExcl []float64 }

// reset starts a new thread or summary of n metrics.
func (ps *pctScale) reset(n int) {
	if cap(ps.maxIncl) < n {
		ps.maxIncl, ps.totalExcl = make([]float64, n), make([]float64, n)
	}
	ps.maxIncl, ps.totalExcl = ps.maxIncl[:n], ps.totalExcl[:n]
	clear(ps.maxIncl)
	clear(ps.totalExcl)
}

// add accumulates one event's values of the given model metrics.
func (ps *pctScale) add(d *model.IntervalData, metrics []int) {
	for i, m := range metrics {
		ps.totalExcl[i] += d.PerMetric[m].Exclusive
		if d.PerMetric[m].Inclusive > ps.maxIncl[i] {
			ps.maxIncl[i] = d.PerMetric[m].Inclusive
		}
	}
}

// pct returns the inclusive and exclusive percentages of md, a value of
// the i-th metric written.
func (ps *pctScale) pct(i int, md model.MetricData) (inclPct, exclPct float64) {
	if ps.maxIncl[i] > 0 {
		inclPct = 100 * md.Inclusive / ps.maxIncl[i]
	}
	if ps.totalExcl[i] > 0 {
		exclPct = 100 * md.Exclusive / ps.totalExcl[i]
	}
	return inclPct, exclPct
}

// uploadIntervalRows writes the INTERVAL_LOCATION_PROFILE rows — the bulk
// of any upload — of the given model metrics, stored under metricIDs (one
// database id per entry of metrics), in thread, event, metric order.
func (s *DataSession) uploadIntervalRows(p *model.Profile, batchSize int, metrics []int, metricIDs, eventIDs []int64) error {
	ilp, err := newBatchInserter(s.conn, "interval_location_profile", ilpColumns, batchSize)
	if err != nil {
		return err
	}
	defer ilp.close()
	var scale pctScale
	for _, th := range p.Threads() {
		// Per-thread denominators for the percentage columns.
		scale.reset(len(metrics))
		th.EachInterval(func(_ int, d *model.IntervalData) { scale.add(d, metrics) })
		var addErr error
		th.EachInterval(func(eid int, d *model.IntervalData) {
			for i, m := range metrics {
				if addErr != nil {
					return
				}
				md := d.PerMetric[m]
				inclPct, exclPct := scale.pct(i, md)
				addErr = ilp.add(
					eventIDs[eid], th.ID.Node, th.ID.Context, th.ID.Thread, metricIDs[i],
					inclPct, md.Inclusive, exclPct, md.Exclusive,
					d.InclusivePerCall(m), d.NumCalls, d.NumSubrs,
				)
			}
		})
		if addErr != nil {
			return addErr
		}
	}
	return ilp.flush()
}

// uploadAtomicEvents writes the atomic-event catalog and every
// ATOMIC_LOCATION_PROFILE row.
func (s *DataSession) uploadAtomicEvents(p *model.Profile, opts UploadOptions, trialID int64) error {
	atomicIDs := make([]int64, len(p.AtomicEvents()))
	insAtomic, err := s.conn.Prepare("INSERT INTO atomic_event (trial, name, group_name) VALUES (?, ?, ?)")
	if err != nil {
		return err
	}
	defer insAtomic.Close()
	for _, e := range p.AtomicEvents() {
		r, err := insAtomic.Exec(trialID, e.Name, e.Group)
		if err != nil {
			return err
		}
		atomicIDs[e.ID] = r.LastInsertID
	}
	alp, err := newBatchInserter(s.conn, "atomic_location_profile", alpColumns, opts.BatchSize)
	if err != nil {
		return err
	}
	defer alp.close()
	for _, th := range p.Threads() {
		var addErr error
		th.EachAtomic(func(eid int, d *model.AtomicData) {
			if addErr != nil {
				return
			}
			if err := alp.add(
				atomicIDs[eid], th.ID.Node, th.ID.Context, th.ID.Thread,
				d.SampleCount, d.Maximum, d.Minimum, d.Mean, d.StdDev(),
			); err != nil {
				addErr = err
			}
		})
		if addErr != nil {
			return addErr
		}
	}
	return alp.flush()
}

// uploadSummaries writes the INTERVAL_TOTAL_SUMMARY and
// INTERVAL_MEAN_SUMMARY rows of the given model metrics from the in-memory
// aggregates; metrics and metricIDs are as for uploadIntervalRows.
func (s *DataSession) uploadSummaries(p *model.Profile, metrics []int, metricIDs, eventIDs []int64) error {
	if err := s.uploadSummary("interval_total_summary", p.TotalSummary(), metrics, metricIDs, eventIDs); err != nil {
		return err
	}
	return s.uploadSummary("interval_mean_summary", p.MeanSummary(), metrics, metricIDs, eventIDs)
}

// uploadSummary writes one summary table's rows in event, metric order.
func (s *DataSession) uploadSummary(table string, summary *model.Summary, metrics []int, metricIDs, eventIDs []int64) error {
	ins, err := newBatchInserter(s.conn, table, summaryColumns, 16)
	if err != nil {
		return err
	}
	defer ins.close()
	eids := make([]int, 0, len(summary.Events))
	for eid := range summary.Events {
		eids = append(eids, eid)
	}
	sort.Ints(eids)
	// Denominators across the summary itself.
	var scale pctScale
	scale.reset(len(metrics))
	for _, eid := range eids {
		scale.add(summary.Events[eid], metrics)
	}
	for _, eid := range eids {
		agg := summary.Events[eid]
		for i, m := range metrics {
			md := agg.PerMetric[m]
			inclPct, exclPct := scale.pct(i, md)
			if err := ins.add(
				eventIDs[eid], metricIDs[i],
				inclPct, md.Inclusive, exclPct, md.Exclusive,
				agg.InclusivePerCall(m), agg.NumCalls, agg.NumSubrs,
			); err != nil {
				return err
			}
		}
	}
	return ins.flush()
}

// SaveDerivedMetric stores one additional metric of a profile into an
// existing trial: the metric row, its INTERVAL_LOCATION_PROFILE rows and
// its summary rows (paper §4: "The Trial object also has support for
// adding new, possibly derived, metrics to an existing trial"). The
// profile must be the trial's own data (e.g. from LoadTrial) with the
// derived metric already computed via model.DeriveMetric.
func (s *DataSession) SaveDerivedMetric(trialID int64, p *model.Profile, metricID int) (*Metric, error) {
	if metricID < 0 || metricID >= len(p.Metrics()) {
		return nil, fmt.Errorf("core: profile has no metric %d", metricID)
	}
	// Map profile event IDs to database event IDs by name.
	rows, err := s.conn.Query("SELECT id, name FROM interval_event WHERE trial = ?", trialID)
	byName := make(map[string]int64)
	var id int64
	var name string
	err = forEach(rows, err, func() error {
		if err := rows.Scan(&id, &name); err != nil {
			return err
		}
		byName[name] = id
		return nil
	})
	if err != nil {
		return nil, err
	}
	eventIDs := make([]int64, len(p.IntervalEvents()))
	for _, e := range p.IntervalEvents() {
		id, ok := byName[e.Name]
		if !ok {
			return nil, fmt.Errorf("core: trial %d has no event %q; is this the trial's own profile?", trialID, e.Name)
		}
		eventIDs[e.ID] = id
	}

	if err := s.conn.Begin(); err != nil {
		return nil, err
	}
	metric, err := s.saveDerivedTx(trialID, p, metricID, eventIDs)
	if err != nil {
		s.conn.Rollback() //nolint:errcheck
		return nil, err
	}
	if err := s.conn.Commit(); err != nil {
		return nil, err
	}
	return metric, nil
}

func (s *DataSession) saveDerivedTx(trialID int64, p *model.Profile, metricID int, eventIDs []int64) (*Metric, error) {
	m := p.Metrics()[metricID]
	res, err := s.conn.Exec("INSERT INTO metric (trial, name, derived) VALUES (?, ?, TRUE)",
		trialID, m.Name)
	if err != nil {
		return nil, err
	}
	metrics, metricIDs := []int{metricID}, []int64{res.LastInsertID}
	if err := s.uploadIntervalRows(p, defaultBatchSize, metrics, metricIDs, eventIDs); err != nil {
		return nil, err
	}
	if err := s.uploadSummaries(p, metrics, metricIDs, eventIDs); err != nil {
		return nil, err
	}
	return &Metric{ID: res.LastInsertID, TrialID: trialID, Name: m.Name, Derived: true}, nil
}

// encodeMeta serializes trial metadata as "key=quoted-value" lines.
func encodeMeta(meta map[string]string) string {
	if len(meta) == 0 {
		return ""
	}
	keys := make([]string, 0, len(meta))
	for k := range meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(meta[k]))
		b.WriteByte('\n')
	}
	return b.String()
}

// decodeMeta reverses encodeMeta; malformed lines are skipped.
func decodeMeta(s string) map[string]string {
	meta := make(map[string]string)
	for _, line := range strings.Split(s, "\n") {
		if line == "" {
			continue
		}
		k, v, ok := strings.Cut(line, "=")
		if !ok {
			continue
		}
		uq, err := strconv.Unquote(v)
		if err != nil {
			continue
		}
		meta[k] = uq
	}
	return meta
}
