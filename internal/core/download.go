package core

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"perfdmf/internal/godbc"
	"perfdmf/internal/model"
	"perfdmf/internal/obs"
)

// LoadTrial reconstructs a trial's full parallel profile from the
// database. Event and metric IDs in the returned profile are the model's
// own; names match the stored catalogs exactly.
func (s *DataSession) LoadTrial(trialID int64) (*model.Profile, error) {
	return s.LoadTrialCtx(context.Background(), trialID)
}

// LoadTrialCtx is LoadTrial with span-tree propagation: the reconstruction
// becomes one "download" span under ctx's span, with the session
// connection bound so every catalog and profile query is a child.
func (s *DataSession) LoadTrialCtx(ctx context.Context, trialID int64) (*model.Profile, error) {
	dctx, sp := obs.StartSpan(ctx, "download", "download:trial"+strconv.FormatInt(trialID, 10))
	if sp != nil {
		s.BindSpanContext(dctx)
		defer s.BindSpanContext(ctx)
	}
	start := time.Now()
	p, err := s.loadTrial(trialID)
	if err != nil {
		mDownloadErrors.Inc()
		sp.Finish(err)
		return nil, err
	}
	rows := int64(p.DataPoints())
	mDownloadTrials.Inc()
	mDownloadRows.Add(rows)
	if sp != nil {
		mDownloadNS.Observe(int64(time.Since(start)))
		sp.RowsReturned = rows
	}
	sp.Finish(nil)
	return p, nil
}

// loadTrial issues one statement per table it reads: the trial, its
// metric, interval event and atomic event catalogs, and each location
// profile table filtered by an IN subquery over the trial's events. The
// executor answers that IN exactly through the profile table's event
// index, in slot order, and returns references to the stored rows, so the
// profile is built straight from the cursor.
func (s *DataSession) loadTrial(trialID int64) (*model.Profile, error) {
	rows, err := s.conn.Query("SELECT name, metadata FROM trial WHERE id = ?", trialID)
	if err != nil {
		return nil, err
	}
	if !rows.Next() {
		rows.Close()
		return nil, fmt.Errorf("core: no trial %d", trialID)
	}
	var name string
	var meta any
	if err := rows.Scan(&name, &meta); err != nil {
		rows.Close()
		return nil, err
	}
	rows.Close()
	p := model.New(name)
	if ms, ok := meta.(string); ok && ms != "" {
		for k, v := range decodeMeta(ms) {
			p.Meta[k] = v
		}
	}

	// Catalogs, with database-ID → model-ID maps.
	metricOf := make(map[int64]int)
	rows, err = s.conn.Query("SELECT id, name, derived FROM metric WHERE trial = ? ORDER BY id", trialID)
	err = forEach(rows, err, func() error {
		var id int64
		var mname string
		var derived bool
		if err := rows.Scan(&id, &mname, &derived); err != nil {
			return err
		}
		mid := p.AddMetric(mname)
		if derived {
			p.SetDerived(mid)
		}
		metricOf[id] = mid
		return nil
	})
	if err != nil {
		return nil, err
	}
	rows, err = s.conn.Query("SELECT id, name, group_name FROM interval_event WHERE trial = ? ORDER BY id", trialID)
	eventOf, err := eventIDs(rows, err, func(name, group string) int {
		return p.AddIntervalEvent(name, group).ID
	})
	if err != nil {
		return nil, err
	}

	// The Scan destinations live outside the row loops: taking their
	// addresses per row would move them to the heap once per row.
	var event, node, context, thread int64
	var th *model.Thread
	// threadOf returns the row's thread. Rows arrive in slot order, which
	// an upload leaves thread-major, so most rows reuse the last one's.
	threadOf := func() *model.Thread {
		id := model.ThreadID{Node: int(node), Context: int(context), Thread: int(thread)}
		if th == nil || th.ID != id {
			th = p.Thread(id.Node, id.Context, id.Thread)
		}
		return th
	}
	nm := len(p.Metrics())
	var metric int64
	var incl, excl, calls, subrs float64
	dest := []any{&event, &node, &context, &thread, &metric, &incl, &excl, &calls, &subrs}
	rows, err = s.conn.Query(`SELECT interval_event, node, context, thread, metric,
		inclusive, exclusive, call, subroutines
		FROM interval_location_profile
		WHERE interval_event IN (SELECT id FROM interval_event WHERE trial = ?)`, trialID)
	err = forEach(rows, err, func() error {
		if err := rows.Scan(dest...); err != nil {
			return err
		}
		mm, ok := metricOf[metric]
		if !ok {
			return fmt.Errorf("core: profile row references unknown metric %d", metric)
		}
		d := threadOf().IntervalData(eventOf[event], nm)
		d.NumCalls = calls
		d.NumSubrs = subrs
		d.PerMetric[mm] = model.MetricData{Inclusive: incl, Exclusive: excl}
		return nil
	})
	if err != nil {
		return nil, err
	}

	rows, err = s.conn.Query("SELECT id, name, group_name FROM atomic_event WHERE trial = ? ORDER BY id", trialID)
	atomicOf, err := eventIDs(rows, err, func(name, group string) int {
		return p.AddAtomicEvent(name, group).ID
	})
	if err != nil {
		return nil, err
	}
	if len(atomicOf) == 0 {
		return p, nil
	}
	var count int64
	var max, min, mean, stddev float64
	dest = []any{&event, &node, &context, &thread, &count, &max, &min, &mean, &stddev}
	rows, err = s.conn.Query(`SELECT atomic_event, node, context, thread,
		sample_count, maximum_value, minimum_value, mean_value, standard_deviation
		FROM atomic_location_profile
		WHERE atomic_event IN (SELECT id FROM atomic_event WHERE trial = ?)`, trialID)
	err = forEach(rows, err, func() error {
		if err := rows.Scan(dest...); err != nil {
			return err
		}
		d := threadOf().AtomicData(atomicOf[event])
		d.SampleCount = count
		d.Maximum = max
		d.Minimum = min
		d.Mean = mean
		// Reconstruct the sum of squares from the stored deviation.
		n := float64(count)
		d.SumSqr = (stddev*stddev + mean*mean) * n
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// eventIDs reads an interval or atomic event catalog query (id, name,
// group_name), registering each event through add, and returns the map
// from database id to the model id add returned.
func eventIDs(rows godbc.Rows, err error, add func(name, group string) int) (map[int64]int, error) {
	of := make(map[int64]int)
	var id int64
	var name string
	var group any
	err = forEach(rows, err, func() error {
		if err := rows.Scan(&id, &name, &group); err != nil {
			return err
		}
		g, _ := group.(string)
		of[id] = add(name, g)
		return nil
	})
	return of, err
}

// forEach calls fn on every row of a query's cursor, closing the cursor
// whatever happens; err is the query's error, returned as is.
func forEach(rows godbc.Rows, err error, fn func() error) error {
	if err != nil {
		return err
	}
	defer rows.Close()
	for rows.Next() {
		if err := fn(); err != nil {
			return err
		}
	}
	return rows.Err()
}

// SummaryRow is one event's aggregate data from a summary table.
type SummaryRow struct {
	EventID   int64
	EventName string
	Group     string
	Inclusive float64
	Exclusive float64
	Calls     float64
	Subrs     float64
	ExclPct   float64
	InclPct   float64
}

// MeanSummary returns the selected trial's INTERVAL_MEAN_SUMMARY rows for
// one metric (by name), sorted by descending exclusive value — the data
// behind a ParaProf-style mean profile view, fetched without loading the
// full trial (paper §4: "selectively query the data without having to load
// entire (possibly large) trials").
func (s *DataSession) MeanSummary(metricName string) ([]SummaryRow, error) {
	return s.summary("interval_mean_summary", metricName)
}

// TotalSummary returns the selected trial's INTERVAL_TOTAL_SUMMARY rows
// for one metric.
func (s *DataSession) TotalSummary(metricName string) ([]SummaryRow, error) {
	return s.summary("interval_total_summary", metricName)
}

func (s *DataSession) summary(table, metricName string) ([]SummaryRow, error) {
	trialID, err := s.currentTrialID()
	if err != nil {
		return nil, err
	}
	// interval_event is the base table so its trial index drives the plan,
	// and the summary table joins onto it. The metric is a filter on the
	// joined rows rather than a second join, whose rows would each be
	// copied before the filter could drop them.
	rows, err := s.conn.Query(`
		SELECT e.id, e.name, e.group_name, t.inclusive, t.exclusive,
		       t.call, t.subroutines, t.exclusive_percentage, t.inclusive_percentage
		FROM interval_event e
		JOIN `+table+` t ON t.interval_event = e.id
		WHERE e.trial = ? AND t.metric IN (SELECT id FROM metric WHERE trial = ? AND name = ?)
		ORDER BY t.exclusive DESC`, trialID, trialID, metricName)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	var out []SummaryRow
	// One scan target for every row: Scan's destinations escape, so
	// fresh ones per row would each be a heap allocation.
	var r SummaryRow
	var group any
	dest := []any{&r.EventID, &r.EventName, &group, &r.Inclusive,
		&r.Exclusive, &r.Calls, &r.Subrs, &r.ExclPct, &r.InclPct}
	for rows.Next() {
		if err := rows.Scan(dest...); err != nil {
			return nil, err
		}
		r.Group, _ = group.(string)
		out = append(out, r)
	}
	return out, rows.Err()
}

// EventProfile returns the per-thread rows of one event and metric from
// INTERVAL_LOCATION_PROFILE — ParaProf's "compare one instrumented event
// across all threads of execution" view.
type EventProfileRow struct {
	Node, Context, Thread int64
	Inclusive, Exclusive  float64
	Calls                 float64
}

// EventProfile fetches the per-thread data of one event (by database id)
// and metric name for the selected trial.
func (s *DataSession) EventProfile(eventID int64, metricName string) ([]EventProfileRow, error) {
	trialID, err := s.currentTrialID()
	if err != nil {
		return nil, err
	}
	rows, err := s.conn.Query(`
		SELECT p.node, p.context, p.thread, p.inclusive, p.exclusive, p.call
		FROM interval_location_profile p
		JOIN metric m ON p.metric = m.id
		WHERE p.interval_event = ? AND m.name = ? AND m.trial = ?
		ORDER BY p.node, p.context, p.thread`, eventID, metricName, trialID)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	var out []EventProfileRow
	for rows.Next() {
		var r EventProfileRow
		if err := rows.Scan(&r.Node, &r.Context, &r.Thread, &r.Inclusive, &r.Exclusive, &r.Calls); err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, rows.Err()
}

// SaveAnalysisResult stores an analysis artifact (e.g. PerfExplorer
// cluster output) attached to a trial; the paper's PerfExplorer extends
// PerfDMF exactly this way.
func (s *DataSession) SaveAnalysisResult(trialID int64, name, method, result string) (int64, error) {
	res, err := s.conn.Exec(
		"INSERT INTO analysis_result (trial, name, method, result) VALUES (?, ?, ?, ?)",
		trialID, name, method, result)
	if err != nil {
		return 0, err
	}
	return res.LastInsertID, nil
}

// AnalysisResult is one stored analysis artifact.
type AnalysisResult struct {
	ID      int64
	TrialID int64
	Name    string
	Method  string
	Result  string
}

// AnalysisResults lists the artifacts stored for a trial.
func (s *DataSession) AnalysisResults(trialID int64) ([]AnalysisResult, error) {
	rows, err := s.conn.Query(
		"SELECT id, name, method, result FROM analysis_result WHERE trial = ? ORDER BY id", trialID)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	var out []AnalysisResult
	for rows.Next() {
		r := AnalysisResult{TrialID: trialID}
		var method, result any
		if err := rows.Scan(&r.ID, &r.Name, &method, &result); err != nil {
			return nil, err
		}
		if m, ok := method.(string); ok {
			r.Method = m
		}
		if v, ok := result.(string); ok {
			r.Result = v
		}
		out = append(out, r)
	}
	return out, rows.Err()
}

// AtomicProfileRow is one (atomic event, thread) record from
// ATOMIC_LOCATION_PROFILE.
type AtomicProfileRow struct {
	Node, Context, Thread int64
	SampleCount           int64
	Maximum, Minimum      float64
	Mean, StdDev          float64
}

// AtomicProfile fetches the per-thread statistics of one atomic event (by
// database id) for the selected trial.
func (s *DataSession) AtomicProfile(eventID int64) ([]AtomicProfileRow, error) {
	if _, err := s.currentTrialID(); err != nil {
		return nil, err
	}
	rows, err := s.conn.Query(`
		SELECT node, context, thread, sample_count,
		       maximum_value, minimum_value, mean_value, standard_deviation
		FROM atomic_location_profile
		WHERE atomic_event = ?
		ORDER BY node, context, thread`, eventID)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	var out []AtomicProfileRow
	for rows.Next() {
		var r AtomicProfileRow
		if err := rows.Scan(&r.Node, &r.Context, &r.Thread, &r.SampleCount,
			&r.Maximum, &r.Minimum, &r.Mean, &r.StdDev); err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, rows.Err()
}
