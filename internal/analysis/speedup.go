// Package analysis is PerfDMF's profile analysis toolkit (paper §4, §5.2):
// reusable multi-trial routines built on the DataSession API and on SQL
// aggregates — per-routine speedup with min/mean/max bounds, parallel
// efficiency, and trial comparison. The paper's trial browser & speedup
// analyzer (applied to the EVH1 benchmark) is cmd/speedup, a thin shell
// over this package.
package analysis

import (
	"context"
	"fmt"
	"sort"

	"perfdmf/internal/core"
)

// RoutineStats is one routine's per-thread exclusive-time statistics in a
// single trial, fetched with SQL MIN/AVG/MAX/STDDEV aggregates (paper §5.2:
// "requesting standard SQL aggregate operations such as minimum, maximum,
// mean, standard deviation").
type RoutineStats struct {
	Name   string
	Min    float64
	Mean   float64
	Max    float64
	StdDev float64
}

// TrialRoutineStats computes per-routine statistics for one trial and
// metric, entirely inside the database.
func TrialRoutineStats(s *core.DataSession, trialID int64, metric string) (map[string]RoutineStats, error) {
	stats, _, _, err := trialStats(s, trialID, metric)
	return stats, err
}

// trialStats is TrialRoutineStats plus, from the same grouped statement,
// each routine's largest inclusive value. wall is the largest of those: the
// maximum inclusive value of any (event, thread) pair, which is the trial's
// application wall time; ok is false when no pair has one. The metric is
// matched by id against the trial's own metrics rather than joined: a join
// would copy every profile row once more only to read the metric's name.
func trialStats(s *core.DataSession, trialID int64, metric string) (stats map[string]RoutineStats, wall float64, ok bool, err error) {
	rows, err := s.Conn().Query(`
		SELECT e.name, MIN(p.exclusive), AVG(p.exclusive), MAX(p.exclusive), STDDEV(p.exclusive),
			MAX(p.inclusive)
		FROM interval_event e
		JOIN interval_location_profile p ON p.interval_event = e.id
		WHERE e.trial = ? AND p.metric IN (SELECT id FROM metric WHERE trial = ? AND name = ?)
		GROUP BY e.name`, trialID, trialID, metric)
	if err != nil {
		return nil, 0, false, err
	}
	defer rows.Close()
	stats = make(map[string]RoutineStats)
	for rows.Next() {
		var r RoutineStats
		var maxInc any
		if err := rows.Scan(&r.Name, &r.Min, &r.Mean, &r.Max, &r.StdDev, &maxInc); err != nil {
			return nil, 0, false, err
		}
		stats[r.Name] = r
		if f, isF := maxInc.(float64); isF && (!ok || f > wall) {
			wall, ok = f, true
		}
	}
	return stats, wall, ok, rows.Err()
}

// SpeedupPoint is one routine's speedup at one processor count. Mean is
// the speedup of the mean thread time; Min and Max bound it using the
// slowest and fastest thread respectively (Min = base mean / worst thread,
// Max = base mean / best thread).
type SpeedupPoint struct {
	Procs           int
	Min, Mean, Max  float64
	MeanTime        float64 // mean per-thread exclusive at this point
	PerfectEff      float64 // Mean / (Procs / baseProcs): parallel efficiency
	ThreadImbalance float64 // Max thread time / mean thread time
}

// RoutineSpeedup is one routine's speedup series across the study.
type RoutineSpeedup struct {
	Name   string
	Points []SpeedupPoint
}

// SpeedupStudy is the §5.2 analyzer's result: per-routine speedup series
// plus whole-application speedup/efficiency.
type SpeedupStudy struct {
	Metric    string
	Procs     []int // processor counts, ascending; [0] is the baseline
	TrialIDs  []int64
	Routines  []RoutineSpeedup
	AppTime   []float64 // application wall time per point (max inclusive)
	AppSpeed  []float64 // application speedup vs baseline
	AppEff    []float64 // application parallel efficiency
	BaseProcs int
}

// trialProcs determines a trial's processor count: node_count ×
// contexts_per_node × max_threads_per_context, falling back to node_count.
func trialProcs(t *core.Trial) int {
	n := int(t.NodeCount())
	if n == 0 {
		return 0
	}
	c := int(t.ContextsPerNode())
	if c == 0 {
		c = 1
	}
	th := int(t.MaxThreadsPerContext())
	if th == 0 {
		th = 1
	}
	return n * c * th
}

// Speedup runs the §5.2 study over a set of trials of the same application
// at different processor counts. Trials are ordered by processor count;
// the smallest is the baseline. Routines missing from any trial are
// dropped from the per-routine table (they still count toward app time).
func Speedup(s *core.DataSession, trials []*core.Trial, metric string) (study *SpeedupStudy, err error) {
	err = op(context.Background(), s, "analysis:speedup", mSpeedupNS, func(context.Context) error {
		study, err = speedup(s, trials, metric)
		return err
	})
	return study, err
}

func speedup(s *core.DataSession, trials []*core.Trial, metric string) (*SpeedupStudy, error) {
	if len(trials) < 2 {
		return nil, fmt.Errorf("analysis: a speedup study needs at least 2 trials, got %d", len(trials))
	}
	ordered := append([]*core.Trial(nil), trials...)
	sort.Slice(ordered, func(i, j int) bool { return trialProcs(ordered[i]) < trialProcs(ordered[j]) })
	if trialProcs(ordered[0]) == 0 {
		return nil, fmt.Errorf("analysis: trial %q has no processor count", ordered[0].Name)
	}

	study := &SpeedupStudy{Metric: metric, BaseProcs: trialProcs(ordered[0])}
	perTrial := make([]map[string]RoutineStats, len(ordered))
	for i, t := range ordered {
		stats, wall, ok, err := trialStats(s, t.ID, metric)
		if err != nil {
			return nil, err
		}
		if len(stats) == 0 {
			return nil, fmt.Errorf("analysis: trial %q has no %s profile data", t.Name, metric)
		}
		if !ok {
			return nil, fmt.Errorf("analysis: trial %d has no %s data", t.ID, metric)
		}
		perTrial[i] = stats
		study.Procs = append(study.Procs, trialProcs(t))
		study.TrialIDs = append(study.TrialIDs, t.ID)
		study.AppTime = append(study.AppTime, wall)
	}

	// Application speedup and efficiency.
	base := study.AppTime[0]
	for i := range ordered {
		sp := 0.0
		if study.AppTime[i] > 0 {
			sp = base / study.AppTime[i]
		}
		study.AppSpeed = append(study.AppSpeed, sp)
		scale := float64(study.Procs[i]) / float64(study.BaseProcs)
		study.AppEff = append(study.AppEff, sp/scale)
	}

	// Routines present in every trial, in baseline mean-time order.
	var names []string
	for name := range perTrial[0] {
		inAll := true
		for _, stats := range perTrial[1:] {
			if _, ok := stats[name]; !ok {
				inAll = false
				break
			}
		}
		if inAll {
			names = append(names, name)
		}
	}
	sort.Slice(names, func(i, j int) bool {
		a, b := perTrial[0][names[i]], perTrial[0][names[j]]
		if a.Mean != b.Mean {
			return a.Mean > b.Mean
		}
		return names[i] < names[j]
	})

	for _, name := range names {
		baseStats := perTrial[0][name]
		if baseStats.Mean == 0 {
			continue
		}
		rs := RoutineSpeedup{Name: name}
		for i := range ordered {
			st := perTrial[i][name]
			pt := SpeedupPoint{Procs: study.Procs[i], MeanTime: st.Mean}
			if st.Mean > 0 {
				pt.Mean = baseStats.Mean / st.Mean
				pt.ThreadImbalance = st.Max / st.Mean
			}
			if st.Max > 0 {
				pt.Min = baseStats.Mean / st.Max
			}
			if st.Min > 0 {
				pt.Max = baseStats.Mean / st.Min
			}
			scale := float64(study.Procs[i]) / float64(study.BaseProcs)
			pt.PerfectEff = pt.Mean / scale
			rs.Points = append(rs.Points, pt)
		}
		study.Routines = append(study.Routines, rs)
	}
	return study, nil
}
