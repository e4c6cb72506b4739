package analysis

import (
	"fmt"
	"runtime"
	"testing"

	"perfdmf/internal/core"
	"perfdmf/internal/synth"
)

var sessCounter int

// scalingArchive uploads an EVH1-like scaling series and returns the
// session and its trials.
func scalingArchive(t *testing.T, procs []int) (*core.DataSession, []*core.Trial) {
	t.Helper()
	return scalingArchiveSeed(t, procs, 7)
}

// scalingArchiveSeed is scalingArchive with the series' seed.
func scalingArchiveSeed(t *testing.T, procs []int, seed int64) (*core.DataSession, []*core.Trial) {
	t.Helper()
	sessCounter++
	s, err := core.Open(fmt.Sprintf("mem:analysis_%s_%d", t.Name(), sessCounter))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	app := &core.Application{Name: "EVH1"}
	if err := s.SaveApplication(app); err != nil {
		t.Fatal(err)
	}
	s.SetApplication(app)
	exp := &core.Experiment{Name: "strong-scaling"}
	if err := s.SaveExperiment(exp); err != nil {
		t.Fatal(err)
	}
	s.SetExperiment(exp)
	var trials []*core.Trial
	for _, p := range synth.ScalingSeries(synth.ScalingConfig{Procs: procs, Seed: seed}) {
		trial, err := s.UploadTrial(p, core.UploadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		trials = append(trials, trial)
	}
	return s, trials
}

func TestTrialRoutineStats(t *testing.T) {
	s, trials := scalingArchive(t, []int{4})
	stats, err := TrialRoutineStats(s, trials[0].ID, "TIME")
	if err != nil {
		t.Fatal(err)
	}
	sw, ok := stats["SWEEPX"]
	if !ok {
		t.Fatalf("routines: %v", stats)
	}
	if !(sw.Min <= sw.Mean && sw.Mean <= sw.Max) {
		t.Fatalf("ordering violated: %+v", sw)
	}
	if sw.Mean <= 0 || sw.StdDev < 0 {
		t.Fatalf("stats: %+v", sw)
	}
	if _, err := TrialRoutineStats(s, trials[0].ID, "NOPE"); err != nil {
		t.Fatal(err) // unknown metric is empty, not an error
	}
}

// TestTrialStatsMatchesMetricJoin pins trialStats to the statement it
// replaced, which joined the metric table to match the metric by name: on
// trials with two metrics each, every routine's statistics must be the
// same to the bit, and so must the wall time.
func TestTrialStatsMatchesMetricJoin(t *testing.T) {
	s, trials := scalingArchive(t, []int{2, 4})
	for i := int64(0); i < 2; i++ {
		p := synth.LargeTrial(synth.LargeTrialConfig{Threads: 6, Events: 9, Metrics: 2, Seed: 20 + i})
		trial, err := s.UploadTrial(p, core.UploadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		trials = append(trials, trial)
	}
	checked := 0
	for _, tr := range trials {
		s.SetTrial(tr)
		metrics, err := s.MetricList()
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range metrics {
			got, wall, ok, err := trialStats(s, tr.ID, m.Name)
			if err != nil {
				t.Fatal(err)
			}
			rows, err := s.Conn().Query(`
				SELECT e.name, MIN(p.exclusive), AVG(p.exclusive), MAX(p.exclusive), STDDEV(p.exclusive),
					MAX(p.inclusive)
				FROM interval_event e
				JOIN interval_location_profile p ON p.interval_event = e.id
				JOIN metric m ON p.metric = m.id
				WHERE e.trial = ? AND m.name = ?
				GROUP BY e.name`, tr.ID, m.Name)
			if err != nil {
				t.Fatal(err)
			}
			want := map[string]RoutineStats{}
			var wantWall float64
			for rows.Next() {
				var r RoutineStats
				var maxInc float64
				if err := rows.Scan(&r.Name, &r.Min, &r.Mean, &r.Max, &r.StdDev, &maxInc); err != nil {
					t.Fatal(err)
				}
				want[r.Name] = r
				wantWall = max(wantWall, maxInc)
			}
			rows.Close()
			if len(want) == 0 || len(got) != len(want) {
				t.Fatalf("trial %d metric %s: %d routines, want %d", tr.ID, m.Name, len(got), len(want))
			}
			for name, w := range want {
				if got[name] != w {
					t.Errorf("trial %d metric %s routine %s: got %+v, want %+v", tr.ID, m.Name, name, got[name], w)
				}
			}
			if !ok || wall != wantWall {
				t.Errorf("trial %d metric %s: wall %v (ok %v), want %v", tr.ID, m.Name, wall, ok, wantWall)
			}
			checked++
		}
	}
	if checked != 6 {
		t.Fatalf("checked %d trial metrics, want 6", checked)
	}
}

func TestSpeedupStudy(t *testing.T) {
	s, trials := scalingArchive(t, []int{1, 2, 4, 8, 16, 32})
	study, err := Speedup(s, trials, "TIME")
	if err != nil {
		t.Fatal(err)
	}
	if study.BaseProcs != 1 || len(study.Procs) != 6 {
		t.Fatalf("procs: %+v", study.Procs)
	}
	// Application speedup must be monotonically increasing but sub-linear
	// at scale (the communication terms grow with log p).
	for i := 1; i < len(study.AppSpeed); i++ {
		if study.AppSpeed[i] <= study.AppSpeed[i-1]*0.9 {
			t.Errorf("app speedup collapsed at %d procs: %v", study.Procs[i], study.AppSpeed)
		}
	}
	last := len(study.AppSpeed) - 1
	if study.AppSpeed[last] >= float64(study.Procs[last]) {
		t.Errorf("superlinear overall speedup is implausible: %v", study.AppSpeed)
	}
	if study.AppEff[last] >= study.AppEff[0] {
		t.Errorf("efficiency should fall with scale: %v", study.AppEff)
	}

	// Per-routine: SWEEPX (parallel-heavy) speeds up well; the Alltoall
	// (comm-bound) must show speedup below 1 at scale.
	var sweep, alltoall *RoutineSpeedup
	for i := range study.Routines {
		switch study.Routines[i].Name {
		case "SWEEPX":
			sweep = &study.Routines[i]
		case "MPI_Alltoall()":
			alltoall = &study.Routines[i]
		}
	}
	if sweep == nil || alltoall == nil {
		t.Fatalf("routines missing: %v", len(study.Routines))
	}
	if sp := sweep.Points[len(sweep.Points)-1].Mean; sp < 16 {
		t.Errorf("SWEEPX speedup at 32p = %g, want near-linear", sp)
	}
	if sp := alltoall.Points[len(alltoall.Points)-1].Mean; sp >= 1 {
		t.Errorf("Alltoall speedup at 32p = %g, want < 1 (it grows)", sp)
	}
	// min ≤ mean ≤ max on every point.
	for _, r := range study.Routines {
		for _, pt := range r.Points {
			if !(pt.Min <= pt.Mean+1e-9 && pt.Mean <= pt.Max+1e-9) {
				t.Fatalf("%s: bounds out of order: %+v", r.Name, pt)
			}
		}
	}
	// Baseline point is exactly 1 for every routine mean.
	for _, r := range study.Routines {
		if p0 := r.Points[0]; p0.Mean < 0.999 || p0.Mean > 1.001 {
			t.Errorf("%s baseline speedup = %g", r.Name, p0.Mean)
		}
	}
}

func TestSpeedupErrors(t *testing.T) {
	s, trials := scalingArchive(t, []int{1, 2})
	if _, err := Speedup(s, trials[:1], "TIME"); err == nil {
		t.Error("single trial accepted")
	}
	if _, err := Speedup(s, trials, "NO_METRIC"); err == nil {
		t.Error("unknown metric accepted")
	}
}

func TestCompareTrials(t *testing.T) {
	s, trials := scalingArchive(t, []int{1, 8})
	cmp, err := CompareTrials(s, trials[0], trials[1], "TIME")
	if err != nil {
		t.Fatal(err)
	}
	if cmp.TrialA != trials[0].ID || cmp.TrialB != trials[1].ID {
		t.Fatalf("ids: %+v", cmp)
	}
	if len(cmp.Events) == 0 {
		t.Fatal("no event deltas")
	}
	// Sorted by |delta| descending.
	for i := 1; i < len(cmp.Events); i++ {
		if abs(cmp.Events[i].Delta) > abs(cmp.Events[i-1].Delta)+1e-9 {
			t.Fatalf("not sorted: %v then %v", cmp.Events[i-1], cmp.Events[i])
		}
	}
	// The parallel routines must shrink (ratio < 1) from 1 to 8 procs.
	for _, d := range cmp.Events {
		if d.Name == "SWEEPX" {
			if d.Ratio >= 1 {
				t.Errorf("SWEEPX ratio = %g, want < 1", d.Ratio)
			}
			if d.Delta >= 0 {
				t.Errorf("SWEEPX delta = %g, want < 0", d.Delta)
			}
		}
	}
}

func TestTopEventsAndGroupBreakdown(t *testing.T) {
	s, trials := scalingArchive(t, []int{4})
	top, err := TopEvents(s, trials[0], "TIME", 3)
	if err != nil || len(top) != 3 {
		t.Fatalf("top: %v %v", top, err)
	}
	if top[0].Exclusive < top[1].Exclusive {
		t.Fatal("top events not sorted")
	}
	groups, err := GroupBreakdown(s, trials[0], "TIME")
	if err != nil {
		t.Fatal(err)
	}
	if groups["HYDRO"] <= 0 || groups["MPI"] <= 0 {
		t.Fatalf("groups: %v", groups)
	}
	// Selection restored after TopEvents.
	if s.Trial() != nil {
		t.Error("TopEvents leaked trial selection")
	}
}

// TestSpeedupAllocBytes pins the bytes one speedup study allocates over
// the BenchmarkE3Speedup series (1 to 64 processors, seed 11). The grouped
// statement folds each joined (event, profile row) pair into its
// aggregation chunk without allocating a row for it.
func TestSpeedupAllocBytes(t *testing.T) {
	s, trials := scalingArchiveSeed(t, []int{1, 2, 4, 8, 16, 32, 64}, 11)
	if _, err := Speedup(s, trials, "TIME"); err != nil { // warm the plan cache
		t.Fatal(err)
	}
	const runs, limit = 10, 512 << 10
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := Speedup(s, trials, "TIME"); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("Speedup: %d bytes per study", per)
	if per > limit {
		t.Fatalf("Speedup allocated %d bytes per study, want at most %d", per, limit)
	}
}
