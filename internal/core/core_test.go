package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"perfdmf/internal/godbc"
	"perfdmf/internal/model"
)

var sessCounter int

func openSession(t *testing.T) *DataSession {
	t.Helper()
	sessCounter++
	s, err := Open(fmt.Sprintf("mem:core_test_%s_%d", t.Name(), sessCounter))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// sampleProfile builds a 4-thread, 2-metric profile with atomic events.
func sampleProfile(name string) *model.Profile {
	p := model.New(name)
	p.Meta["problem_size"] = "64^3"
	p.Meta["notes"] = `quoted "stuff" here`
	tID := p.AddMetric("TIME")
	fID := p.AddMetric("PAPI_FP_OPS")
	main := p.AddIntervalEvent("main()", "TAU_DEFAULT")
	send := p.AddIntervalEvent("MPI_Send()", "MPI")
	msg := p.AddAtomicEvent("Message size", "MPI")
	for n := 0; n < 2; n++ {
		for th := 0; th < 2; th++ {
			thread := p.Thread(n, 0, th)
			r := float64(n*2 + th)
			d := thread.IntervalData(main.ID, 2)
			d.NumCalls = 1
			d.NumSubrs = 300
			d.PerMetric[tID] = model.MetricData{Inclusive: 1e6 + r*1000, Exclusive: 2e5 + r}
			d.PerMetric[fID] = model.MetricData{Inclusive: 7e8, Exclusive: 6e8}
			d2 := thread.IntervalData(send.ID, 2)
			d2.NumCalls = 320
			d2.PerMetric[tID] = model.MetricData{Inclusive: 3e5 - r, Exclusive: 3e5 - r}
			d2.PerMetric[fID] = model.MetricData{Inclusive: 100, Exclusive: 100}
			a := thread.AtomicData(msg.ID)
			a.SampleCount = 320
			a.Minimum = 8
			a.Maximum = 65536
			a.Mean = 2048
			a.SumSqr = 320 * (2048*2048 + 500*500) // stddev 500
		}
	}
	return p
}

// setupTrial saves app + experiment and uploads the profile.
func setupTrial(t *testing.T, s *DataSession, p *model.Profile) *Trial {
	t.Helper()
	app := &Application{Name: "testapp", Fields: map[string]any{"version": "1.0"}}
	if err := s.SaveApplication(app); err != nil {
		t.Fatal(err)
	}
	s.SetApplication(app)
	exp := &Experiment{Name: "testexp"}
	if err := s.SaveExperiment(exp); err != nil {
		t.Fatal(err)
	}
	s.SetExperiment(exp)
	trial, err := s.UploadTrial(p, UploadOptions{Date: time.Date(2005, 6, 15, 0, 0, 0, 0, time.UTC)})
	if err != nil {
		t.Fatal(err)
	}
	return trial
}

func TestSchemaCreation(t *testing.T) {
	s := openSession(t)
	tables, err := s.Conn().MetaData().Tables()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, name := range CoreTables() {
		want[name] = true
	}
	for _, name := range tables {
		delete(want, name)
	}
	if len(want) != 0 {
		t.Fatalf("missing tables: %v", want)
	}
	// Idempotent.
	if err := CreateSchema(s.Conn()); err != nil {
		t.Fatal(err)
	}
	ixs, err := s.Conn().MetaData().Indexes("interval_location_profile")
	if err != nil || len(ixs) == 0 {
		t.Fatalf("indexes: %v %v", ixs, err)
	}
}

func TestApplicationExperimentTrialObjects(t *testing.T) {
	s := openSession(t)
	app := &Application{Name: "sppm", Fields: map[string]any{
		"version": "2.0", "description": "ASCI benchmark",
	}}
	if err := s.SaveApplication(app); err != nil {
		t.Fatal(err)
	}
	if app.ID == 0 {
		t.Fatal("no id assigned")
	}
	apps, err := s.ApplicationList()
	if err != nil || len(apps) != 1 {
		t.Fatalf("list: %v %v", apps, err)
	}
	if apps[0].Fields["version"] != "2.0" || apps[0].Fields["description"] != "ASCI benchmark" {
		t.Fatalf("fields: %v", apps[0].Fields)
	}
	// Update path.
	app.Fields["version"] = "2.1"
	if err := s.SaveApplication(app); err != nil {
		t.Fatal(err)
	}
	found, err := s.FindApplication("sppm")
	if err != nil || found == nil || found.Fields["version"] != "2.1" {
		t.Fatalf("after update: %v %v", found, err)
	}
	if missing, _ := s.FindApplication("nosuch"); missing != nil {
		t.Fatal("phantom application")
	}

	s.SetApplication(app)
	exp := &Experiment{Name: "scaling", Fields: map[string]any{"system_info": "BG/L"}}
	if err := s.SaveExperiment(exp); err != nil {
		t.Fatal(err)
	}
	exps, err := s.ExperimentList()
	if err != nil || len(exps) != 1 || exps[0].ApplicationID != app.ID {
		t.Fatalf("experiments: %v %v", exps, err)
	}
	if exps[0].Fields["system_info"] != "BG/L" {
		t.Fatalf("exp fields: %v", exps[0].Fields)
	}

	// Filtering: another application's experiments must not show.
	app2 := &Application{Name: "other"}
	if err := s.SaveApplication(app2); err != nil {
		t.Fatal(err)
	}
	s.SetApplication(app2)
	exps, _ = s.ExperimentList()
	if len(exps) != 0 {
		t.Fatalf("filter leak: %v", exps)
	}

	// Unknown flexible column is rejected with a helpful error.
	bad := &Application{Name: "x", Fields: map[string]any{"no_such_col": 1}}
	if err := s.SaveApplication(bad); err == nil {
		t.Fatal("unknown column accepted")
	}
}

func TestUploadAndLoadTrialRoundTrip(t *testing.T) {
	s := openSession(t)
	p := sampleProfile("trial-1")
	trial := setupTrial(t, s, p)
	if trial.ID == 0 {
		t.Fatal("no trial id")
	}
	if trial.NodeCount() != 2 || trial.MaxThreadsPerContext() != 2 {
		t.Fatalf("trial stats: %+v", trial.Fields)
	}

	got, err := s.LoadTrial(trial.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "trial-1" {
		t.Errorf("name: %q", got.Name)
	}
	if got.Meta["problem_size"] != "64^3" || got.Meta["notes"] != `quoted "stuff" here` {
		t.Errorf("meta: %v", got.Meta)
	}
	if got.NumThreads() != 4 || len(got.Metrics()) != 2 {
		t.Fatalf("shape: threads=%d metrics=%d", got.NumThreads(), len(got.Metrics()))
	}
	// Every measurement must round-trip exactly.
	for _, wth := range p.Threads() {
		gth := got.FindThread(wth.ID.Node, wth.ID.Context, wth.ID.Thread)
		if gth == nil {
			t.Fatalf("lost thread %v", wth.ID)
		}
		for _, we := range p.IntervalEvents() {
			ge := got.FindIntervalEvent(we.Name)
			if ge == nil || ge.Group != we.Group {
				t.Fatalf("event %q: %+v", we.Name, ge)
			}
			wd := wth.FindIntervalData(we.ID)
			gd := gth.FindIntervalData(ge.ID)
			if gd == nil || gd.NumCalls != wd.NumCalls || gd.NumSubrs != wd.NumSubrs {
				t.Fatalf("event %q data: %+v vs %+v", we.Name, gd, wd)
			}
			for _, wm := range p.Metrics() {
				gm := got.MetricID(wm.Name)
				if gd.PerMetric[gm] != wd.PerMetric[wm.ID] {
					t.Errorf("%q %s: %+v vs %+v", we.Name, wm.Name,
						gd.PerMetric[gm], wd.PerMetric[wm.ID])
				}
			}
		}
		for _, we := range p.AtomicEvents() {
			ge := got.FindAtomicEvent(we.Name)
			if ge == nil {
				t.Fatalf("lost atomic %q", we.Name)
			}
			wd := wth.FindAtomicData(we.ID)
			gd := gth.FindAtomicData(ge.ID)
			if gd.SampleCount != wd.SampleCount || gd.Maximum != wd.Maximum ||
				gd.Minimum != wd.Minimum || gd.Mean != wd.Mean {
				t.Errorf("atomic %q: %+v vs %+v", we.Name, gd, wd)
			}
			if math.Abs(gd.StdDev()-wd.StdDev()) > 1e-6*wd.StdDev() {
				t.Errorf("atomic stddev: %g vs %g", gd.StdDev(), wd.StdDev())
			}
		}
	}
}

func TestTrialListAndFiltering(t *testing.T) {
	s := openSession(t)
	p := sampleProfile("t1")
	setupTrial(t, s, p)
	trial2, err := s.UploadTrial(sampleProfile("t2"), UploadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	trials, err := s.TrialList()
	if err != nil || len(trials) != 2 {
		t.Fatalf("trials: %v %v", trials, err)
	}
	if trials[1].Name != "t2" || trials[1].ID != trial2.ID {
		t.Fatalf("trial2: %+v", trials[1])
	}
	if trials[0].NodeCount() != 2 {
		t.Fatalf("node_count through Fields: %+v", trials[0].Fields)
	}
	// Other experiment sees nothing.
	exp2 := &Experiment{Name: "empty", ApplicationID: s.Application().ID}
	if err := s.SaveExperiment(exp2); err != nil {
		t.Fatal(err)
	}
	s.SetExperiment(exp2)
	trials, _ = s.TrialList()
	if len(trials) != 0 {
		t.Fatalf("filter leak: %v", trials)
	}
}

func TestMetricAndEventLists(t *testing.T) {
	s := openSession(t)
	trial := setupTrial(t, s, sampleProfile("t"))
	s.SetTrial(trial)
	metrics, err := s.MetricList()
	if err != nil || len(metrics) != 2 || metrics[0].Name != "TIME" {
		t.Fatalf("metrics: %v %v", metrics, err)
	}
	events, err := s.IntervalEventList()
	if err != nil || len(events) != 2 {
		t.Fatalf("events: %v %v", events, err)
	}
	if events[1].Name != "MPI_Send()" || events[1].Group != "MPI" {
		t.Fatalf("event: %+v", events[1])
	}
	atomics, err := s.AtomicEventList()
	if err != nil || len(atomics) != 1 || atomics[0].Name != "Message size" {
		t.Fatalf("atomics: %v %v", atomics, err)
	}
	// No trial selected.
	s.SetTrial(nil)
	if _, err := s.MetricList(); err == nil {
		t.Fatal("MetricList without trial")
	}
}

func TestSummaries(t *testing.T) {
	s := openSession(t)
	p := sampleProfile("t")
	trial := setupTrial(t, s, p)
	s.SetTrial(trial)

	mean, err := s.MeanSummary("TIME")
	if err != nil || len(mean) != 2 {
		t.Fatalf("mean summary: %v %v", mean, err)
	}
	// Sorted by exclusive desc: MPI_Send (3e5-ish) over main (2e5-ish).
	if mean[0].EventName != "MPI_Send()" {
		t.Fatalf("order: %v", mean)
	}
	wantMean := (3e5 + (3e5 - 1) + (3e5 - 2) + (3e5 - 3)) / 4
	if math.Abs(mean[0].Exclusive-wantMean) > 1e-6 {
		t.Errorf("mean exclusive: %g want %g", mean[0].Exclusive, wantMean)
	}
	total, err := s.TotalSummary("TIME")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(total[0].Exclusive-wantMean*4) > 1e-6 {
		t.Errorf("total exclusive: %g want %g", total[0].Exclusive, wantMean*4)
	}
	// Unknown metric yields empty, not error.
	none, err := s.MeanSummary("NOPE")
	if err != nil || len(none) != 0 {
		t.Fatalf("unknown metric: %v %v", none, err)
	}
}

// TestSummaryMatchesMetricJoin checks the summary statement, which filters
// on the metric with an IN subquery, against the three-way join with the
// metric table it replaced: the same rows in the same order, ties
// included, for every trial, metric and summary table of an archive of
// three trials.
func TestSummaryMatchesMetricJoin(t *testing.T) {
	s := openSession(t)
	var trials []*Trial
	for i := 0; i < 3; i++ {
		p := sampleProfile(fmt.Sprintf("t%d", i))
		// Two events whose every value ties, so ORDER BY keeps them in
		// input order; one of them has no group.
		for _, name := range []string{"tie_a()", "tie_b()"} {
			group := "TIE"
			if name == "tie_b()" {
				group = ""
			}
			e := p.AddIntervalEvent(name, group)
			for _, th := range p.Threads() {
				d := th.IntervalData(e.ID, 2)
				d.NumCalls = 4
				for m := range d.PerMetric {
					d.PerMetric[m] = model.MetricData{Inclusive: 5e4 + float64(i), Exclusive: 5e4 + float64(i)}
				}
			}
		}
		if i == 0 {
			trials = append(trials, setupTrial(t, s, p))
			continue
		}
		tr, err := s.UploadTrial(p, UploadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		trials = append(trials, tr)
	}
	checked := 0
	for _, tr := range trials {
		s.SetTrial(tr)
		for _, table := range []string{"interval_mean_summary", "interval_total_summary"} {
			for _, metric := range []string{"TIME", "PAPI_FP_OPS", "NOPE"} {
				got, err := s.summary(table, metric)
				if err != nil {
					t.Fatal(err)
				}
				rows, err := s.Conn().Query(`
					SELECT e.id, e.name, e.group_name, t.inclusive, t.exclusive,
					       t.call, t.subroutines, t.exclusive_percentage, t.inclusive_percentage
					FROM interval_event e
					JOIN `+table+` t ON t.interval_event = e.id
					JOIN metric m ON t.metric = m.id
					WHERE e.trial = ? AND m.name = ?
					ORDER BY t.exclusive DESC`, tr.ID, metric)
				if err != nil {
					t.Fatal(err)
				}
				var want []SummaryRow
				for rows.Next() {
					var r SummaryRow
					var group any
					if err := rows.Scan(&r.EventID, &r.EventName, &group, &r.Inclusive,
						&r.Exclusive, &r.Calls, &r.Subrs, &r.ExclPct, &r.InclPct); err != nil {
						t.Fatal(err)
					}
					r.Group, _ = group.(string)
					want = append(want, r)
				}
				rows.Close()
				if len(got) != len(want) {
					t.Fatalf("trial %d %s %s: %d rows, want %d", tr.ID, table, metric, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("trial %d %s %s row %d: got %+v, want %+v", tr.ID, table, metric, i, got[i], want[i])
					}
				}
				if metric != "NOPE" && len(want) != 4 {
					t.Fatalf("trial %d %s %s: %d rows, want 4", tr.ID, table, metric, len(want))
				}
				checked++
			}
		}
	}
	if checked != 18 {
		t.Fatalf("checked %d summaries, want 18", checked)
	}
}

func TestEventProfile(t *testing.T) {
	s := openSession(t)
	p := sampleProfile("t")
	trial := setupTrial(t, s, p)
	s.SetTrial(trial)
	events, _ := s.IntervalEventList()
	var send *IntervalEvent
	for _, e := range events {
		if e.Name == "MPI_Send()" {
			send = e
		}
	}
	rows, err := s.EventProfile(send.ID, "TIME")
	if err != nil || len(rows) != 4 {
		t.Fatalf("event profile: %v %v", rows, err)
	}
	// Ordered by node, context, thread.
	if rows[0].Node != 0 || rows[3].Node != 1 || rows[3].Thread != 1 {
		t.Fatalf("ordering: %+v", rows)
	}
	if rows[0].Calls != 320 {
		t.Fatalf("calls: %+v", rows[0])
	}
}

func TestSaveDerivedMetric(t *testing.T) {
	s := openSession(t)
	p := sampleProfile("t")
	trial := setupTrial(t, s, p)

	loaded, err := s.LoadTrial(trial.ID)
	if err != nil {
		t.Fatal(err)
	}
	mid, err := loaded.DeriveMetric("MFLOPS", model.Ratio("PAPI_FP_OPS", "TIME", 1))
	if err != nil {
		t.Fatal(err)
	}
	metric, err := s.SaveDerivedMetric(trial.ID, loaded, mid)
	if err != nil {
		t.Fatal(err)
	}
	if !metric.Derived || metric.Name != "MFLOPS" {
		t.Fatalf("metric: %+v", metric)
	}
	// Reload and verify the derived values persisted.
	re, err := s.LoadTrial(trial.ID)
	if err != nil {
		t.Fatal(err)
	}
	gm := re.MetricID("MFLOPS")
	if gm < 0 || !re.Metrics()[gm].Derived {
		t.Fatalf("derived metric lost: %v", re.Metrics())
	}
	th := re.FindThread(0, 0, 0)
	e := re.FindIntervalEvent("main()")
	got := th.FindIntervalData(e.ID).PerMetric[gm].Exclusive
	want := 6e8 / 2e5
	if math.Abs(got-want) > 1e-9*want {
		t.Fatalf("derived value: %g want %g", got, want)
	}
	// Mismatched profile rejected.
	other := sampleProfile("other")
	other.AddIntervalEvent("extra()", "")
	other.Thread(0, 0, 0).IntervalData(other.FindIntervalEvent("extra()").ID, 2)
	omid, _ := other.DeriveMetric("X", model.Ratio("PAPI_FP_OPS", "TIME", 1))
	if _, err := s.SaveDerivedMetric(trial.ID, other, omid); err == nil {
		t.Fatal("foreign profile accepted")
	}
}

// countRows returns SELECT COUNT(*) FROM table.
func countRows(t *testing.T, s *DataSession, table string) int64 {
	t.Helper()
	rows, err := s.Conn().Query("SELECT COUNT(*) FROM " + table)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var n int64
	if !rows.Next() {
		t.Fatalf("COUNT(*) FROM %s returned no row", table)
	}
	if err := rows.Scan(&n); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestDeleteTrialAtomic: a DeleteTrial whose last delete fails (here, on
// a dropped analysis_result table) must leave the trial whole. Its deletes
// once ran one autocommit statement at a time, so the profile and event
// rows were gone by the time it failed, and LoadTrial then returned an
// empty trial.
func TestDeleteTrialAtomic(t *testing.T) {
	s := openSession(t)
	trial := setupTrial(t, s, sampleProfile("kept"))
	tables := []string{
		"metric", "interval_event", "interval_location_profile",
		"interval_total_summary", "interval_mean_summary",
		"atomic_event", "atomic_location_profile", "trial",
	}
	before := make(map[string]int64, len(tables))
	for _, table := range tables {
		if before[table] = countRows(t, s, table); before[table] == 0 {
			t.Fatalf("fixture has no %s rows", table)
		}
	}
	if _, err := s.Conn().Exec("DROP TABLE analysis_result"); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteTrial(trial.ID); err == nil {
		t.Fatal("DeleteTrial succeeded without an analysis_result table")
	}
	for _, table := range tables {
		if n := countRows(t, s, table); n != before[table] {
			t.Errorf("%s: %d rows after the failed delete, want %d", table, n, before[table])
		}
	}
	p, err := s.LoadTrial(trial.ID)
	if err != nil {
		t.Fatal(err)
	}
	if p.DataPoints() == 0 {
		t.Fatal("trial lost its data points")
	}
}

func TestDeleteTrial(t *testing.T) {
	s := openSession(t)
	trial := setupTrial(t, s, sampleProfile("doomed"))
	s.SetTrial(trial)
	if err := s.DeleteTrial(trial.ID); err != nil {
		t.Fatal(err)
	}
	if s.Trial() != nil {
		t.Error("selection not cleared")
	}
	trials, _ := s.TrialList()
	if len(trials) != 0 {
		t.Fatalf("trial still listed: %v", trials)
	}
	for _, table := range []string{
		"metric", "interval_event", "interval_location_profile",
		"interval_total_summary", "interval_mean_summary",
		"atomic_event", "atomic_location_profile",
	} {
		rows, err := s.Conn().Query("SELECT COUNT(*) FROM " + table)
		if err != nil {
			t.Fatal(err)
		}
		rows.Next()
		var n int64
		rows.Scan(&n)
		if n != 0 {
			t.Errorf("%s has %d leftover rows", table, n)
		}
	}
	if _, err := s.LoadTrial(trial.ID); err == nil {
		t.Error("loading deleted trial succeeded")
	}
}

func TestFlexibleSchemaEndToEnd(t *testing.T) {
	s := openSession(t)
	// E6 scenario: the analysis team adds a compiler column at runtime.
	if _, err := s.Conn().Exec(
		"ALTER TABLE application ADD COLUMN compiler VARCHAR"); err != nil {
		t.Fatal(err)
	}
	app := &Application{Name: "withcc", Fields: map[string]any{"compiler": "xlf 8.1"}}
	if err := s.SaveApplication(app); err != nil {
		t.Fatal(err)
	}
	apps, _ := s.ApplicationList()
	if apps[0].Fields["compiler"] != "xlf 8.1" {
		t.Fatalf("flexible column lost: %v", apps[0].Fields)
	}
	// Dropping it removes the field from subsequent loads.
	if _, err := s.Conn().Exec("ALTER TABLE application DROP COLUMN compiler"); err != nil {
		t.Fatal(err)
	}
	apps, _ = s.ApplicationList()
	if _, ok := apps[0].Fields["compiler"]; ok {
		t.Fatalf("dropped column still present: %v", apps[0].Fields)
	}
}

func TestUploadRequiresExperiment(t *testing.T) {
	s := openSession(t)
	if _, err := s.UploadTrial(sampleProfile("x"), UploadOptions{}); err == nil {
		t.Fatal("upload without experiment accepted")
	}
}

func TestUploadBatchSizesEquivalent(t *testing.T) {
	for _, batch := range []int{1, 7, 64, 1000} {
		s := openSession(t)
		p := sampleProfile("b")
		app := &Application{Name: "a"}
		s.SaveApplication(app)
		s.SetApplication(app)
		exp := &Experiment{Name: "e"}
		s.SaveExperiment(exp)
		s.SetExperiment(exp)
		trial, err := s.UploadTrial(p, UploadOptions{BatchSize: batch})
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		got, err := s.LoadTrial(trial.ID)
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		if got.DataPoints() != p.DataPoints() {
			t.Fatalf("batch %d: datapoints %d want %d", batch, got.DataPoints(), p.DataPoints())
		}
	}
}

func TestSkipSummariesOption(t *testing.T) {
	s := openSession(t)
	p := sampleProfile("nosum")
	app := &Application{Name: "a"}
	s.SaveApplication(app)
	s.SetApplication(app)
	exp := &Experiment{Name: "e"}
	s.SaveExperiment(exp)
	s.SetExperiment(exp)
	trial, err := s.UploadTrial(p, UploadOptions{SkipSummaries: true})
	if err != nil {
		t.Fatal(err)
	}
	s.SetTrial(trial)
	mean, err := s.MeanSummary("TIME")
	if err != nil || len(mean) != 0 {
		t.Fatalf("summaries present despite skip: %v %v", mean, err)
	}
}

func TestAnalysisResults(t *testing.T) {
	s := openSession(t)
	trial := setupTrial(t, s, sampleProfile("t"))
	id, err := s.SaveAnalysisResult(trial.ID, "clusters", "kmeans", "k=4 rss=1.25")
	if err != nil || id == 0 {
		t.Fatal(err)
	}
	results, err := s.AnalysisResults(trial.ID)
	if err != nil || len(results) != 1 {
		t.Fatalf("results: %v %v", results, err)
	}
	if results[0].Method != "kmeans" || results[0].Result != "k=4 rss=1.25" {
		t.Fatalf("result: %+v", results[0])
	}
}

func TestMetaEncoding(t *testing.T) {
	meta := map[string]string{
		"simple":  "value",
		"spaces":  "has spaces",
		"quotes":  `it "quotes" and \ slashes`,
		"newline": "line1\nline2",
		"empty":   "",
	}
	got := decodeMeta(encodeMeta(meta))
	if len(got) != len(meta) {
		t.Fatalf("got %v", got)
	}
	for k, v := range meta {
		if got[k] != v {
			t.Errorf("%s: %q vs %q", k, got[k], v)
		}
	}
	if len(decodeMeta("")) != 0 {
		t.Error("empty decode")
	}
	if len(decodeMeta("garbage line\nk=unquoted")) != 0 {
		t.Error("malformed lines should be skipped")
	}
}

func TestAtomicProfile(t *testing.T) {
	s := openSession(t)
	trial := setupTrial(t, s, sampleProfile("t"))
	s.SetTrial(trial)
	atomics, err := s.AtomicEventList()
	if err != nil || len(atomics) != 1 {
		t.Fatalf("atomics: %v %v", atomics, err)
	}
	rows, err := s.AtomicProfile(atomics[0].ID)
	if err != nil || len(rows) != 4 {
		t.Fatalf("atomic profile: %v %v", rows, err)
	}
	r := rows[0]
	if r.SampleCount != 320 || r.Maximum != 65536 || r.Minimum != 8 || r.Mean != 2048 {
		t.Fatalf("row: %+v", r)
	}
	if math.Abs(r.StdDev-500) > 1 {
		t.Fatalf("stddev: %g", r.StdDev)
	}
	// No trial selected.
	s.SetTrial(nil)
	if _, err := s.AtomicProfile(atomics[0].ID); err == nil {
		t.Fatal("AtomicProfile without trial")
	}
}

func TestReadOnlySessionOpensExistingArchive(t *testing.T) {
	dir := t.TempDir()
	dsn := "file:" + dir
	s, err := Open(dsn)
	if err != nil {
		t.Fatal(err)
	}
	setupTrial(t, s, sampleProfile("ro"))
	s.Close()

	ro, err := Open(dsn + "?readonly=1")
	if err != nil {
		t.Fatalf("read-only open: %v", err)
	}
	defer ro.Close()
	apps, err := ro.ApplicationList()
	if err != nil || len(apps) != 1 {
		t.Fatalf("apps: %v %v", apps, err)
	}
	ro.SetApplication(apps[0])
	exps, _ := ro.ExperimentList()
	ro.SetExperiment(exps[0])
	trials, _ := ro.TrialList()
	if len(trials) != 1 {
		t.Fatalf("trials: %v", trials)
	}
	p, err := ro.LoadTrial(trials[0].ID)
	if err != nil || p.NumThreads() != 4 {
		t.Fatalf("load: %v %v", p, err)
	}
	// Mutations rejected.
	if _, err := ro.UploadTrial(sampleProfile("x"), UploadOptions{}); err == nil {
		t.Fatal("upload on read-only session accepted")
	}
	if err := ro.DeleteTrial(trials[0].ID); err == nil {
		t.Fatal("delete on read-only session accepted")
	}
	// A read-only session against a fresh (schema-less) database fails
	// cleanly rather than half-creating tables.
	if _, err := Open("mem:ro_fresh_archive?readonly=1"); err == nil {
		t.Fatal("read-only open of empty database should fail")
	}
}

func TestSaveTrialAndAccessors(t *testing.T) {
	s := openSession(t)
	app := &Application{Name: "a"}
	s.SaveApplication(app)
	s.SetApplication(app)
	exp := &Experiment{Name: "e"}
	s.SaveExperiment(exp)
	s.SetExperiment(exp)
	if s.Experiment() != exp {
		t.Fatal("Experiment accessor")
	}

	// Insert path with explicit fields.
	trial := &Trial{Name: "manual", Fields: map[string]any{
		"node_count":              int64(8),
		"contexts_per_node":       int64(2),
		"max_threads_per_context": int64(4),
		"problem_definition":      "256^3",
	}}
	if err := s.SaveTrial(trial); err != nil {
		t.Fatal(err)
	}
	if trial.ID == 0 {
		t.Fatal("no id")
	}
	if trial.ContextsPerNode() != 2 || trial.MaxThreadsPerContext() != 4 {
		t.Fatalf("accessors: %+v", trial.Fields)
	}
	// Update path.
	trial.Name = "renamed"
	trial.Fields["node_count"] = int64(16)
	if err := s.SaveTrial(trial); err != nil {
		t.Fatal(err)
	}
	trials, _ := s.TrialList()
	if len(trials) != 1 || trials[0].Name != "renamed" || trials[0].NodeCount() != 16 {
		t.Fatalf("after update: %+v", trials)
	}
	if trials[0].Fields["problem_definition"] != "256^3" {
		t.Fatalf("flexible field: %+v", trials[0].Fields)
	}
	// Missing name / experiment.
	if err := s.SaveTrial(&Trial{}); err == nil {
		t.Error("nameless trial accepted")
	}
	s.SetExperiment(nil)
	if err := s.SaveTrial(&Trial{Name: "orphan"}); err == nil {
		t.Error("trial without experiment accepted")
	}
	// Experiment save also needs an application context.
	s.SetApplication(nil)
	if err := s.SaveExperiment(&Experiment{Name: "orphan"}); err == nil {
		t.Error("experiment without application accepted")
	}
	if err := s.SaveExperiment(&Experiment{}); err == nil {
		t.Error("nameless experiment accepted")
	}
	// Experiment update path.
	s.SetApplication(app)
	exp.Fields = map[string]any{"system_info": "updated"}
	if err := s.SaveExperiment(exp); err != nil {
		t.Fatal(err)
	}
	exps, _ := s.ExperimentList()
	if exps[0].Fields["system_info"] != "updated" {
		t.Fatalf("experiment update: %+v", exps[0].Fields)
	}
}

func TestNewSessionWrapsConnection(t *testing.T) {
	conn, err := godbc.Open("mem:core_newsession")
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(conn)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Conn() != conn {
		t.Fatal("Conn passthrough")
	}
	apps, err := s.ApplicationList()
	if err != nil || len(apps) != 0 {
		t.Fatalf("apps: %v %v", apps, err)
	}
}
