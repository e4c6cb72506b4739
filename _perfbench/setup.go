package main

import (
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"perfdmf/internal/core"
	"perfdmf/internal/formats"
	"perfdmf/internal/formats/tau"
	"perfdmf/internal/godbc"
	"perfdmf/internal/model"
	"perfdmf/internal/synth"
)

// Sizes of the seeded inputs (see README.md for why).
const (
	tauRuns       = 4   // on-disk TAU runs the uploader cycles through
	tauThreads    = 64  // threads per TAU run
	events        = 101 // interval events per TAU run and in the Miranda trial
	mirandaRanks  = 256 // Miranda-like trial: 256 × 101 = 25,856 points
	counterRanks  = 256 // sPPM-like counter trial for clustering
	retainTrials  = 4   // live uploaded trials kept; older ones are deleted
	metricName    = "TIME"
	p1GroupBySQL  = `SELECT interval_event, COUNT(*), SUM(exclusive), AVG(inclusive), MIN(exclusive), MAX(exclusive) FROM interval_location_profile GROUP BY interval_event`
	archiveSubdir = "archive"
)

// scalingProcs is the EVH1-like strong-scaling series, 1 to 256 procs.
var scalingProcs = []int{1, 2, 4, 8, 16, 32, 64, 128, 256}

// inputFile is one on-disk profile the uploader parses and uploads, with
// what a correct parse and upload of it must produce.
type inputFile struct {
	name, format, path string
	bytes              int64
	points             int // interval data points (rows in interval_location_profile)
	events             int // interval events
	firstEventRows     int // rows of the first event
	ref                *model.Profile
}

// groupRow is one group of the P1 GROUP BY.
type groupRow struct {
	count              int64
	sum, avg, min, max float64
}

// summaryRef is the expected MeanSummary of one setup trial: exclusive
// TIME by event name.
type summaryRef struct {
	id   int64
	want map[string]float64
}

// baseRef describes the analyst archive the setup builds and holds the
// references every read op is checked against.
type baseRef struct {
	miranda       *model.Profile
	mirandaID     int64
	mirandaEvents []int64 // database id by model event id
	series        []*core.Trial
	counterID     int64
	truth         []int // planted class per rank of the counter trial
	trials        []summaryRef
	// GROUP BY references from a ?columnar=0 connection: groupby holds the
	// groups of the analyst archive's own trials, groupbySetup every group
	// of the archive as set up, prefilled uploads included.
	groupby, groupbySetup map[int64]groupRow
	speedup               speedupRef
	basePoints            int
}

// fixture is a built archive plus its inputs and references.
type fixture struct {
	dir    string
	dsn    string
	inputs []inputFile
	ref    *baseRef
	ingest *core.Experiment // experiment the uploaded trials go into
	// prefilled are uploaded trials already live after set-up, so the
	// uploader's retention is in its steady state from the first op.
	prefilled []liveTrial
}

// archiveDSN opens the archive with one fsync per commit.
func archiveDSN(dir string) string { return "file:" + filepath.Join(dir, archiveSubdir) + "?sync=1" }

// writeInputs writes the seeded on-disk inputs: four TAU runs plus the
// seven small fixtures of the other formats, and parses each once for
// the references the upload checker uses.
func writeInputs(dir string, seed int64) ([]inputFile, error) {
	var out []inputFile
	for i := 0; i < tauRuns; i++ {
		p := synth.LargeTrial(synth.LargeTrialConfig{Threads: tauThreads, Events: events, Metrics: 1, Seed: seed*101 + int64(i)})
		path := filepath.Join(dir, fmt.Sprintf("tau-%d", i))
		if err := tau.Write(path, p); err != nil {
			return nil, err
		}
		out = append(out, inputFile{name: fmt.Sprintf("tau%d", i), format: formats.TAU, path: path})
	}
	files, err := synth.WriteSampleFiles(filepath.Join(dir, "fixtures"), seed)
	if err != nil {
		return nil, err
	}
	for _, f := range formats.All {
		if f == formats.TAU {
			continue
		}
		out = append(out, inputFile{name: f, format: f, path: files[f]})
	}
	for i := range out {
		in := &out[i]
		p, err := formats.Load(in.format, in.path)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", in.name, err)
		}
		in.ref = p
		in.points = p.DataPoints()
		in.events = len(p.IntervalEvents())
		for _, th := range p.Threads() {
			if th.FindIntervalData(0) != nil {
				in.firstEventRows += len(p.Metrics())
			}
		}
		if in.bytes, err = treeBytes(in.path); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// treeBytes is the size of a file, or of every file under a directory.
func treeBytes(path string) (int64, error) {
	var n int64
	err := filepath.WalkDir(path, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// openSession opens a decorated session on dsn.
func openSession(dsn string) (*core.DataSession, *timedConn, error) {
	c, err := godbc.Open(dsn)
	if err != nil {
		return nil, nil, err
	}
	tc := wrapConn(c)
	s, err := core.NewSession(tc)
	if err != nil {
		c.Close()
		return nil, nil, err
	}
	return s, tc, nil
}

// experiment creates an experiment under app and selects it.
func experiment(s *core.DataSession, app *core.Application, name string) (*core.Experiment, error) {
	s.SetApplication(app)
	e := &core.Experiment{Name: name, ApplicationID: app.ID}
	if err := s.SaveExperiment(e); err != nil {
		return nil, err
	}
	s.SetExperiment(e)
	return e, nil
}

// buildArchive uploads the analyst archive: the Miranda-like trial, the
// EVH1 scaling series and the sPPM counter trial, each in its own
// experiment, and computes the read references.
func buildArchive(dsn string, seed int64) (*baseRef, *core.Experiment, error) {
	s, _, err := openSession(dsn)
	if err != nil {
		return nil, nil, err
	}
	defer s.Close()
	app := &core.Application{Name: "perfbench"}
	if err := s.SaveApplication(app); err != nil {
		return nil, nil, err
	}
	ref := &baseRef{}
	upload := func(exp *core.Experiment, p *model.Profile) (int64, error) {
		s.SetExperiment(exp)
		t, err := s.UploadTrial(p, core.UploadOptions{})
		if err != nil {
			return 0, err
		}
		ref.basePoints += p.DataPoints()
		ref.trials = append(ref.trials, summaryRef{id: t.ID, want: meanExclusive(p)})
		return t.ID, nil
	}

	exp, err := experiment(s, app, "miranda")
	if err != nil {
		return nil, nil, err
	}
	ref.miranda = synth.LargeTrial(synth.LargeTrialConfig{Threads: mirandaRanks, Events: events, Metrics: 1, Seed: seed})
	if ref.mirandaID, err = upload(exp, ref.miranda); err != nil {
		return nil, nil, err
	}
	s.SetTrial(&core.Trial{ID: ref.mirandaID})
	evs, err := s.IntervalEventList()
	if err != nil {
		return nil, nil, err
	}
	for _, e := range evs {
		ref.mirandaEvents = append(ref.mirandaEvents, e.ID)
	}

	if exp, err = experiment(s, app, "evh1"); err != nil {
		return nil, nil, err
	}
	series := synth.ScalingSeries(synth.ScalingConfig{Procs: scalingProcs, Seed: seed})
	for _, p := range series {
		if _, err := upload(exp, p); err != nil {
			return nil, nil, err
		}
	}
	ref.speedup = speedupOf(series)
	if ref.series, err = s.TrialList(); err != nil {
		return nil, nil, err
	}

	if exp, err = experiment(s, app, "sppm"); err != nil {
		return nil, nil, err
	}
	counter, truth := synth.CounterTrial(synth.CounterConfig{Threads: counterRanks, Seed: seed})
	ref.truth = truth
	if ref.counterID, err = upload(exp, counter); err != nil {
		return nil, nil, err
	}

	ingest, err := experiment(s, app, "ingest")
	if err != nil {
		return nil, nil, err
	}
	if ref.groupby, err = referenceGroupBy(dsn); err != nil {
		return nil, nil, err
	}
	ref.groupbySetup = ref.groupby
	return ref, ingest, nil
}

// referenceGroupBy computes the GROUP BY reference through the serial
// row path (?columnar=0&workers=0), a different execution path from the
// one the timed ops take.
func referenceGroupBy(dsn string) (map[int64]groupRow, error) {
	s, _, err := openSession(dsn + "&columnar=0&workers=0")
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return groupBy(s.Conn())
}

// speedupRef is what analysis.Speedup must find for the scaling series:
// application speedup per processor count, and each routine's mean
// speedup at the largest count.
type speedupRef struct {
	app      []float64
	routines map[string]float64
}

// speedupOf computes the speedup reference from the in-memory profiles,
// which are ordered by processor count: application time is the largest
// inclusive value, a routine's time its mean exclusive value over threads.
func speedupOf(series []*model.Profile) speedupRef {
	appTime := func(p *model.Profile) float64 {
		var t float64
		for _, th := range p.Threads() {
			th.EachInterval(func(_ int, d *model.IntervalData) {
				t = math.Max(t, d.PerMetric[0].Inclusive)
			})
		}
		return t
	}
	means := func(p *model.Profile) map[string]float64 {
		sum, n := map[string]float64{}, map[string]float64{}
		for _, th := range p.Threads() {
			th.EachInterval(func(eid int, d *model.IntervalData) {
				name := p.IntervalEvents()[eid].Name
				sum[name] += d.PerMetric[0].Exclusive
				n[name]++
			})
		}
		for k := range sum {
			sum[k] /= n[k]
		}
		return sum
	}
	ref := speedupRef{routines: map[string]float64{}}
	base, last := appTime(series[0]), series[len(series)-1]
	for _, p := range series {
		ref.app = append(ref.app, base/appTime(p))
	}
	first, lastMeans := means(series[0]), means(last)
	for name, m := range first {
		if m > 0 && lastMeans[name] > 0 {
			ref.routines[name] = m / lastMeans[name]
		}
	}
	return ref
}

// meanExclusive is a profile's mean exclusive TIME by event name — what
// MeanSummary must return for its trial.
func meanExclusive(p *model.Profile) map[string]float64 {
	m := p.MetricID(metricName)
	want := make(map[string]float64)
	for eid, agg := range p.MeanSummary().Events {
		want[p.IntervalEvents()[eid].Name] = agg.PerMetric[m].Exclusive
	}
	return want
}

// groupBy runs the P1 GROUP BY.
func groupBy(c godbc.Conn) (map[int64]groupRow, error) {
	rows, err := c.Query(p1GroupBySQL)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	out := make(map[int64]groupRow)
	for rows.Next() {
		var ev int64
		var g groupRow
		if err := rows.Scan(&ev, &g.count, &g.sum, &g.avg, &g.min, &g.max); err != nil {
			return nil, err
		}
		out[ev] = g
	}
	return out, rows.Err()
}

// setup builds one fixture under dir: the inputs, the analyst archive
// (closed, so checkpointed) and the references.
func setup(dir string, seed int64) (*fixture, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	inputs, err := writeInputs(filepath.Join(dir, "inputs"), seed)
	if err != nil {
		return nil, err
	}
	dsn := archiveDSN(dir)
	ref, ingest, err := buildArchive(dsn, seed)
	if err != nil {
		return nil, err
	}
	return &fixture{dir: dir, dsn: dsn, inputs: inputs, ref: ref, ingest: ingest}, nil
}

// setupRepeated runs setup n times in fresh directories and keeps the
// last fixture, returning the median set-up time. Each repetition also
// prefills the archive, reopens it and warms it (warmUp), because that is
// set-up too. The prefill uploads are recorded in rec: they sample the
// upload path near the start of the run as well as near its end, so a
// burst of host slowdown weighs less. The reopens are recorded too, under
// their own kind.
func setupRepeated(root string, seed int64, n int, rec *recorder) (*fixture, *worker, float64, error) {
	var times []float64
	var fx *fixture
	var w *worker
	for i := 0; i < n; i++ {
		if w != nil {
			w.close()
			os.RemoveAll(fx.dir)
		}
		runtime.GC() // each repetition starts from the same heap
		t0 := time.Now()
		var err error
		if fx, err = setup(filepath.Join(root, fmt.Sprintf("setup-%d", i)), seed); err != nil {
			return nil, nil, 0, err
		}
		if w, err = prefill(fx, seed, rec); err != nil {
			return nil, nil, 0, err
		}
		if err := warmUp(w, fx.ref, seed); err != nil {
			w.close()
			return nil, nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return fx, w, median(times), nil
}

// prefill uploads retainTrials of the TAU runs into the ingest experiment,
// so the uploader's retention is in its steady state from the first
// measured op and every workload reads the same archive, then closes the
// archive (a checkpoint) and reopens it.
func prefill(fx *fixture, seed int64, rec *recorder) (*worker, error) {
	w, err := newWorker(fx)
	if err != nil {
		return nil, err
	}
	u := newUploader(w, fx, seed)
	failed := rec.failed
	for j := 0; j < retainTrials; j++ {
		u.upload(rec, &fx.inputs[j%tauRuns], time.Time{})
	}
	if n := rec.failed - failed; n > 0 {
		rec.report("prefill")
		w.close()
		return nil, fmt.Errorf("prefill: %d uploads failed", n)
	}
	fx.prefilled = u.live
	if fx.ref.groupbySetup, err = referenceGroupBy(fx.dsn); err != nil {
		w.close()
		return nil, err
	}
	if err := w.close(); err != nil {
		return nil, err
	}
	w, _, err = reopen(fx, rec, opSetupReopen)
	return w, err
}

// reopen opens a worker on the fixture's archive from a freshly collected
// heap and records the open as an op of the given kind.
func reopen(fx *fixture, rec *recorder, kind string) (*worker, time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	w, err := newWorker(fx)
	d := time.Since(t0)
	rec.add(kind, t0, d, err)
	return w, d, err
}
