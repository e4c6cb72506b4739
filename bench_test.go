package perfdmf

// One benchmark per evaluation experiment (E1–E8 in DESIGN.md §3) and per
// design-choice ablation (§4). Each is the only timed implementation of its
// experiment; `make experiments` runs them all with repetitions, and
// EXPERIMENTS.md is built from that output. E1 includes the paper's
// 16K-processor point (1,654,784 data points). Custom metrics report the
// quantity each experiment is about (data points/s, speedup, agreement,
// bytes), and a verdict that does not hold fails the benchmark.

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"perfdmf/internal/analysis"
	"perfdmf/internal/core"
	"perfdmf/internal/formats"
	"perfdmf/internal/formats/xmlprof"
	"perfdmf/internal/godbc"
	"perfdmf/internal/mining"
	"perfdmf/internal/model"
	"perfdmf/internal/obs"
	"perfdmf/internal/synth"
)

var benchCounter int

func benchDSN(tag string) string {
	benchCounter++
	return fmt.Sprintf("mem:bench_%s_%d", tag, benchCounter)
}

// benchArchive opens a session with app+experiment selected on a new mem:
// archive, which the benchmark's Cleanup closes and drops.
func benchArchive(b *testing.B, tag string) *core.DataSession {
	b.Helper()
	s, drop := memArchive(b, benchDSN(tag))
	b.Cleanup(drop)
	return s
}

// memArchive opens a session with app+experiment selected on the mem:
// archive dsn and returns the function that closes it and drops the
// database. A named mem: database stays reachable until it is dropped, so
// an archive left behind would tax every later benchmark's GC for the rest
// of the run.
func memArchive(b *testing.B, dsn string) (*core.DataSession, func()) {
	b.Helper()
	s := newBenchSession(b, dsn)
	return s, func() {
		if err := s.Close(); err != nil {
			b.Error(err)
		}
		godbc.DropMemory(strings.TrimPrefix(dsn, "mem:"))
	}
}

// newBenchSession opens a session on dsn with app+experiment selected; the
// caller closes it.
func newBenchSession(b *testing.B, dsn string) *core.DataSession {
	b.Helper()
	s, err := core.Open(dsn)
	if err != nil {
		b.Fatal(err)
	}
	app := &core.Application{Name: "bench"}
	if err := s.SaveApplication(app); err != nil {
		b.Fatal(err)
	}
	s.SetApplication(app)
	exp := &core.Experiment{Name: "bench"}
	if err := s.SaveExperiment(exp); err != nil {
		b.Fatal(err)
	}
	s.SetExperiment(exp)
	return s
}

// onFreshArchives runs b.N iterations of timed, each on a new archive.
// Opening the archive, prepare and check (each when set), and closing and
// dropping the archive all run off the clock.
func onFreshArchives(b *testing.B, tag string, prepare, timed, check func(s *core.DataSession)) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, drop := memArchive(b, benchDSN(tag))
		if prepare != nil {
			prepare(s)
		}
		b.StartTimer()
		timed(s)
		b.StopTimer()
		if check != nil {
			check(s)
		}
		drop()
		b.StartTimer()
	}
}

// e1Threads are the E1 scales, events fixed at the paper's 101: two sizes
// that keep a benchmark run short, and the paper's 16K processors
// (1,654,784 data points), whose upload runs once per repetition at the
// default benchtime.
var e1Threads = []int{512, 2048, 16384}

// BenchmarkE1LargeTrialUpload measures the §3.1/§5.3 bulk-load path into a
// new archive per iteration.
func BenchmarkE1LargeTrialUpload(b *testing.B) {
	for _, threads := range e1Threads {
		b.Run(fmt.Sprintf("threads-%d", threads), func(b *testing.B) {
			p := synth.LargeTrial(synth.LargeTrialConfig{Threads: threads, Events: 101, Metrics: 1, Seed: 1})
			onFreshArchives(b, "e1up", nil, func(s *core.DataSession) {
				if _, err := s.UploadTrial(p, core.UploadOptions{}); err != nil {
					b.Fatal(err)
				}
			}, nil)
			b.ReportMetric(float64(p.DataPoints())*float64(b.N)/b.Elapsed().Seconds(), "points/s")
		})
	}
}

// BenchmarkE1LargeTrialLoad measures the full-trial download, which must
// return every uploaded data point.
func BenchmarkE1LargeTrialLoad(b *testing.B) {
	for _, threads := range e1Threads {
		b.Run(fmt.Sprintf("threads-%d", threads), func(b *testing.B) {
			s := benchArchive(b, "e1load")
			p := synth.LargeTrial(synth.LargeTrialConfig{Threads: threads, Events: 101, Metrics: 1, Seed: 1})
			trial, err := s.UploadTrial(p, core.UploadOptions{})
			if err != nil {
				b.Fatal(err)
			}
			points := float64(p.DataPoints())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				loaded, err := s.LoadTrial(trial.ID)
				if err != nil {
					b.Fatal(err)
				}
				if loaded.DataPoints() != p.DataPoints() {
					b.Fatalf("reloaded %d data points, want %d", loaded.DataPoints(), p.DataPoints())
				}
			}
			b.ReportMetric(points*float64(b.N)/b.Elapsed().Seconds(), "points/s")
		})
	}
}

// BenchmarkReopen measures opening a durable archive: the snapshot load and
// index rebuild every analysis session pays first. The archive holds one
// E1-style trial (512 threads × 101 events) and four smaller ones; it is
// checkpointed once up front, and each iteration times only the open (the
// close, which checkpoints again, runs off the clock).
func BenchmarkReopen(b *testing.B) {
	dsn := "file:" + b.TempDir()
	s := newBenchSession(b, dsn)
	points := 0
	for i, threads := range []int{512, 64, 64, 32, 32} {
		p := synth.LargeTrial(synth.LargeTrialConfig{Threads: threads, Events: 101, Metrics: 1, Seed: int64(i + 1)})
		if _, err := s.UploadTrial(p, core.UploadOptions{}); err != nil {
			b.Fatal(err)
		}
		points += p.DataPoints()
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := core.Open(dsn)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(points), "points")
}

// BenchmarkE1SummaryQuery measures the selective query the paper's API is
// designed for (no full-trial load).
func BenchmarkE1SummaryQuery(b *testing.B) {
	s := benchArchive(b, "e1query")
	p := synth.LargeTrial(synth.LargeTrialConfig{Threads: 2048, Events: 101, Metrics: 1, Seed: 1})
	trial, err := s.UploadTrial(p, core.UploadOptions{})
	if err != nil {
		b.Fatal(err)
	}
	s.SetTrial(trial)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := s.MeanSummary("TIME")
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 101 {
			b.Fatalf("got %d rows", len(rows))
		}
	}
}

// BenchmarkE2Import measures parse+upload for each of the paper's formats,
// into a new archive per iteration; each trial must then reload with every
// parsed data point.
func BenchmarkE2Import(b *testing.B) {
	paths, err := synth.WriteSampleFiles(b.TempDir(), 2005)
	if err != nil {
		b.Fatal(err)
	}
	for _, format := range formats.All {
		b.Run(format, func(b *testing.B) {
			var points int
			var trial *core.Trial
			onFreshArchives(b, "e2", nil, func(s *core.DataSession) {
				p, err := formats.Load(format, paths[format])
				if err != nil {
					b.Fatal(err)
				}
				points = p.DataPoints()
				if trial, err = s.UploadTrial(p, core.UploadOptions{TrialName: format}); err != nil {
					b.Fatal(err)
				}
			}, func(s *core.DataSession) {
				loaded, err := s.LoadTrial(trial.ID)
				if err != nil {
					b.Fatal(err)
				}
				if points == 0 || loaded.DataPoints() != points {
					b.Fatalf("reloaded %d data points, parsed %d", loaded.DataPoints(), points)
				}
			})
			b.ReportMetric(float64(points), "points")
		})
	}
}

// BenchmarkE3Speedup measures the §5.2 study (upload once, analyze per
// iteration) and reports the application's speedup and efficiency at 64
// processors. Speedup must grow and efficiency fall from 1 to 64.
func BenchmarkE3Speedup(b *testing.B) {
	s := benchArchive(b, "e3")
	for _, p := range synth.ScalingSeries(synth.ScalingConfig{
		Procs: []int{1, 2, 4, 8, 16, 32, 64}, Seed: 11,
	}) {
		if _, err := s.UploadTrial(p, core.UploadOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	trials, err := s.TrialList()
	if err != nil {
		b.Fatal(err)
	}
	var study *analysis.SpeedupStudy
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if study, err = analysis.Speedup(s, trials, "TIME"); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	last := len(study.Procs) - 1
	if len(study.Routines) == 0 || study.Procs[last] != 64 ||
		study.AppSpeed[last] <= study.AppSpeed[0] || study.AppEff[last] >= study.AppEff[0] {
		b.Fatalf("speedup study lost its shape: procs %v speedup %v efficiency %v",
			study.Procs, study.AppSpeed, study.AppEff)
	}
	b.ReportMetric(study.AppSpeed[last], "speedup@64")
	b.ReportMetric(100*study.AppEff[last], "efficiency%@64")
}

// BenchmarkE4Cluster measures feature extraction + k-means at the paper's
// thread counts, reporting agreement with the planted classes, which must
// be at least 90%.
func BenchmarkE4Cluster(b *testing.B) {
	for _, threads := range []int{128, 512, 1024} {
		b.Run(fmt.Sprintf("threads-%d", threads), func(b *testing.B) {
			s := benchArchive(b, "e4")
			p, truth := synth.CounterTrial(synth.CounterConfig{Threads: threads, Seed: 7})
			trial, err := s.UploadTrial(p, core.UploadOptions{})
			if err != nil {
				b.Fatal(err)
			}
			agreement := 0.0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fm, err := mining.ExtractFeatures(s, trial.ID, nil)
				if err != nil {
					b.Fatal(err)
				}
				fm.Normalize(mining.NormZScore)
				cl, err := mining.KMeans(fm.Rows, mining.KMeansConfig{K: 3, Seed: 17})
				if err != nil {
					b.Fatal(err)
				}
				aligned := make([]int, len(fm.Threads))
				for j, th := range fm.Threads {
					aligned[j] = truth[th.Node]
				}
				agreement = clusterAgreement(cl.Assignments, aligned, cl.K)
			}
			if agreement < 0.9 {
				b.Fatalf("agreement with the planted classes %.1f%%, want at least 90%%", 100*agreement)
			}
			b.ReportMetric(100*agreement, "agreement%")
		})
	}
}

// BenchmarkE5Query compares the object API and raw SQL on both back ends.
// Both paths must return one row per event.
func BenchmarkE5Query(b *testing.B) {
	const events = 40
	p := synth.LargeTrial(synth.LargeTrialConfig{Threads: 64, Events: events, Metrics: 1, Seed: 3})
	file := newBenchSession(b, "file:"+b.TempDir())
	b.Cleanup(func() { file.Close() })
	for _, backend := range []struct {
		name string
		s    *core.DataSession
	}{{"mem", benchArchive(b, "e5")}, {"file", file}} {
		s := backend.s
		trial, err := s.UploadTrial(p, core.UploadOptions{})
		if err != nil {
			b.Fatal(err)
		}
		s.SetTrial(trial)

		b.Run(backend.name+"-api", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := s.MeanSummary("TIME")
				if err != nil || len(rows) != events {
					b.Fatalf("%v (%d rows, want %d)", err, len(rows), events)
				}
			}
		})
		b.Run(backend.name+"-sql", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rs, err := s.Conn().Query(`
					SELECT e.name, t.exclusive FROM interval_event e
					JOIN interval_mean_summary t ON t.interval_event = e.id
					WHERE e.trial = ? ORDER BY t.exclusive DESC`, trial.ID)
				if err != nil {
					b.Fatal(err)
				}
				n := 0
				for rs.Next() {
					n++
				}
				rs.Close()
				if n != events {
					b.Fatalf("%d rows, want %d", n, events)
				}
			}
		})
	}
}

// BenchmarkE6SchemaFlex measures the §3.2 flexible-schema flow on a new
// archive per iteration: two ALTER TABLE ADD COLUMNs, a SaveTrial that
// fills one, a TrialList that discovers both, and a DROP COLUMN that the
// next TrialList no longer shows. No framework code names these columns.
func BenchmarkE6SchemaFlex(b *testing.B) {
	list := func(s *core.DataSession) *core.Trial {
		trials, err := s.TrialList()
		if err != nil || len(trials) != 1 {
			b.Fatalf("trial list: %v (%d trials, want 1)", err, len(trials))
		}
		return trials[0]
	}
	onFreshArchives(b, "e6", nil, func(s *core.DataSession) {
		if _, err := s.Conn().Exec("ALTER TABLE trial ADD COLUMN compiler VARCHAR"); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Conn().Exec("ALTER TABLE trial ADD COLUMN os_release VARCHAR DEFAULT 'AIX 5.2'"); err != nil {
			b.Fatal(err)
		}
		trial := &core.Trial{Name: "flexible", Fields: map[string]any{
			"compiler":   "xlf 8.1.1",
			"node_count": int64(16),
		}}
		if err := s.SaveTrial(trial); err != nil {
			b.Fatal(err)
		}
		if t := list(s); t.Fields["compiler"] != "xlf 8.1.1" || t.Fields["os_release"] != "AIX 5.2" || t.NodeCount() != 16 {
			b.Fatalf("added columns not discovered: %v", t.Fields)
		}
		if _, err := s.Conn().Exec("ALTER TABLE trial DROP COLUMN compiler"); err != nil {
			b.Fatal(err)
		}
		t := list(s)
		if _, still := t.Fields["compiler"]; still || t.Fields["os_release"] != "AIX 5.2" {
			b.Fatalf("dropped column still listed: %v", t.Fields)
		}
	}, nil)
}

// BenchmarkE7DerivedMetric measures deriving FLOPS = PAPI_FP_OPS / TIME on
// a loaded 64-thread counter trial, saving it into the existing trial and
// reloading the trial. The reloaded FLOPS must match the derivation.
func BenchmarkE7DerivedMetric(b *testing.B) {
	p, _ := synth.CounterTrial(synth.CounterConfig{Threads: 64, Seed: 5})
	var trial *core.Trial
	var loaded, re *model.Profile
	onFreshArchives(b, "e7", func(s *core.DataSession) {
		var err error
		if trial, err = s.UploadTrial(p, core.UploadOptions{}); err != nil {
			b.Fatal(err)
		}
		if loaded, err = s.LoadTrial(trial.ID); err != nil {
			b.Fatal(err)
		}
	}, func(s *core.DataSession) {
		mid, err := loaded.DeriveMetric("FLOPS", model.Ratio("PAPI_FP_OPS", "TIME", 1e6))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.SaveDerivedMetric(trial.ID, loaded, mid); err != nil {
			b.Fatal(err)
		}
		if re, err = s.LoadTrial(trial.ID); err != nil {
			b.Fatal(err)
		}
	}, func(*core.DataSession) {
		gm := re.MetricID("FLOPS")
		if gm < 0 || !re.Metrics()[gm].Derived {
			b.Fatal("reloaded trial has no derived FLOPS metric")
		}
		d := re.FindThread(0, 0, 0).FindIntervalData(re.FindIntervalEvent("hydro").ID)
		want := 1e6 * d.PerMetric[re.MetricID("PAPI_FP_OPS")].Exclusive /
			d.PerMetric[re.MetricID("TIME")].Exclusive
		if got := d.PerMetric[gm].Exclusive; math.Abs(got-want) > 1e-9*want {
			b.Fatalf("reloaded FLOPS %g, want %g", got, want)
		}
	})
}

// BenchmarkE8XMLRoundTrip measures exporting a 32-thread × 30-event ×
// 2-metric trial as common XML and importing it back, which must keep
// every data point, thread and metric.
func BenchmarkE8XMLRoundTrip(b *testing.B) {
	p := synth.LargeTrial(synth.LargeTrialConfig{Threads: 32, Events: 30, Metrics: 2, Seed: 9})
	path := filepath.Join(b.TempDir(), "e8.xml")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := xmlprof.Write(path, p); err != nil {
			b.Fatal(err)
		}
		re, err := formats.Load(formats.XML, path)
		if err != nil {
			b.Fatal(err)
		}
		if re.DataPoints() != p.DataPoints() || re.NumThreads() != p.NumThreads() || len(re.Metrics()) != len(p.Metrics()) {
			b.Fatalf("lossy round trip: %d points, %d threads, %d metrics; want %d, %d, %d",
				re.DataPoints(), re.NumThreads(), len(re.Metrics()), p.DataPoints(), p.NumThreads(), len(p.Metrics()))
		}
	}
	b.StopTimer()
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(fi.Size()), "bytes")
}

// obsMode is one observability configuration the overhead guard times.
// persist additionally runs the self-hosted telemetry pipeline (span
// persistence, metric history and one alert rule) on the archive.
type obsMode struct {
	name    string
	cfg     obs.Config
	persist bool
}

var obsModes = []obsMode{
	{name: "off"},
	{name: "slowlog", cfg: obs.Config{SlowQuery: 50 * time.Millisecond}},
	{name: "trace", cfg: obs.Config{Trace: true, SlowQuery: 50 * time.Millisecond}},
	{name: "persisted", cfg: obs.Config{Trace: true, SlowQuery: 50 * time.Millisecond}, persist: true},
}

// The tracing-overhead budget: once a run has obsGateIters iterations,
// the traced and the persisted upload may each cost at most
// obsBudgetPct percent over the fastest off upload.
const (
	obsBudgetPct = 5.0
	obsGateIters = 12
)

// BenchmarkObsOverhead is the observability overhead guard. Its upload
// sub-benchmark times the same Miranda-like bulk upload in every obsModes
// mode; its point sub-benchmark times a point query with tracing off and
// on, which is where the fixed cost of a span shows.
func BenchmarkObsOverhead(b *testing.B) {
	b.Run("upload", benchObsUpload)
	b.Run("point", benchObsPoint)
}

// benchObsUpload uploads once in every mode per iteration, rotating the
// order each iteration so every mode's fastest upload comes from the same
// stretch of wall clock and no mode is pinned to one slot. Interference on
// a shared host only ever slows an upload, so each mode is judged by its
// fastest one; an overhead below zero is under the noise floor and
// reported as 0.
func benchObsUpload(b *testing.B) {
	p := synth.LargeTrial(synth.LargeTrialConfig{Threads: 2048, Events: 101, Metrics: 1, Seed: 1})
	defer obs.Apply(obs.Config{})
	// The first upload in a process pays allocator and page-fault costs
	// that would otherwise land on whichever mode runs first.
	obsUpload(b, p, obsModes[0])
	fastest := make([]time.Duration, len(obsModes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range obsModes {
			k := (i + j) % len(obsModes)
			if d := obsUpload(b, p, obsModes[k]); fastest[k] == 0 || d < fastest[k] {
				fastest[k] = d
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(fastest[0].Nanoseconds()), "off-ns")
	for k, m := range obsModes[1:] {
		pct := max(0, 100*(fastest[k+1].Seconds()/fastest[0].Seconds()-1))
		b.ReportMetric(float64(fastest[k+1].Nanoseconds()), m.name+"-ns")
		b.ReportMetric(pct, m.name+"-overhead-%")
		// The budget binds the modes that trace: trace and persisted.
		if b.N >= obsGateIters && m.cfg.Trace && pct > obsBudgetPct {
			b.Errorf("%s upload costs %.2f%% over off, budget %.0f%%", m.name, pct, obsBudgetPct)
		}
	}
}

// obsUpload times one upload of p into a fresh archive under mode m. The
// archive is dropped afterwards: leaked mem: archives grow the live heap,
// which taxes every later upload's allocator. GC runs before the timed
// region and is off inside it, so whether a cycle lands in an upload does
// not depend on the order of the modes.
func obsUpload(b *testing.B, p *model.Profile, m obsMode) time.Duration {
	b.Helper()
	obs.Apply(m.cfg)
	dsn := benchDSN("obs-" + m.name)
	s, drop := memArchive(b, dsn)
	var stop func() error
	if m.persist {
		// One alert rule that never fires still costs a full evaluation at
		// every history scrape.
		if _, err := godbc.AddAlertRule(s.Conn(), obs.AlertRule{
			Name: "obs-exec-rate", Metric: "godbc_exec_total", Op: "gt", Threshold: 1e12,
		}); err != nil {
			b.Fatal(err)
		}
		var err error
		if stop, err = godbc.StartTelemetry(dsn, godbc.TelemetryOptions{HistoryEvery: 50 * time.Millisecond}); err != nil {
			b.Fatal(err)
		}
	}
	runtime.GC()
	gcPrev := debug.SetGCPercent(-1)
	t0 := time.Now()
	_, err := s.UploadTrial(p, core.UploadOptions{})
	elapsed := time.Since(t0)
	debug.SetGCPercent(gcPrev)
	if err != nil {
		b.Fatal(err)
	}
	if stop != nil {
		if err := stop(); err != nil {
			b.Fatal(err)
		}
		if spans := fetchAll(b, s.Conn(), "SELECT COUNT(*) FROM PERFDMF_SPANS"); spans[0][0] == int64(0) {
			b.Fatal("persisted mode stored no spans")
		}
	}
	drop()
	return elapsed
}

// benchObsPoint times batches of SELECT name FROM trial WHERE id = ?, with
// tracing off and then on, and reports each mode's fastest batch per query
// and the traced overhead. It enforces no budget yet.
func benchObsPoint(b *testing.B) {
	s := benchArchive(b, "obs-point")
	tr, err := s.UploadTrial(synth.LargeTrial(synth.LargeTrialConfig{Threads: 4, Events: 4, Metrics: 1, Seed: 1}), core.UploadOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer obs.Apply(obs.Config{})
	const batch = 1000
	modes := []obsMode{obsModes[0], obsModes[2]}
	run := func(m obsMode) time.Duration {
		obs.Apply(m.cfg)
		t0 := time.Now()
		for k := 0; k < batch; k++ {
			drainQuery(b, s.Conn(), "SELECT name FROM trial WHERE id = ?", tr.ID)
		}
		return time.Since(t0)
	}
	for _, m := range modes {
		run(m) // warm the statement cache and the span ring
	}
	fastest := make([]time.Duration, len(modes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, m := range modes {
			if d := run(m); fastest[k] == 0 || d < fastest[k] {
				fastest[k] = d
			}
		}
	}
	b.StopTimer()
	for k, m := range modes {
		b.ReportMetric(float64(fastest[k].Nanoseconds())/batch, m.name+"-ns/query")
	}
	b.ReportMetric(100*(fastest[1].Seconds()/fastest[0].Seconds()-1), "trace-overhead-%")
}

// --- ablations (DESIGN.md §4) ---

// BenchmarkAblationBatchInsert compares bulk-insert batch sizes, uploading
// into a new archive per iteration.
func BenchmarkAblationBatchInsert(b *testing.B) {
	p := synth.LargeTrial(synth.LargeTrialConfig{Threads: 128, Events: 40, Metrics: 1, Seed: 4})
	for _, batch := range []int{1, 64, 256} {
		b.Run(fmt.Sprintf("batch-%d", batch), func(b *testing.B) {
			onFreshArchives(b, "ab-batch", nil, func(s *core.DataSession) {
				if _, err := s.UploadTrial(p, core.UploadOptions{BatchSize: batch}); err != nil {
					b.Fatal(err)
				}
			}, nil)
			b.ReportMetric(float64(p.DataPoints())*float64(b.N)/b.Elapsed().Seconds(), "points/s")
		})
	}
}

// BenchmarkAblationIndex compares the indexed download of the last of six
// trials with the same download after ix_ilp_event is dropped. Both must
// return every data point of the trial.
func BenchmarkAblationIndex(b *testing.B) {
	for _, variant := range []struct {
		name string
		drop bool
	}{{"with-index", false}, {"full-scan", true}} {
		b.Run(variant.name, func(b *testing.B) {
			s := benchArchive(b, "ab-index")
			var p *model.Profile
			var trial *core.Trial
			for i := 0; i < 6; i++ {
				p = synth.LargeTrial(synth.LargeTrialConfig{Threads: 64, Events: 30, Metrics: 1, Seed: int64(i)})
				var err error
				if trial, err = s.UploadTrial(p, core.UploadOptions{}); err != nil {
					b.Fatal(err)
				}
			}
			if variant.drop {
				if _, err := s.Conn().Exec("DROP INDEX ix_ilp_event ON interval_location_profile"); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				loaded, err := s.LoadTrial(trial.ID)
				if err != nil {
					b.Fatal(err)
				}
				if loaded.DataPoints() != p.DataPoints() {
					b.Fatalf("loaded %d data points, want %d", loaded.DataPoints(), p.DataPoints())
				}
			}
		})
	}
}

// BenchmarkAblationSummary compares precomputed summary tables with
// aggregate-on-demand queries.
func BenchmarkAblationSummary(b *testing.B) {
	s := benchArchive(b, "ab-summary")
	p := synth.LargeTrial(synth.LargeTrialConfig{Threads: 128, Events: 40, Metrics: 1, Seed: 6})
	trial, err := s.UploadTrial(p, core.UploadOptions{})
	if err != nil {
		b.Fatal(err)
	}
	s.SetTrial(trial)
	b.Run("precomputed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rows, err := s.MeanSummary("TIME")
			if err != nil || len(rows) != 40 {
				b.Fatalf("%v (%d rows)", err, len(rows))
			}
		}
	})
	b.Run("on-demand", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rs, err := s.Conn().Query(`
				SELECT e.name, AVG(p.exclusive)
				FROM interval_event e
				JOIN interval_location_profile p ON p.interval_event = e.id
				WHERE e.trial = ?
				GROUP BY e.name`, trial.ID)
			if err != nil {
				b.Fatal(err)
			}
			n := 0
			for rs.Next() {
				n++
			}
			rs.Close()
			if n != 40 {
				b.Fatalf("%d rows", n)
			}
		}
	})
}

// BenchmarkAblationSeeding compares k-means++ with uniform seeding. Each
// iteration runs single-restart k-means from seeds 0–9 and reports the
// worst RSS (quality) among them, so the metric does not depend on b.N.
func BenchmarkAblationSeeding(b *testing.B) {
	s := benchArchive(b, "ab-seed")
	p, _ := synth.CounterTrial(synth.CounterConfig{Threads: 256, Seed: 7})
	trial, err := s.UploadTrial(p, core.UploadOptions{})
	if err != nil {
		b.Fatal(err)
	}
	fm, err := mining.ExtractFeatures(s, trial.ID, nil)
	if err != nil {
		b.Fatal(err)
	}
	fm.Normalize(mining.NormZScore)
	for _, variant := range []struct {
		name  string
		plain bool
	}{{"kmeans++", false}, {"uniform", true}} {
		b.Run(variant.name, func(b *testing.B) {
			worst := 0.0
			for i := 0; i < b.N; i++ {
				worst = 0
				for seed := int64(0); seed < 10; seed++ {
					cl, err := mining.KMeans(fm.Rows, mining.KMeansConfig{
						K: 3, Seed: seed, PlainRNG: variant.plain, Restarts: 1,
					})
					if err != nil {
						b.Fatal(err)
					}
					worst = max(worst, cl.RSS)
				}
			}
			b.ReportMetric(worst, "worst-rss")
		})
	}
}

func clusterAgreement(assign, truth []int, k int) float64 {
	match := 0
	for c := 0; c < k; c++ {
		counts := map[int]int{}
		for i, a := range assign {
			if a == c {
				counts[truth[i]]++
			}
		}
		best := 0
		for _, n := range counts {
			if n > best {
				best = n
			}
		}
		match += best
	}
	return float64(match) / float64(len(assign))
}
