package perfdmf

// One benchmark per evaluation experiment (E1–E8 in DESIGN.md §3) and per
// design-choice ablation (§4). The full-scale sweeps — including the
// paper's 16K-processor point — are run by cmd/experiments; the benchmarks
// here use sizes that keep `go test -bench=.` tractable while preserving
// each experiment's shape. Custom metrics report the quantity each
// experiment is about (data points/s, agreement, bytes).

import (
	"fmt"
	"os"
	"testing"
	"time"

	"perfdmf/internal/analysis"
	"perfdmf/internal/core"
	"perfdmf/internal/experiments"
	"perfdmf/internal/formats"
	"perfdmf/internal/mining"
	"perfdmf/internal/obs"
	"perfdmf/internal/synth"
)

func analysisSpeedup(s *core.DataSession, trials []*core.Trial) (*analysis.SpeedupStudy, error) {
	return analysis.Speedup(s, trials, "TIME")
}

var benchCounter int

func benchDSN(tag string) string {
	benchCounter++
	return fmt.Sprintf("mem:bench_%s_%d", tag, benchCounter)
}

// benchArchive opens a session with app+experiment selected.
func benchArchive(b *testing.B, tag string) *core.DataSession {
	b.Helper()
	s, err := core.Open(benchDSN(tag))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
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

// BenchmarkE1LargeTrialUpload measures the §3.1/§5.3 bulk-load path at two
// scales (events fixed at the paper's 101).
func BenchmarkE1LargeTrialUpload(b *testing.B) {
	for _, threads := range []int{512, 2048} {
		b.Run(fmt.Sprintf("threads-%d", threads), func(b *testing.B) {
			p := synth.LargeTrial(synth.LargeTrialConfig{Threads: threads, Events: 101, Metrics: 1, Seed: 1})
			points := float64(p.DataPoints())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := benchArchive(b, "e1up")
				if _, err := s.UploadTrial(p, core.UploadOptions{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(points*float64(b.N)/b.Elapsed().Seconds(), "points/s")
		})
	}
}

// BenchmarkE1LargeTrialLoad measures the full-trial download.
func BenchmarkE1LargeTrialLoad(b *testing.B) {
	for _, threads := range []int{512, 2048} {
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
					b.Fatal("lost data")
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

// BenchmarkE2Import measures parse+upload for each of the paper's formats.
func BenchmarkE2Import(b *testing.B) {
	dir, err := os.MkdirTemp("", "perfdmf-bench-e2")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { os.RemoveAll(dir) })
	paths, err := synth.WriteSampleFiles(dir, 2005)
	if err != nil {
		b.Fatal(err)
	}
	for _, format := range formats.All {
		b.Run(format, func(b *testing.B) {
			s := benchArchive(b, "e2")
			for i := 0; i < b.N; i++ {
				p, err := formats.Load(format, paths[format])
				if err != nil {
					b.Fatal(err)
				}
				if _, err := s.UploadTrial(p, core.UploadOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE3Speedup measures the §5.2 study (upload once, analyze per
// iteration).
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		study, err := analysisSpeedup(s, trials)
		if err != nil {
			b.Fatal(err)
		}
		if len(study.Routines) == 0 {
			b.Fatal("empty study")
		}
	}
}

// BenchmarkE4Cluster measures feature extraction + k-means at the paper's
// thread counts, reporting agreement with the planted classes.
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
			b.ReportMetric(100*agreement, "agreement%")
		})
	}
}

// BenchmarkE5Query compares the object API and raw SQL on both back ends.
func BenchmarkE5Query(b *testing.B) {
	p := synth.LargeTrial(synth.LargeTrialConfig{Threads: 64, Events: 40, Metrics: 1, Seed: 3})
	backends := []struct{ name, dsn string }{
		{"mem", benchDSN("e5")},
	}
	fileDir, err := os.MkdirTemp("", "perfdmf-bench-e5")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { os.RemoveAll(fileDir) })
	backends = append(backends, struct{ name, dsn string }{"file", "file:" + fileDir})

	for _, backend := range backends {
		s, err := core.Open(backend.dsn)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { s.Close() })
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
		trial, err := s.UploadTrial(p, core.UploadOptions{})
		if err != nil {
			b.Fatal(err)
		}
		s.SetTrial(trial)

		b.Run(backend.name+"-api", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := s.MeanSummary("TIME")
				if err != nil || len(rows) == 0 {
					b.Fatal(err)
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
				if n == 0 {
					b.Fatal("empty result")
				}
			}
		})
	}
}

// BenchmarkE6SchemaFlex measures the ALTER TABLE + metadata-discovery flow.
func BenchmarkE6SchemaFlex(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunE6()
		if err != nil {
			b.Fatal(err)
		}
		if !res.FieldsOK || !res.DroppedClean {
			b.Fatal("E6 invariant failed")
		}
	}
}

// BenchmarkE7DerivedMetric measures deriving and persisting FLOPS into an
// existing trial.
func BenchmarkE7DerivedMetric(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunE7(64)
		if err != nil {
			b.Fatal(err)
		}
		if !res.ValueOK {
			b.Fatal("derived value wrong")
		}
	}
}

// BenchmarkE8XMLRoundTrip measures the common-XML export/import path.
func BenchmarkE8XMLRoundTrip(b *testing.B) {
	dir, err := os.MkdirTemp("", "perfdmf-bench-e8")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { os.RemoveAll(dir) })
	var bytes int64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunE8(dir, 32, 30)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Lossless {
			b.Fatal("lossy round trip")
		}
		bytes = res.Bytes
	}
	b.ReportMetric(float64(bytes), "bytes")
}

// BenchmarkObsOverhead is the observability overhead guard: the same
// Miranda-like bulk upload with instrumentation idle (counters only),
// with tracing + slow-query logging on, and with only the slow-query
// threshold armed. The idle case must stay within a few percent of the
// seed's upload rate — the acceptance bound is < 5% — because the bulk
// path then pays just atomic adds per statement.
func BenchmarkObsOverhead(b *testing.B) {
	p := synth.LargeTrial(synth.LargeTrialConfig{Threads: 512, Events: 101, Metrics: 1, Seed: 1})
	points := float64(p.DataPoints())
	variants := []struct {
		name string
		cfg  obs.Config
	}{
		{"off", obs.Config{}},
		{"slowlog", obs.Config{SlowQuery: 50 * time.Millisecond}},
		{"trace", obs.Config{Trace: true, SlowQuery: 50 * time.Millisecond}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			obs.Apply(v.cfg)
			defer obs.Apply(obs.Config{})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := benchArchive(b, "obs-"+v.name)
				if _, err := s.UploadTrial(p, core.UploadOptions{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(points*float64(b.N)/b.Elapsed().Seconds(), "points/s")
		})
	}
}

// --- ablations (DESIGN.md §4) ---

// BenchmarkAblationBatchInsert compares bulk-insert batch sizes.
func BenchmarkAblationBatchInsert(b *testing.B) {
	p := synth.LargeTrial(synth.LargeTrialConfig{Threads: 128, Events: 40, Metrics: 1, Seed: 4})
	for _, batch := range []int{1, 64, 256} {
		b.Run(fmt.Sprintf("batch-%d", batch), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := benchArchive(b, "ab-batch")
				if _, err := s.UploadTrial(p, core.UploadOptions{BatchSize: batch}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(p.DataPoints())*float64(b.N)/b.Elapsed().Seconds(), "points/s")
		})
	}
}

// BenchmarkAblationIndex compares the indexed download with a full scan.
func BenchmarkAblationIndex(b *testing.B) {
	setup := func(b *testing.B) (*core.DataSession, int64) {
		s := benchArchive(b, "ab-index")
		var last int64
		for i := 0; i < 6; i++ {
			p := synth.LargeTrial(synth.LargeTrialConfig{Threads: 64, Events: 30, Metrics: 1, Seed: int64(i)})
			trial, err := s.UploadTrial(p, core.UploadOptions{})
			if err != nil {
				b.Fatal(err)
			}
			last = trial.ID
		}
		return s, last
	}
	b.Run("with-index", func(b *testing.B) {
		s, trialID := setup(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.LoadTrial(trialID); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-scan", func(b *testing.B) {
		s, trialID := setup(b)
		if _, err := s.Conn().Exec("DROP INDEX ix_ilp_event ON interval_location_profile"); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.LoadTrial(trialID); err != nil {
				b.Fatal(err)
			}
		}
	})
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

// BenchmarkAblationSeeding compares k-means++ with uniform seeding,
// reporting the quality (RSS) each achieves in single-restart runs.
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
				cl, err := mining.KMeans(fm.Rows, mining.KMeansConfig{
					K: 3, Seed: int64(i), PlainRNG: variant.plain, Restarts: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				if cl.RSS > worst {
					worst = cl.RSS
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
