package perfdmf

// End-to-end integration test: the full pipeline a real deployment runs —
// generate tool output on disk, auto-detect and parse every format, store
// everything in one durable archive and reload each format's trial, reopen
// the archive, run the speedup analyzer and the PerfExplorer server over
// it, derive a metric, apply the profile algebra, and export to XML. One
// test, every layer.

import (
	"os"
	"path/filepath"
	"testing"

	"perfdmf/internal/analysis"
	"perfdmf/internal/core"
	"perfdmf/internal/formats"
	"perfdmf/internal/formats/xmlprof"
	"perfdmf/internal/mining"
	"perfdmf/internal/model"
	"perfdmf/internal/synth"
)

func TestFullPipeline(t *testing.T) {
	workDir := t.TempDir()
	dbDir := filepath.Join(workDir, "archive")
	dsn := "file:" + dbDir

	// --- Phase 1: import every format into a durable archive. ---
	paths, err := synth.WriteSampleFiles(filepath.Join(workDir, "raw"), 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.Open(dsn)
	if err != nil {
		t.Fatal(err)
	}
	app := &core.Application{Name: "integration"}
	if err := s.SaveApplication(app); err != nil {
		t.Fatal(err)
	}
	s.SetApplication(app)
	exp := &core.Experiment{Name: "imports"}
	if err := s.SaveExperiment(exp); err != nil {
		t.Fatal(err)
	}
	s.SetExperiment(exp)
	for _, format := range formats.All {
		p, err := formats.LoadAuto(paths[format])
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		trial, err := s.UploadTrial(p, core.UploadOptions{TrialName: format})
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		loaded, err := s.LoadTrial(trial.ID)
		if err != nil {
			t.Fatalf("%s reload: %v", format, err)
		}
		if p.DataPoints() == 0 || loaded.DataPoints() != p.DataPoints() || loaded.NumThreads() != p.NumThreads() {
			t.Fatalf("%s: reloaded %d data points on %d threads, parsed %d on %d",
				format, loaded.DataPoints(), loaded.NumThreads(), p.DataPoints(), p.NumThreads())
		}
	}

	// Scaling series for the analyzer, in its own experiment.
	exp2 := &core.Experiment{Name: "scaling"}
	if err := s.SaveExperiment(exp2); err != nil {
		t.Fatal(err)
	}
	s.SetExperiment(exp2)
	for _, p := range synth.ScalingSeries(synth.ScalingConfig{Procs: []int{1, 4, 16}, Seed: 5}) {
		if _, err := s.UploadTrial(p, core.UploadOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	// Counter trial for mining.
	exp3 := &core.Experiment{Name: "counters"}
	if err := s.SaveExperiment(exp3); err != nil {
		t.Fatal(err)
	}
	s.SetExperiment(exp3)
	counterProfile, truth := synth.CounterTrial(synth.CounterConfig{Threads: 32, Seed: 5})
	counterTrial, err := s.UploadTrial(counterProfile, core.UploadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// --- Phase 2: reopen the durable archive and analyze. ---
	s, err = core.Open(dsn)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	apps, err := s.ApplicationList()
	if err != nil || len(apps) != 1 {
		t.Fatalf("apps after reopen: %v %v", apps, err)
	}
	s.SetApplication(apps[0])
	exps, err := s.ExperimentList()
	if err != nil || len(exps) != 3 {
		t.Fatalf("experiments after reopen: %v %v", exps, err)
	}

	// Speedup over the scaling experiment.
	s.SetExperiment(exps[1])
	trials, err := s.TrialList()
	if err != nil || len(trials) != 3 {
		t.Fatalf("scaling trials: %v %v", trials, err)
	}
	study, err := analysis.Speedup(s, trials, "TIME")
	if err != nil {
		t.Fatal(err)
	}
	if study.AppSpeed[2] <= 1 || study.AppEff[2] >= 1 {
		t.Fatalf("study shape: speed=%v eff=%v", study.AppSpeed, study.AppEff)
	}

	// PerfExplorer over the counter trial, via the wire protocol.
	srv := mining.NewServer(s)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := mining.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	resp, err := client.Do(mining.Request{
		Op: "cluster", TrialID: counterTrial.ID, K: 3, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	aligned := make([]int, resp.Cluster.Threads)
	for i := range aligned {
		aligned[i] = truth[i]
	}
	if got := clusterAgreement(resp.Cluster.Assignments, aligned, 3); got < 0.9 {
		t.Fatalf("clustering agreement: %g", got)
	}

	// Derive and persist a metric on the counter trial.
	loaded, err := s.LoadTrial(counterTrial.ID)
	if err != nil {
		t.Fatal(err)
	}
	mid, err := loaded.DeriveMetric("FLOPS", model.Ratio("PAPI_FP_OPS", "TIME", 1e6))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SaveDerivedMetric(counterTrial.ID, loaded, mid); err != nil {
		t.Fatal(err)
	}

	// Profile algebra: mean of the two smallest scaling trials.
	p1, err := s.LoadTrial(trials[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := s.LoadTrial(trials[1].ID)
	if err != nil {
		t.Fatal(err)
	}
	mean, err := analysis.Mean(p1, p2)
	if err != nil {
		t.Fatal(err)
	}
	if mean.FindIntervalEvent("SWEEPX") == nil {
		t.Fatal("algebra lost events")
	}

	// XML export of the derived-metric trial.
	xmlPath := filepath.Join(workDir, "out.xml")
	re, err := s.LoadTrial(counterTrial.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := xmlprof.Write(xmlPath, re); err != nil {
		t.Fatal(err)
	}
	back, err := xmlprof.Read(xmlPath)
	if err != nil {
		t.Fatal(err)
	}
	if back.MetricID("FLOPS") < 0 {
		t.Fatal("derived metric lost in XML round trip")
	}
	if fi, err := os.Stat(xmlPath); err != nil || fi.Size() == 0 {
		t.Fatalf("xml file: %v", err)
	}
}
