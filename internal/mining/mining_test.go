package mining

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"perfdmf/internal/core"
	"perfdmf/internal/synth"
)

// blobs builds n points around k well-separated centers.
func blobs(n, k, dims int, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, n)
	truth := make([]int, n)
	for i := range rows {
		c := i % k
		truth[i] = c
		row := make([]float64, dims)
		for d := range row {
			center := 0.0
			if d%k == c {
				center = 10
			}
			row[d] = center + rng.NormFloat64()*0.3
		}
		rows[i] = row
	}
	return rows, truth
}

// agreement measures how well assignments match truth up to relabeling,
// via best-match per cluster.
func agreement(assign, truth []int, k int) float64 {
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

// TestKMeansRecoversBlobs runs k-means++ seeding and, as the seeding
// ablation does, uniform seeding with a single restart.
func TestKMeansRecoversBlobs(t *testing.T) {
	rows, truth := blobs(300, 3, 6, 1)
	for _, cfg := range []KMeansConfig{
		{K: 3, Seed: 42},
		{K: 3, Seed: 42, PlainRNG: true, Restarts: 1},
	} {
		cl, err := KMeans(rows, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := agreement(cl.Assignments, truth, 3); got < 0.98 {
			t.Fatalf("%+v: agreement = %g", cfg, got)
		}
		if cl.Sizes[0]+cl.Sizes[1]+cl.Sizes[2] != 300 {
			t.Fatalf("%+v: sizes: %v", cfg, cl.Sizes)
		}
		if cl.RSS <= 0 {
			t.Fatalf("%+v: rss: %g", cfg, cl.RSS)
		}
	}
}

func TestKMeansEdgeCases(t *testing.T) {
	if _, err := KMeans(nil, KMeansConfig{K: 1}); err == nil {
		t.Error("empty data accepted")
	}
	rows := [][]float64{{1, 2}, {3, 4}}
	if _, err := KMeans(rows, KMeansConfig{K: 3}); err == nil {
		t.Error("k > n accepted")
	}
	if _, err := KMeans(rows, KMeansConfig{K: 0}); err == nil {
		t.Error("k = 0 accepted")
	}
	if _, err := KMeans([][]float64{{1}, {2, 3}}, KMeansConfig{K: 1}); err == nil {
		t.Error("ragged matrix accepted")
	}
	// k = n: every point its own cluster, RSS = 0.
	cl, err := KMeans(rows, KMeansConfig{K: 2, Seed: 1})
	if err != nil || cl.RSS != 0 {
		t.Fatalf("k=n: %+v %v", cl, err)
	}
	// Identical points.
	same := [][]float64{{5, 5}, {5, 5}, {5, 5}}
	cl, err = KMeans(same, KMeansConfig{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cl.RSS != 0 {
		t.Fatalf("identical points rss: %g", cl.RSS)
	}
}

// Property: RSS never increases when k grows (with shared seeding the
// optimum can only improve or stay equal within tolerance).
func TestRSSMonotoneInK(t *testing.T) {
	rows, _ := blobs(120, 4, 5, 7)
	prev := math.Inf(1)
	for k := 1; k <= 6; k++ {
		cl, err := KMeans(rows, KMeansConfig{K: k, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		if cl.RSS > prev*1.05 {
			t.Fatalf("k=%d rss %g > k-1 rss %g", k, cl.RSS, prev)
		}
		if cl.RSS < prev {
			prev = cl.RSS
		}
	}
}

func TestChooseK(t *testing.T) {
	rows, _ := blobs(200, 3, 6, 5)
	k, all, err := ChooseK(rows, 6, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if k != 3 {
		t.Fatalf("chose k=%d, want 3 (rss: %v)", k, rssOf(all))
	}
}

func rssOf(all []*Clustering) []float64 {
	out := make([]float64, len(all))
	for i, c := range all {
		out[i] = c.RSS
	}
	return out
}

func TestPCA(t *testing.T) {
	// Points on a noisy line y = 2x: first component must dominate and
	// align with (1,2)/√5.
	rng := rand.New(rand.NewSource(2))
	rows := make([][]float64, 200)
	for i := range rows {
		x := rng.NormFloat64()
		rows[i] = []float64{x, 2*x + 0.01*rng.NormFloat64()}
	}
	pca, err := PrincipalComponents(rows)
	if err != nil {
		t.Fatal(err)
	}
	if pca.Explained[0] < 0.99 {
		t.Fatalf("explained: %v", pca.Explained)
	}
	c := pca.Components[0]
	ratio := c[1] / c[0]
	if math.Abs(math.Abs(ratio)-2) > 0.05 {
		t.Fatalf("component direction: %v", c)
	}
	// Projection has the right shape and centers the data.
	proj := pca.Project(rows, 1)
	if len(proj) != 200 || len(proj[0]) != 1 {
		t.Fatalf("projection shape")
	}
	mean := 0.0
	for _, p := range proj {
		mean += p[0]
	}
	if math.Abs(mean/200) > 1e-6 {
		t.Fatalf("projection not centered: %g", mean/200)
	}
	if _, err := PrincipalComponents(rows[:1]); err == nil {
		t.Error("single row accepted")
	}
}

// Property: eigen-decomposition reconstructs the covariance action:
// total variance equals the trace within tolerance.
func TestPCAVarianceConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := make([][]float64, 30)
		for i := range rows {
			rows[i] = []float64{rng.NormFloat64(), rng.NormFloat64() * 3, rng.NormFloat64() * 0.5}
		}
		pca, err := PrincipalComponents(rows)
		if err != nil {
			return false
		}
		// Trace of covariance = sum of per-dimension variances.
		trace := 0.0
		for d := 0; d < 3; d++ {
			mean, sq := 0.0, 0.0
			for _, r := range rows {
				mean += r[d]
				sq += r[d] * r[d]
			}
			mean /= 30
			trace += (sq - 30*mean*mean) / 29
		}
		sum := 0.0
		for _, v := range pca.Variance {
			sum += v
		}
		return math.Abs(sum-trace) < 1e-9*math.Max(1, trace)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestNormalize(t *testing.T) {
	fm := &FeatureMatrix{
		Columns: []string{"a", "b", "c"},
		Rows:    [][]float64{{1, 10, 5}, {2, 20, 5}, {3, 30, 5}},
	}
	fm.Normalize(NormZScore)
	for d := 0; d < 2; d++ {
		mean := (fm.Rows[0][d] + fm.Rows[1][d] + fm.Rows[2][d]) / 3
		if math.Abs(mean) > 1e-12 {
			t.Fatalf("zscore col %d mean %g", d, mean)
		}
	}
	if fm.Rows[0][2] != 0 {
		t.Fatal("constant column should become 0")
	}
	fm2 := &FeatureMatrix{
		Columns: []string{"a"},
		Rows:    [][]float64{{5}, {15}, {10}},
	}
	fm2.Normalize(NormMinMax)
	if fm2.Rows[0][0] != 0 || fm2.Rows[1][0] != 1 || fm2.Rows[2][0] != 0.5 {
		t.Fatalf("minmax: %v", fm2.Rows)
	}
}

func TestRangeString(t *testing.T) {
	cases := []struct {
		in   []int64
		want string
	}{
		{nil, ""},
		{[]int64{3}, "3"},
		{[]int64{0, 1, 2, 3}, "0-3"},
		{[]int64{0, 2, 3, 7}, "0,2-3,7"},
		{[]int64{5, 5, 6}, "5-6"},
	}
	for _, c := range cases {
		if got := rangeString(c.in); got != c.want {
			t.Errorf("rangeString(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

// miningArchive uploads an sPPM-like trial and returns session, trial id
// and the planted class assignment.
func miningArchive(t *testing.T, threads int) (*core.DataSession, int64, []int) {
	t.Helper()
	s, err := core.Open(fmt.Sprintf("mem:mining_%s_%d", t.Name(), threads))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	app := &core.Application{Name: "sPPM"}
	s.SaveApplication(app)
	s.SetApplication(app)
	exp := &core.Experiment{Name: "counters"}
	s.SaveExperiment(exp)
	s.SetExperiment(exp)
	p, truth := synth.CounterTrial(synth.CounterConfig{Threads: threads, Seed: 99})
	trial, err := s.UploadTrial(p, core.UploadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return s, trial.ID, truth
}

func TestExtractFeatures(t *testing.T) {
	s, trialID, _ := miningArchive(t, 16)
	fm, err := ExtractFeatures(s, trialID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(fm.Rows) != 16 {
		t.Fatalf("rows: %d", len(fm.Rows))
	}
	// 5 routines × 8 metrics.
	if len(fm.Columns) != 40 {
		t.Fatalf("columns: %d", len(fm.Columns))
	}
	// Rows sorted by node.
	for i := 1; i < len(fm.Threads); i++ {
		if fm.Threads[i].Node < fm.Threads[i-1].Node {
			t.Fatal("rows not sorted")
		}
	}
	// Metric subset restricts columns.
	fm2, err := ExtractFeatures(s, trialID, []string{"PAPI_FP_OPS"})
	if err != nil {
		t.Fatal(err)
	}
	if len(fm2.Columns) != 5 {
		t.Fatalf("subset columns: %d", len(fm2.Columns))
	}
	if _, err := ExtractFeatures(s, trialID, []string{"NOPE"}); err == nil {
		t.Error("unknown metric accepted")
	}
	if _, err := ExtractFeatures(s, 9999, nil); err == nil {
		t.Error("missing trial accepted")
	}
}

func TestClusteringRecoversPlantedClasses(t *testing.T) {
	s, trialID, truth := miningArchive(t, 64)
	fm, err := ExtractFeatures(s, trialID, nil)
	if err != nil {
		t.Fatal(err)
	}
	fm.Normalize(NormZScore)
	cl, err := KMeans(fm.Rows, KMeansConfig{K: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Feature rows are node-ordered; truth is rank-indexed — align them.
	aligned := make([]int, len(fm.Threads))
	for i, th := range fm.Threads {
		aligned[i] = truth[th.Node]
	}
	if got := agreement(cl.Assignments, aligned, 3); got < 0.95 {
		t.Fatalf("cluster agreement with planted classes = %g", got)
	}
}

func TestSummarize(t *testing.T) {
	s, trialID, _ := miningArchive(t, 16)
	fm, _ := ExtractFeatures(s, trialID, nil)
	cl, err := KMeans(fm.Rows, KMeansConfig{K: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sums := Summarize(fm, cl, 3)
	if len(sums) != 3 {
		t.Fatalf("summaries: %d", len(sums))
	}
	total := 0
	for _, s := range sums {
		total += s.Size
		if s.Size > 0 {
			if len(s.TopDimensions) != 3 {
				t.Fatalf("top dims: %d", len(s.TopDimensions))
			}
			if s.ThreadRange == "" {
				t.Fatal("empty thread range")
			}
		}
	}
	if total != 16 {
		t.Fatalf("sizes sum to %d", total)
	}
}

func TestServerClient(t *testing.T) {
	s, trialID, truth := miningArchive(t, 32)
	srv := NewServer(s)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// List.
	resp, err := c.Do(Request{Op: "list"})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Trials) != 1 || resp.Trials[0].Application != "sPPM" {
		t.Fatalf("list: %+v", resp.Trials)
	}

	// Cluster with fixed k.
	resp, err = c.Do(Request{Op: "cluster", TrialID: trialID, K: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cr := resp.Cluster
	if cr == nil || cr.K != 3 || cr.Threads != 32 {
		t.Fatalf("cluster: %+v", cr)
	}
	aligned := make([]int, cr.Threads)
	for i := 0; i < cr.Threads; i++ {
		aligned[i] = truth[i] // node-ordered rows == rank order here
	}
	if got := agreement(cr.Assignments, aligned, 3); got < 0.9 {
		t.Fatalf("served clustering agreement = %g", got)
	}
	if cr.ResultID == 0 {
		t.Fatal("result not persisted")
	}

	// Results are retrievable.
	resp, err = c.Do(Request{Op: "results", TrialID: trialID})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || resp.Results[0].Method != "kmeans" {
		t.Fatalf("results: %+v", resp.Results)
	}

	// Automatic k selection.
	resp, err = c.Do(Request{Op: "cluster", TrialID: trialID, Seed: 7, MaxK: 6})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cluster.K < 2 || resp.Cluster.K > 6 {
		t.Fatalf("auto k: %d", resp.Cluster.K)
	}

	// Errors propagate.
	if _, err := c.Do(Request{Op: "cluster", TrialID: 424242}); err == nil {
		t.Error("missing trial accepted")
	}
	if _, err := c.Do(Request{Op: "frobnicate"}); err == nil {
		t.Error("unknown op accepted")
	}

	// A second concurrent client works.
	c2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.Do(Request{Op: "list"}); err != nil {
		t.Fatal(err)
	}
}

func TestPearson(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	if r := Pearson(x, y); math.Abs(r-1) > 1e-12 {
		t.Fatalf("perfect correlation: %g", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if r := Pearson(x, neg); math.Abs(r+1) > 1e-12 {
		t.Fatalf("perfect anticorrelation: %g", r)
	}
	flat := []float64{3, 3, 3, 3, 3}
	if r := Pearson(x, flat); r != 0 {
		t.Fatalf("constant vector: %g", r)
	}
	if r := Pearson(nil, nil); r != 0 {
		t.Fatalf("empty: %g", r)
	}
	if r := Pearson(x, []float64{1}); r != 0 {
		t.Fatalf("length mismatch: %g", r)
	}
}

func TestCorrelate(t *testing.T) {
	s, trialID, _ := miningArchive(t, 64)
	corr, err := Correlate(s, trialID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(corr.Metrics) != 8 || len(corr.Matrix) != 8 {
		t.Fatalf("shape: %v", corr.Metrics)
	}
	for i := range corr.Matrix {
		if corr.Matrix[i][i] != 1 {
			t.Fatalf("diagonal: %v", corr.Matrix[i][i])
		}
		for j := range corr.Matrix {
			if math.Abs(corr.Matrix[i][j]-corr.Matrix[j][i]) > 1e-12 {
				t.Fatal("asymmetric matrix")
			}
			if math.IsNaN(corr.Matrix[i][j]) {
				t.Fatal("NaN in matrix")
			}
		}
	}
	// The synthetic classes vary counters per second together within a
	// class: PAPI counters that share the signature structure correlate
	// strongly. At minimum, strong pairs exist at |r| >= 0.8.
	pairs := corr.StrongPairs(0.8)
	if len(pairs) == 0 {
		t.Fatal("no strongly correlated metric pairs found")
	}
	for i := 1; i < len(pairs); i++ {
		if math.Abs(pairs[i].R) > math.Abs(pairs[i-1].R)+1e-12 {
			t.Fatal("pairs not sorted by |r|")
		}
	}
	// Metric subset restricts the matrix.
	sub, err := Correlate(s, trialID, []string{"TIME", "PAPI_FP_OPS"})
	if err != nil || len(sub.Metrics) != 2 {
		t.Fatalf("subset: %v %v", sub, err)
	}
}
