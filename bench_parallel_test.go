package perfdmf

// Benchmarks for the parallel query executor (ROADMAP: parallel execution
// layer). The scan and GROUP BY benchmarks each upload one Miranda-scale
// trial (≥1M data points), sweep the ?workers=N budget over it so the paths
// can be compared serial vs parallel with benchstat, and drop it when they
// finish. On a
// single-core runner the parallel rows are correctness exercise only —
// check the reported gomaxprocs metric before reading them as speedups.

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"perfdmf/internal/core"
	"perfdmf/internal/godbc"
	"perfdmf/internal/obs"
	"perfdmf/internal/synth"
)

const parallelBenchDSN = "mem:bench_parallel_shared"

// parallelBenchSetup uploads the shared trial (10240 threads × 101 events
// ≈ 1.03M interval_location_profile rows) and drops it when the benchmark
// finishes: its ~500 MB would otherwise stay live under every later
// benchmark of the run.
func parallelBenchSetup(b *testing.B) {
	b.Helper()
	s, drop := memArchive(b, parallelBenchDSN)
	b.Cleanup(drop)
	p := synth.LargeTrial(synth.LargeTrialConfig{Threads: 10240, Events: 101, Metrics: 1, Seed: 1})
	if _, err := s.UploadTrial(p, core.UploadOptions{}); err != nil {
		b.Fatal(err)
	}
}

func benchWorkersConn(b *testing.B, workers int, columnar bool) godbc.Conn {
	b.Helper()
	dsn := fmt.Sprintf("%s?workers=%d", parallelBenchDSN, workers)
	if !columnar {
		dsn += "&columnar=0"
	}
	c, err := godbc.Open(dsn)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	return c
}

func drainQuery(b *testing.B, c godbc.Conn, q string, args ...any) {
	b.Helper()
	rows, err := c.Query(q, args...)
	if err != nil {
		b.Fatal(err)
	}
	for rows.Next() {
	}
	if err := rows.Err(); err != nil {
		b.Fatal(err)
	}
	rows.Close()
}

// fetchAll materializes a query's full result as Go values.
func fetchAll(b *testing.B, c godbc.Conn, q string) [][]any {
	b.Helper()
	rows, err := c.Query(q)
	if err != nil {
		b.Fatal(err)
	}
	defer rows.Close()
	var out [][]any
	for rows.Next() {
		row := make([]any, len(rows.Columns()))
		for i := range row {
			row[i] = rows.Value(i)
		}
		out = append(out, row)
	}
	if err := rows.Err(); err != nil {
		b.Fatal(err)
	}
	return out
}

// BenchmarkParallelScan measures the row path's filtered full scan (WHERE
// folded into the partition workers) over the shared 1M-row trial. The
// connections disable the columnar path, so a lazy segment build never
// switches paths partway through the sweep.
func BenchmarkParallelScan(b *testing.B) {
	parallelBenchSetup(b)
	const q = `SELECT COUNT(*) FROM interval_location_profile WHERE exclusive > ? AND call > 0`
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			c := benchWorkersConn(b, w, false)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				drainQuery(b, c, q, 100.0)
			}
			b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
		})
	}
}

// Columnar GROUP BY targets: the vectorized path at least 3× the row path
// at one worker, and at least 2.5× scaling at eight workers on a runner
// with the cores to show it.
const (
	columnarSpeedupTarget = 3.0
	columnarScalingTarget = 2.5
)

// BenchmarkParallelGroupBy measures the chunked partial aggregation over
// all 101 event groups of the shared trial on both execution paths: first
// the row path (row/workers-N, on ?columnar=0 connections), then, after
// COMPACT seals the table's segments, the vectorized path
// (columnar/workers-N). Every sub-benchmark checks through
// sqlexec_columnar_scans_total that only its own path ran, so no timing
// includes a lazy segment build or a mid-sweep path switch. The benchmark
// fails when the paths' results differ, when columnar at one worker is
// under columnarSpeedupTarget× the row path, or, with GOMAXPROCS ≥ 8, when
// columnar scales under columnarScalingTarget× at eight workers.
func BenchmarkParallelGroupBy(b *testing.B) {
	parallelBenchSetup(b)
	const q = `SELECT interval_event, COUNT(*), SUM(exclusive), AVG(inclusive),
			MIN(exclusive), MAX(exclusive)
		FROM interval_location_profile GROUP BY interval_event`
	columnarScans := obs.Default.Counter("sqlexec_columnar_scans_total")
	workers := []int{1, 2, 4, 8}
	nsPerOp := map[string]float64{}
	var reference [][]any
	sweep := func(path string, columnar bool) {
		for _, w := range workers {
			name := fmt.Sprintf("%s/workers-%d", path, w)
			b.Run(name, func(b *testing.B) {
				c := benchWorkersConn(b, w, columnar)
				before := columnarScans.Value()
				// The untimed first run warms the connection and yields the
				// result every path and budget must reproduce bitwise.
				got := fetchAll(b, c, q)
				if reference == nil {
					reference = got
				} else if !reflect.DeepEqual(got, reference) {
					b.Fatalf("%s returned a different result than the first sub-benchmark", name)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					drainQuery(b, c, q)
				}
				b.StopTimer()
				want := int64(0)
				if columnar {
					want = int64(b.N) + 1
				}
				if ran := columnarScans.Value() - before; ran != want {
					b.Fatalf("%s: %d of %d queries took the columnar path, want %d", name, ran, b.N+1, want)
				}
				nsPerOp[name] = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
				b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
				if row, ok := nsPerOp[fmt.Sprintf("row/workers-%d", w)]; ok && columnar {
					b.ReportMetric(row/nsPerOp[name], "x-vs-row")
				}
			})
		}
	}
	sweep("row", false)
	if _, err := benchWorkersConn(b, 0, true).Exec("COMPACT interval_location_profile"); err != nil {
		b.Fatal(err)
	}
	sweep("columnar", true)

	row1, col1, col8 := nsPerOp["row/workers-1"], nsPerOp["columnar/workers-1"], nsPerOp["columnar/workers-8"]
	if row1 > 0 && col1 > 0 {
		if speedup := row1 / col1; speedup < columnarSpeedupTarget {
			b.Fatalf("columnar GROUP BY is %.2fx the row path at workers-1, want >= %.1fx", speedup, columnarSpeedupTarget)
		}
	}
	if col1 > 0 && col8 > 0 && runtime.GOMAXPROCS(0) >= 8 {
		if scaling := col1 / col8; scaling < columnarScalingTarget {
			b.Fatalf("columnar GROUP BY scales %.2fx at workers-8, want >= %.1fx", scaling, columnarScalingTarget)
		}
	}
}

// BenchmarkPlanCache pits the statement/plan cache's hit path (one text,
// repeated) against guaranteed misses (a distinct text every iteration).
// Both read one metric row, so a small trial serves.
func BenchmarkPlanCache(b *testing.B) {
	s := benchArchive(b, "plancache")
	p := synth.LargeTrial(synth.LargeTrialConfig{Threads: 4, Events: 8, Metrics: 1, Seed: 1})
	if _, err := s.UploadTrial(p, core.UploadOptions{}); err != nil {
		b.Fatal(err)
	}
	c := s.Conn()
	b.Run("hit", func(b *testing.B) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			drainQuery(b, c, "SELECT id, name FROM metric WHERE id = ?", 1)
		}
	})
	b.Run("miss", func(b *testing.B) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Unique LIMIT keeps every text distinct (guaranteed reparse)
			// while the result stays identical to the hit benchmark's.
			drainQuery(b, c, fmt.Sprintf("SELECT id, name FROM metric WHERE id = ? LIMIT %d", i+1), 1)
		}
	})
}
