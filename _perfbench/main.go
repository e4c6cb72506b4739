// Command perfbench is PerfDMF's benchmark: three workloads (ingest,
// browse, mixed) over a seeded, file-backed archive, reporting end-to-end
// metrics from an untraced run (--trace 0) and per-layer metrics from a
// traced run (--trace 1). The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"perfdmf/internal/model"
	"perfdmf/internal/obs"
)

const (
	setupReps    = 5               // set-ups per run; setup_s is their median
	probeUploads = 24              // browse's closed-loop upload probe: six cycles of the TAU runs
	reopenReps   = 20              // reopens in the end phase
	uploadEvery  = time.Second     // mixed's open-loop upload schedule
	minSeconds   = 2 * time.Second // shortest measured phase accepted

	// Probes spread through the measured loop, so what a workload samples
	// only on the side follows the host over the whole run rather than over
	// one burst of a second or two. Both workloads close and reopen the
	// archive every reopenEvery probe periods; browse then warms it up
	// again, ingest runs one analyst round on it. In ingest's other
	// periods the probe is one load_trial.
	probeEvery  = time.Second
	reopenEvery = 2
)

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	dir      string
	traceOut string
}

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	var cfg config
	var seconds float64
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: ingest, browse or mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the inputs and op arguments are drawn from")
	flag.Float64Var(&seconds, "seconds", 10, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.StringVar(&cfg.dir, "dir", ".bench_build/work", "scratch directory for inputs and archives")
	flag.StringVar(&cfg.traceOut, "trace-out", ".bench_build/trace", "directory the traced run writes its spans to")
	flag.Parse()
	cfg.seconds = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace == 1
	if err := validate(cfg, trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	// Tracing is the traced run's alone; PERFDMF_TRACE must not turn it on.
	obs.Apply(obs.Config{})
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func validate(cfg config, trace int) error {
	switch cfg.workload {
	case "ingest", "browse", "mixed":
	default:
		return fmt.Errorf("--workload must be ingest, browse or mixed, not %q", cfg.workload)
	}
	if trace != 0 && trace != 1 {
		return errors.New("--trace must be 0 or 1")
	}
	if cfg.seconds < minSeconds {
		return fmt.Errorf("--seconds must be at least %v", minSeconds)
	}
	return nil
}

// bench is one run's state.
type bench struct {
	cfg      config
	fx       *fixture
	main     *worker // the analyst in browse and mixed, the uploader in ingest
	aux      *worker // mixed's uploader
	an       *analyst
	up       *uploader
	lateness []time.Duration
	lateSkip int           // lateness entries from before the traced window
	tracing  bool          // inside the traced window: new workers time their calls
	retired  []*layerTimes // layer accounting of closed workers
	bytes    int64
	heapMB   float64
}

func run(cfg config) (*result, error) {
	root := filepath.Join(cfg.dir, cfg.workload)
	defer os.RemoveAll(root)
	all := newRecorder() // every op of the run
	fx, w, setupS, err := setupRepeated(root, cfg.seed, setupReps, all)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	b := &bench{cfg: cfg, fx: fx, main: w}
	defer func() {
		if b.main != nil {
			b.main.close()
		}
	}()
	rng := rand.New(rand.NewSource(cfg.seed))
	b.an = &analyst{w: w, ref: fx.ref, rng: rand.New(rand.NewSource(rng.Int63()))}
	switch cfg.workload {
	case "ingest", "browse":
		b.up = newUploader(w, fx, rng.Int63())
		// Ingest's analyst rounds run between uploads.
		b.an.extraGroups = cfg.workload == "ingest"
	case "mixed":
		if b.aux, err = newWorker(fx); err != nil {
			return nil, err
		}
		b.up = newUploader(b.aux, fx, rng.Int63())
		b.an.extraGroups = true
	}
	fmt.Fprintf(os.Stderr, "perfbench: workload=%s seed=%d seconds=%v trace=%v gomaxprocs=%d gogc=%s sync=1 setup_reps=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0), gogc(), setupReps)
	c0 := columnarCounts()

	var calib, tracedMain, rest *recorder
	var tr *tracer
	var points0 int64
	if cfg.trace {
		// Calibration half untraced, then the traced window: the second
		// half, the probe and the end phase.
		calib = newRecorder()
		if err := b.mainPhase(cfg.seconds/2, calib); err != nil {
			return nil, err
		}
		points0, b.lateSkip = b.up.points, len(b.lateness)
		tr = startTrace()
		b.tracing = true
		tracedMain, rest = newRecorder(), newRecorder()
		if err := b.mainPhase(cfg.seconds-cfg.seconds/2, tracedMain); err != nil {
			return nil, err
		}
		if err := b.finish(rest); err != nil {
			return nil, err
		}
		all.merge(calib)
		all.merge(tracedMain)
		all.merge(rest)
	} else {
		if err := b.mainPhase(cfg.seconds, all); err != nil {
			return nil, err
		}
		if err := b.finish(all); err != nil {
			return nil, err
		}
	}
	all.report(cfg.workload)
	all.summary(cfg.workload)
	ratio := columnarRatio(c0, columnarCounts())
	fmt.Fprintf(os.Stderr, "perfbench: sqlexec.columnar_hit_ratio=%.4f attempted=%d failed=%d\n", ratio, all.attempted, all.failed)

	res := &result{Correct: all.failed == 0, Attempted: all.attempted, Failed: all.failed, Metrics: metrics{}}
	if !cfg.trace {
		b.endToEnd(res.Metrics, all, setupS)
		fmt.Fprint(os.Stderr, res.Metrics.table())
		return res, nil
	}
	t, err := tr.stop()
	if err != nil {
		return nil, err
	}
	window := newRecorder()
	window.merge(tracedMain)
	window.merge(rest)
	b.perLayer(res.Metrics, t, window, calib, tracedMain, b.up.points-points0, all)
	if err := writeSpans(filepath.Join(cfg.traceOut, cfg.workload+".jsonl"), t.spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	return res, nil
}

// mainPhase runs the workload's measured loop for d.
func (b *bench) mainPhase(d time.Duration, rec *recorder) error {
	runtime.GC() // start from the same heap whatever came before
	deadline := time.Now().Add(d)
	switch b.cfg.workload {
	case "ingest":
		n := 0
		return interleave(deadline, probeEvery,
			func(until time.Time) { b.up.closedLoop(rec, until, 0, false) },
			func() error {
				if n++; n%reopenEvery != 0 {
					b.an.op(rec, opLoadTrial)
					return nil
				}
				if err := b.reopenProbe(rec, false); err != nil {
					return err
				}
				// The reopen dropped the columnar segments: seal them again,
				// so the round's GROUP BYs take the columnar path as
				// browse's do.
				b.an.seal(rec, "warmup.compact")
				b.an.run(rec, time.Time{}, 1)
				return nil
			})
	case "browse":
		return interleave(deadline, time.Duration(reopenEvery)*probeEvery,
			func(until time.Time) { b.an.run(rec, until, 0) },
			func() error { return b.reopenProbe(rec, true) })
	case "mixed":
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.up.openLoop(rec, deadline, uploadEvery, &b.lateness)
		}()
		b.an.run(rec, deadline, 0)
		wg.Wait()
	}
	return nil
}

// interleave runs loop in slices of every until deadline, with probe
// between slices.
func interleave(deadline time.Time, every time.Duration, loop func(until time.Time), probe func() error) error {
	for {
		until := time.Now().Add(every)
		if !until.Before(deadline) {
			loop(deadline)
			return nil
		}
		loop(until)
		if err := probe(); err != nil {
			return err
		}
	}
}

// reopenProbe closes the archive (a checkpoint) and reopens it as a timed
// reopen op. With warm set it warms the archive up again, so every timed
// read after it runs on sealed columnar segments as before.
func (b *bench) reopenProbe(rec *recorder, warm bool) error {
	b.closeMain(rec)
	if err := b.reopenMain(rec); err != nil {
		return err
	}
	if !warm {
		return nil
	}
	a := &analyst{w: b.main, ref: b.fx.ref, rng: b.an.rng, prefix: "warmup.", extraGroups: b.an.extraGroups}
	return a.warm(rec)
}

// closeMain closes the main worker as a timed close op; it holds the
// archive's last connection, so the close checkpoints.
func (b *bench) closeMain(rec *recorder) {
	w := b.main
	b.main = nil
	b.retired = append(b.retired, w.lay)
	w.chk.Close()
	do(rec, "close", time.Time{}, func() error {
		return w.layer("reldb.close", w.s.Close)
	}, func() error { return nil })
}

// reopenMain reopens the archive as a timed reopen op and points every
// client at the new worker. Until then the clients still hold the closed
// worker, as a client that opens its new session before it drops the old
// one would, so every reopen of the run sees the same live heap; after it
// no closed archive stays reachable.
func (b *bench) reopenMain(rec *recorder) error {
	nw, d, err := reopen(b.fx, rec, opReopen)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	nw.tc.on = b.tracing
	if b.tracing {
		nw.lay.charge("reldb.open", d, 0, 0)
	}
	b.main, b.an.w = nw, nw
	if b.aux == nil {
		nw.s.SetExperiment(b.fx.ingest)
		b.up.w = nw
	}
	return nil
}

// finish runs the probe and the end phase: browse probes the upload path;
// then a timed close (checkpoint), timed reopens and the verification ops.
func (b *bench) finish(rec *recorder) error {
	runtime.GC()
	if b.cfg.workload == "browse" {
		b.up.closedLoop(rec, time.Time{}, probeUploads, true)
	}
	live := b.up.live
	if b.aux != nil {
		b.retired = append(b.retired, b.aux.lay)
		if err := b.aux.close(); err != nil {
			return err
		}
		b.aux = nil
	}
	b.closeMain(rec)
	var err error
	if b.bytes, err = treeBytes(filepath.Join(b.fx.dir, archiveSubdir)); err != nil {
		return err
	}

	// Reopen several times (each but the last closed again, which
	// checkpoints once more).
	for i := 0; i < reopenReps; i++ {
		if i > 0 {
			b.retired = append(b.retired, b.main.lay)
			w := b.main
			b.main = nil
			w.close()
		}
		if err := b.reopenMain(rec); err != nil {
			return err
		}
	}
	nw := b.main
	b.verify(rec, nw, live)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.heapMB = float64(ms.HeapAlloc) / (1 << 20)
	b.retired = append(b.retired, nw.lay)
	return nil
}

// verify checks the reopened archive: the row count of every live trial
// plus the set-up trials, and a LoadTrial round trip of the newest upload
// against its parsed input.
func (b *bench) verify(rec *recorder, w *worker, live []liveTrial) {
	want := int64(b.fx.ref.basePoints)
	for _, t := range live {
		want += int64(t.in.points)
	}
	var got int64
	do(rec, "verify_rows", time.Time{}, func() (err error) {
		got, err = count(w.s.Conn(), "SELECT COUNT(*) FROM interval_location_profile")
		return err
	}, func() error {
		if got != want {
			return fmt.Errorf("archive holds %d profile rows, want %d", got, want)
		}
		return nil
	})
	if len(live) == 0 {
		return
	}
	last := live[len(live)-1]
	rng := rand.New(rand.NewSource(b.cfg.seed))
	var p *model.Profile
	do(rec, "verify_load", time.Time{}, func() error {
		return w.layer("core.download", func() (err error) {
			p, err = w.s.LoadTrial(last.id)
			return err
		})
	}, func() error { return checkProfile(p, last.in.ref, rng) })
}

func gogc() string {
	if v := os.Getenv("GOGC"); v != "" {
		return v
	}
	return "100 (default)"
}

// columnarCounts reads the columnar scan and fallback counters.
func columnarCounts() [2]int64 {
	return [2]int64{
		obs.Default.Counter("sqlexec_columnar_scans_total").Value(),
		obs.Default.Counter("sqlexec_columnar_fallbacks_total").Value(),
	}
}

func columnarRatio(a, b [2]int64) float64 {
	scans, falls := b[0]-a[0], b[1]-a[1]
	if scans+falls == 0 {
		return 0
	}
	return float64(scans) / float64(scans+falls)
}
