package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"perfdmf/internal/analysis"
	"perfdmf/internal/core"
	"perfdmf/internal/godbc"
	"perfdmf/internal/mining"
	"perfdmf/internal/model"
	"perfdmf/internal/obs"
)

// worker is one client: a decorated session for its ops, a separate check
// connection whose statements the trace leaves out, and its layer
// accounting. A worker belongs to one goroutine.
type worker struct {
	s   *core.DataSession
	tc  *timedConn
	chk godbc.Conn
	lay *layerTimes
}

// newWorker opens a worker on the fixture's archive.
func newWorker(fx *fixture) (*worker, error) {
	s, tc, err := openSession(fx.dsn)
	if err != nil {
		return nil, err
	}
	chk, err := godbc.Open(fx.dsn)
	if err != nil {
		s.Close()
		return nil, err
	}
	if b, ok := chk.(godbc.SpanBinder); ok {
		b.BindSpanContext(checkContext())
	}
	return &worker{s: s, tc: tc, chk: chk, lay: newLayerTimes()}, nil
}

// close releases the check connection, then the session; the session's
// close is the archive's last, so it checkpoints.
func (w *worker) close() error {
	w.chk.Close()
	return w.s.Close()
}

// layer runs fn as a call into the named framework layer. While timing is
// on it charges the call's time, minus the godbc time inside it, to the
// layer.
func (w *worker) layer(name string, fn func() error) error {
	if !w.tc.on {
		return fn()
	}
	g0, n0 := w.tc.t.total(), w.tc.t.stmts()
	t0 := time.Now()
	err := fn()
	w.lay.charge(name, time.Since(t0), w.tc.t.total()-g0, w.tc.t.stmts()-n0)
	return err
}

// do times run, then checks its result outside the timed region, and
// records the op; an error from either counts the op as failed.
func do(rec *recorder, kind string, start time.Time, run, check func() error) {
	if start.IsZero() {
		start = time.Now()
	}
	err := run()
	d := time.Since(start)
	if err == nil {
		err = check()
	}
	rec.add(kind, start, d, err)
}

// The analyst's op kinds, and one round's mix of them.
const (
	opSummary      = "summary"
	opEventProfile = "event_profile"
	opAdhoc        = "adhoc"
	opGroupBy      = "groupby"
	opLoadTrial    = "load_trial"
	opSpeedup      = "speedup"
	opCluster      = "cluster"
)

// mirandaSummaryShare is the share of summaries drawn on the Miranda trial.
const mirandaSummaryShare = 0.3

var analystKinds = []string{opSummary, opEventProfile, opAdhoc, opGroupBy, opLoadTrial, opSpeedup, opCluster}

var roundMix = map[string]int{
	opSummary: 20, opEventProfile: 5, opAdhoc: 5, opGroupBy: 2,
	opLoadTrial: 1, opSpeedup: 1, opCluster: 1,
}

// analyst is the read-only client of §4, §5.2 and §5.3.
type analyst struct {
	w   *worker
	ref *baseRef
	rng *rand.Rand
	seq int
	// prefix marks the kinds of warm-up ops, which the end-to-end
	// latencies leave out.
	prefix string
	// extraGroups tolerates groups the reference lacks: in mixed the
	// uploader's trials add groups of their own.
	extraGroups bool
}

// round returns one seeded, shuffled round of op kinds.
func (a *analyst) round() []string {
	var kinds []string
	for _, k := range analystKinds {
		for i := 0; i < roundMix[k]; i++ {
			kinds = append(kinds, k)
		}
	}
	a.rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	return kinds
}

// run executes rounds until deadline (checked between ops) or, when
// rounds > 0, exactly that many rounds.
func (a *analyst) run(rec *recorder, deadline time.Time, rounds int) {
	for r := 0; rounds <= 0 || r < rounds; r++ {
		for _, k := range a.round() {
			if rounds <= 0 && !time.Now().Before(deadline) {
				return
			}
			a.op(rec, k)
		}
	}
}

// op runs one analyst op of the given kind.
func (a *analyst) op(rec *recorder, kind string) {
	run, check := a.prepare(kind)
	do(rec, a.prefix+kind, time.Time{}, run, check)
}

// prepare draws the op's seeded arguments and returns its timed call and
// its checker.
func (a *analyst) prepare(kind string) (run, check func() error) {
	s, ref := a.w.s, a.ref
	switch kind {
	case opSummary:
		// The Miranda trial has ten times the events of the others, so its
		// summaries form a slow mode; drawing it for 30% of them puts the
		// p50 inside the fast mode and the p90 inside the slow one, never
		// on the edge between them.
		tr := ref.trials[0]
		if a.rng.Float64() >= mirandaSummaryShare {
			tr = ref.trials[1+a.rng.Intn(len(ref.trials)-1)]
		}
		var got []core.SummaryRow
		return func() error {
				return a.w.layer("core.api", func() (err error) {
					s.SetTrial(&core.Trial{ID: tr.id})
					got, err = s.MeanSummary(metricName)
					return err
				})
			}, func() error {
				return checkSummary(got, tr.want)
			}
	case opEventProfile:
		eid := a.rng.Intn(len(ref.mirandaEvents))
		var got []core.EventProfileRow
		return func() error {
				return a.w.layer("core.api", func() (err error) {
					s.SetTrial(&core.Trial{ID: ref.mirandaID})
					got, err = s.EventProfile(ref.mirandaEvents[eid], metricName)
					return err
				})
			}, func() error {
				return checkEventProfile(got, ref, eid)
			}
	case opAdhoc:
		eid, rank := a.rng.Intn(len(ref.mirandaEvents)), a.rng.Intn(mirandaRanks)
		a.seq++
		// Literals inlined and a per-op bound make the text distinct every
		// time, so it misses the statement cache and pays parse and plan.
		q := fmt.Sprintf("SELECT thread, exclusive FROM interval_location_profile WHERE interval_event = %d AND node = %d AND thread < %d",
			ref.mirandaEvents[eid], rank, a.seq)
		var got []float64
		return func() error {
				rows, err := s.Conn().Query(q)
				if err != nil {
					return err
				}
				defer rows.Close()
				for rows.Next() {
					var th int64
					var x float64
					if err := rows.Scan(&th, &x); err != nil {
						return err
					}
					got = append(got, x)
				}
				return rows.Err()
			}, func() error {
				want := ref.miranda.FindThread(rank, 0, 0).FindIntervalData(eid).PerMetric[0].Exclusive
				if len(got) != 1 || got[0] != want {
					return fmt.Errorf("adhoc event %d rank %d: got %v, want [%v]", eid, rank, got, want)
				}
				return nil
			}
	case opGroupBy:
		// Where uploads come and go, only the analyst archive's own groups
		// are fixed; otherwise the archive is exactly as set up.
		want := ref.groupbySetup
		if a.extraGroups {
			want = ref.groupby
		}
		var got map[int64]groupRow
		return func() (err error) {
				got, err = groupBy(s.Conn())
				return err
			}, func() error {
				return checkGroupBy(got, want, a.extraGroups)
			}
	case opLoadTrial:
		var got *model.Profile
		return func() error {
				return a.w.layer("core.download", func() (err error) {
					got, err = s.LoadTrial(ref.mirandaID)
					return err
				})
			}, func() error {
				return checkProfile(got, ref.miranda, a.rng)
			}
	case opSpeedup:
		var got *analysis.SpeedupStudy
		return func() error {
				return a.w.layer("analysis", func() (err error) {
					got, err = analysis.Speedup(s, ref.series, metricName)
					return err
				})
			}, func() error {
				return checkSpeedup(got, ref.speedup)
			}
	case opCluster:
		var fm *mining.FeatureMatrix
		var cl *mining.Clustering
		return func() error {
				if err := a.w.layer("mining.extract", func() (err error) {
					fm, err = mining.ExtractFeatures(s, ref.counterID, nil)
					return err
				}); err != nil {
					return err
				}
				return a.w.layer("mining.kmeans", func() (err error) {
					fm.Normalize(mining.NormZScore)
					cl, err = mining.KMeans(fm.Rows, mining.KMeansConfig{K: 3, Seed: 17})
					return err
				})
			}, func() error {
				return checkCluster(fm, cl, ref.truth)
			}
	}
	panic("perfbench: unknown analyst op " + kind)
}

// warmUp warms a freshly set-up archive; its ops are set-up, not
// measured.
func warmUp(w *worker, ref *baseRef, seed int64) error {
	a := &analyst{w: w, ref: ref, rng: rand.New(rand.NewSource(seed)), prefix: "warmup.", extraGroups: true}
	return a.warm(newRecorder())
}

// warm seals the profile table's columnar segments (COMPACT), runs one
// analyst op of each kind but speedup, then GROUP BYs until the executor
// has taken the columnar path, so no measured op runs before the segment
// build that switches execution paths (the distortion in the P1 sweep).
// Sealing first keeps the warm-up's own GROUP BYs off the row path, so
// they add no fallbacks to sqlexec.columnar_hit_ratio.
func (a *analyst) warm(rec *recorder) error {
	failed := rec.failed
	a.seal(rec, a.prefix+"compact")
	for _, k := range analystKinds {
		// speedup is skipped: its joins take no lazy path and its first run
		// costs no more than later ones, while one run costs seconds.
		if k != opSpeedup {
			a.op(rec, k)
		}
	}
	if n := rec.failed - failed; n > 0 {
		rec.report("warm-up")
		return fmt.Errorf("warm-up: %d ops failed", n)
	}
	columnar := obs.Default.Counter("sqlexec_columnar_scans_total")
	for i := 0; i < 10; i++ {
		c0 := columnar.Value()
		a.op(rec, opGroupBy)
		if columnar.Value() > c0 {
			return nil
		}
	}
	return fmt.Errorf("warm-up: GROUP BY never took the columnar path")
}

// seal seals the profile table's columnar segments (COMPACT), recorded as
// an op of the given kind.
func (a *analyst) seal(rec *recorder, kind string) {
	do(rec, kind, time.Time{}, func() error {
		_, err := a.w.s.Conn().Exec("COMPACT interval_location_profile")
		return err
	}, func() error { return nil })
}

// --- checkers ---

func closeTo(a, b float64) bool {
	return a == b || math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

func checkSummary(got []core.SummaryRow, want map[string]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("summary: %d rows, want %d", len(got), len(want))
	}
	for _, r := range got {
		w, ok := want[r.EventName]
		if !ok || !closeTo(r.Exclusive, w) {
			return fmt.Errorf("summary: event %q exclusive %v, want %v", r.EventName, r.Exclusive, w)
		}
	}
	return nil
}

func checkEventProfile(got []core.EventProfileRow, ref *baseRef, eid int) error {
	if len(got) != mirandaRanks {
		return fmt.Errorf("event_profile: %d rows, want %d", len(got), mirandaRanks)
	}
	for _, r := range got {
		d := ref.miranda.FindThread(int(r.Node), int(r.Context), int(r.Thread)).FindIntervalData(eid)
		if d == nil || d.PerMetric[0].Exclusive != r.Exclusive || d.PerMetric[0].Inclusive != r.Inclusive {
			return fmt.Errorf("event_profile: event %d node %d differs", eid, r.Node)
		}
	}
	return nil
}

// checkGroupBy compares every reference group; extra groups are an error
// unless allowed.
func checkGroupBy(got, want map[int64]groupRow, extra bool) error {
	if !extra && len(got) != len(want) {
		return fmt.Errorf("groupby: %d groups, want %d", len(got), len(want))
	}
	for ev, w := range want {
		g, ok := got[ev]
		if !ok || g.count != w.count || !closeTo(g.sum, w.sum) || !closeTo(g.avg, w.avg) ||
			!closeTo(g.min, w.min) || !closeTo(g.max, w.max) {
			return fmt.Errorf("groupby: event %d got %+v, want %+v", ev, g, w)
		}
	}
	return nil
}

func checkSpeedup(got *analysis.SpeedupStudy, want speedupRef) error {
	if got == nil || len(got.AppSpeed) != len(want.app) || len(got.Routines) != len(want.routines) {
		return fmt.Errorf("speedup: shape differs from reference")
	}
	for i, w := range want.app {
		if !closeTo(got.AppSpeed[i], w) {
			return fmt.Errorf("speedup: app speedup at %d procs %v, want %v", got.Procs[i], got.AppSpeed[i], w)
		}
	}
	for _, r := range got.Routines {
		w, ok := want.routines[r.Name]
		if g := r.Points[len(r.Points)-1].Mean; !ok || !closeTo(g, w) {
			return fmt.Errorf("speedup: routine %q speedup %v, want %v", r.Name, g, w)
		}
	}
	return nil
}

// checkCluster requires the clustering to recover the planted classes
// exactly.
func checkCluster(fm *mining.FeatureMatrix, cl *mining.Clustering, truth []int) error {
	if fm == nil || cl == nil || len(fm.Threads) != len(truth) || len(cl.Assignments) != len(truth) {
		return fmt.Errorf("cluster: wrong number of rows")
	}
	match := 0
	for c := 0; c < cl.K; c++ {
		counts := map[int]int{}
		for i, as := range cl.Assignments {
			if as == c {
				counts[truth[fm.Threads[i].Node]]++
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
	if match != len(truth) {
		return fmt.Errorf("cluster: %d of %d ranks agree with the planted classes", match, len(truth))
	}
	return nil
}
