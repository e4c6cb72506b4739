package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"perfdmf/internal/core"
	"perfdmf/internal/formats"
	"perfdmf/internal/godbc"
	"perfdmf/internal/model"
)

// Upload-side op kinds.
const (
	opUpload        = "upload"         // a TAU run: the latencies are these
	opUploadFixture = "upload_fixture" // one of the small fixtures
	opDelete        = "delete"
	opReopen        = "reopen"
	// A set-up reopen runs on a smaller live heap than the run's, so it
	// takes a GC cycle the others do not; reopen_s leaves it out.
	opSetupReopen = "setup.reopen"
)

// liveTrial is an uploaded trial still in the archive.
type liveTrial struct {
	id int64
	in *inputFile
}

// uploader is the write path of E1/E2: parse an on-disk input, upload it
// as a new trial, and keep only the newest retainTrials of them.
type uploader struct {
	w      *worker
	exp    *core.Experiment
	inputs []inputFile
	rng    *rand.Rand
	order  []int
	next   int
	seq    int
	live   []liveTrial
	points int64

	// busy intervals of uploads and deletes, for mixed's read overlap.
	mu    sync.Mutex
	spans [][2]time.Time
}

func newUploader(w *worker, fx *fixture, seed int64) *uploader {
	w.s.SetExperiment(fx.ingest)
	return &uploader{w: w, exp: fx.ingest, inputs: fx.inputs, rng: rand.New(rand.NewSource(seed)),
		live: append([]liveTrial(nil), fx.prefilled...)}
}

// nextInput cycles through the inputs in a fresh seeded order per cycle.
// tauOnly restricts the cycle to the TAU runs.
func (u *uploader) nextInput(tauOnly bool) *inputFile {
	if u.next >= len(u.order) {
		n := len(u.inputs)
		if tauOnly {
			n = tauRuns
		}
		u.order, u.next = u.rng.Perm(n), 0
	}
	in := &u.inputs[u.order[u.next]]
	u.next++
	return in
}

// step uploads one input (timed from due when set) and then enforces
// retention: a fixture's trial is deleted at once, and past retainTrials
// live TAU trials the oldest goes. The archive then holds the same rows
// whenever a run ends, wherever the input cycle stands.
func (u *uploader) step(rec *recorder, in *inputFile, due time.Time) {
	if !u.upload(rec, in, due) {
		return
	}
	if in.format != formats.TAU {
		u.delete(rec, len(u.live)-1)
	} else if len(u.live) > retainTrials {
		u.delete(rec, 0)
	}
}

// upload reports whether the trial was stored, checked or not.
func (u *uploader) upload(rec *recorder, in *inputFile, due time.Time) bool {
	u.seq++
	name := fmt.Sprintf("%s-%d", in.name, u.seq)
	var p *model.Profile
	var tr *core.Trial
	start := due
	if start.IsZero() {
		start = time.Now()
	}
	kind := opUpload
	if in.format != formats.TAU {
		kind = opUploadFixture
	}
	do(rec, kind, start, func() error {
		if err := u.w.layer("formats", func() (err error) {
			p, err = formats.Load(in.format, in.path)
			return err
		}); err != nil {
			return err
		}
		return u.w.layer("core.upload", func() (err error) {
			tr, err = u.w.s.UploadTrial(p, core.UploadOptions{TrialName: name})
			return err
		})
	}, func() error {
		return checkUpload(u.w.chk, p, tr, in)
	})
	u.busy(start)
	if tr == nil {
		return false
	}
	u.live = append(u.live, liveTrial{id: tr.ID, in: in})
	u.points += int64(in.points)
	return true
}

// delete deletes the i-th live trial.
func (u *uploader) delete(rec *recorder, i int) {
	old := u.live[i]
	u.live = append(u.live[:i], u.live[i+1:]...)
	start := time.Now()
	do(rec, opDelete, start, func() error {
		return u.w.layer("core.delete", func() error { return u.w.s.DeleteTrial(old.id) })
	}, func() error {
		return checkDeleted(u.w.chk, old.id)
	})
	u.busy(start)
}

func (u *uploader) busy(start time.Time) {
	u.mu.Lock()
	u.spans = append(u.spans, [2]time.Time{start, time.Now()})
	u.mu.Unlock()
}

// closedLoop uploads back to back until deadline, or n uploads when n > 0.
// tauOnly restricts the inputs to the TAU runs.
func (u *uploader) closedLoop(rec *recorder, deadline time.Time, n int, tauOnly bool) {
	for i := 0; n <= 0 || i < n; i++ {
		if n <= 0 && !time.Now().Before(deadline) {
			return
		}
		u.step(rec, u.nextInput(tauOnly), time.Time{})
	}
}

// openLoop uploads the TAU runs on a fixed schedule of one per interval
// until deadline. Each upload is timed from its due time; lateness records
// how far behind schedule the generator started it.
func (u *uploader) openLoop(rec *recorder, deadline time.Time, interval time.Duration, lateness *[]time.Duration) {
	due := time.Now()
	for due.Before(deadline) {
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		*lateness = append(*lateness, time.Since(due))
		u.step(rec, u.nextInput(true), due)
		due = due.Add(interval)
	}
}

// --- checkers ---

// count runs a single-value COUNT query.
func count(c godbc.Conn, q string, args ...any) (int64, error) {
	rows, err := c.Query(q, args...)
	if err != nil {
		return 0, err
	}
	defer rows.Close()
	var n int64
	if rows.Next() {
		if err := rows.Scan(&n); err != nil {
			return 0, err
		}
	}
	return n, rows.Err()
}

// checkUpload confirms the parse matched the input's reference and the
// stored trial has the input's events and the first event's rows.
func checkUpload(c godbc.Conn, p *model.Profile, tr *core.Trial, in *inputFile) error {
	if p.DataPoints() != in.points {
		return fmt.Errorf("upload %s: parsed %d points, want %d", in.name, p.DataPoints(), in.points)
	}
	n, err := count(c, "SELECT COUNT(*) FROM interval_event WHERE trial = ?", tr.ID)
	if err != nil {
		return err
	}
	if n != int64(in.events) {
		return fmt.Errorf("upload %s: trial %d has %d events, want %d", in.name, tr.ID, n, in.events)
	}
	first, err := count(c, "SELECT MIN(id) FROM interval_event WHERE trial = ?", tr.ID)
	if err != nil {
		return err
	}
	if n, err = count(c, "SELECT COUNT(*) FROM interval_location_profile WHERE interval_event = ?", first); err != nil {
		return err
	}
	if n != int64(in.firstEventRows) {
		return fmt.Errorf("upload %s: first event has %d rows, want %d", in.name, n, in.firstEventRows)
	}
	return nil
}

// checkDeleted confirms the trial and its events are gone.
func checkDeleted(c godbc.Conn, id int64) error {
	n, err := count(c, "SELECT COUNT(*) FROM trial WHERE id = ?", id)
	if err != nil {
		return err
	}
	m, err := count(c, "SELECT COUNT(*) FROM interval_event WHERE trial = ?", id)
	if err != nil {
		return err
	}
	if n != 0 || m != 0 {
		return fmt.Errorf("delete: trial %d still has %d rows and %d events", id, n, m)
	}
	return nil
}

// checkProfile compares a reloaded profile with its reference: the point
// count, and 256 seeded samples of (thread, event) values by name.
func checkProfile(got, want *model.Profile, rng *rand.Rand) error {
	if got == nil || got.DataPoints() != want.DataPoints() {
		return fmt.Errorf("load_trial: point count differs from the reference")
	}
	threads, evs := want.Threads(), want.IntervalEvents()
	for i := 0; i < 256; i++ {
		th := threads[rng.Intn(len(threads))]
		ev := evs[rng.Intn(len(evs))]
		wd := th.FindIntervalData(ev.ID)
		gth := got.FindThread(th.ID.Node, th.ID.Context, th.ID.Thread)
		gev := got.FindIntervalEvent(ev.Name)
		if wd == nil {
			continue
		}
		if gth == nil || gev == nil {
			return fmt.Errorf("load_trial: thread %v or event %q missing", th.ID, ev.Name)
		}
		gd := gth.FindIntervalData(gev.ID)
		if gd == nil || gd.NumCalls != wd.NumCalls {
			return fmt.Errorf("load_trial: %v %q differs", th.ID, ev.Name)
		}
		for _, m := range want.Metrics() {
			gm := got.MetricID(m.Name)
			if gm < 0 || gd.PerMetric[gm] != wd.PerMetric[m.ID] {
				return fmt.Errorf("load_trial: %v %q metric %s differs", th.ID, ev.Name, m.Name)
			}
		}
	}
	return nil
}
