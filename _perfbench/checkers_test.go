package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// The three tests share one fixture (a full set-up takes a few seconds);
// each leaves the archive as it found it.
var shared *fixture

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	shared, err = setup(dir, 7)
	code := 1
	if err != nil {
		fmt.Fprintln(os.Stderr, "set-up:", err)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

func openWorker(t *testing.T) *worker {
	t.Helper()
	w, err := newWorker(shared)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.close() })
	return w
}

// dropUploads deletes what an uploader left behind.
func dropUploads(t *testing.T, u *uploader) {
	t.Helper()
	for _, l := range u.live {
		if err := u.w.s.DeleteTrial(l.id); err != nil {
			t.Fatal(err)
		}
	}
}

// expectFailures asserts the recorder's tallies.
func expectFailures(t *testing.T, rec *recorder, attempted, failed int) {
	t.Helper()
	if rec.attempted != attempted || rec.failed != failed {
		rec.report(t.Name())
		t.Fatalf("attempted %d failed %d, want attempted %d failed %d", rec.attempted, rec.failed, attempted, failed)
	}
}

func TestIngestCheckerCountsFailures(t *testing.T) {
	w := openWorker(t)
	u := newUploader(w, shared, 1)
	defer dropUploads(t, u)
	rec := newRecorder()
	// One cycle through every input: the TAU runs first, each fixture
	// followed by the delete of its trial.
	for i := range shared.inputs {
		u.step(rec, &shared.inputs[i], time.Time{})
	}
	deletes := len(shared.inputs) - tauRuns
	expectFailures(t, rec, len(shared.inputs)+deletes, 0)
	n := rec.attempted

	// A wrong result: the stored trial disagrees with the input's reference.
	wrong := shared.inputs[0]
	wrong.firstEventRows++
	u.upload(rec, &wrong, time.Time{})
	expectFailures(t, rec, n+1, 1)

	// An erroring op: the input cannot be parsed.
	missing := shared.inputs[0]
	missing.path = filepath.Join(t.TempDir(), "missing")
	u.upload(rec, &missing, time.Time{})
	expectFailures(t, rec, n+2, 2)

	// A delete that left the trial behind.
	live := u.live[0].id
	do(rec, opDelete, time.Time{}, func() error { return nil }, func() error { return checkDeleted(w.chk, live) })
	expectFailures(t, rec, n+3, 3)
}

func TestBrowseCheckerCountsFailures(t *testing.T) {
	w := openWorker(t)
	a := &analyst{w: w, ref: shared.ref, rng: rand.New(rand.NewSource(1))}
	rec := newRecorder()
	for _, k := range analystKinds {
		a.op(rec, k)
	}
	expectFailures(t, rec, len(analystKinds), 0)

	// Wrong results: references that disagree with the archive.
	bad := *shared.ref
	bad.trials = nil
	for _, tr := range shared.ref.trials {
		want := map[string]float64{}
		for k, v := range tr.want {
			want[k] = v * 2
		}
		bad.trials = append(bad.trials, summaryRef{id: tr.id, want: want})
	}
	bad.truth = append([]int(nil), shared.ref.truth...)
	bad.truth[0] = (bad.truth[0] + 1) % 3
	bad.groupby = map[int64]groupRow{}
	for k, g := range shared.ref.groupby {
		g.count++
		bad.groupby[k] = g
	}
	bad.groupbySetup = bad.groupby
	a.ref = &bad
	for _, k := range []string{opSummary, opCluster, opGroupBy} {
		a.op(rec, k)
	}
	expectFailures(t, rec, len(analystKinds)+3, 3)

	// An erroring op: the session is closed.
	a.ref = shared.ref
	w.s.Close()
	a.op(rec, opLoadTrial)
	expectFailures(t, rec, len(analystKinds)+4, 4)
}

func TestMixedCheckerCountsFailures(t *testing.T) {
	reader, writer := openWorker(t), openWorker(t)
	u := newUploader(writer, shared, 2)
	defer dropUploads(t, u)
	rec := newRecorder()
	var late []time.Duration
	done := make(chan struct{})
	go func() {
		defer close(done)
		u.openLoop(rec, time.Now().Add(time.Second), 400*time.Millisecond, &late)
	}()
	a := &analyst{w: reader, ref: shared.ref, rng: rand.New(rand.NewSource(2)), extraGroups: true}
	a.op(rec, opSummary)
	<-done
	uploads := rec.attempted - 1
	if uploads < 2 || len(late) != uploads {
		t.Fatalf("open loop made %d uploads with %d lateness samples", uploads, len(late))
	}
	// With uploads live, GROUP BY returns their groups too: accepted in
	// mixed, where the setup groups must still match the reference.
	a.op(rec, opGroupBy)
	expectFailures(t, rec, uploads+2, 0)

	// A wrong result: the extra groups are an error where none may exist.
	a.extraGroups = false
	a.op(rec, opGroupBy)
	expectFailures(t, rec, uploads+3, 1)

	// An erroring op: the reader's session is closed.
	a.extraGroups = true
	reader.s.Close()
	a.op(rec, opGroupBy)
	expectFailures(t, rec, uploads+4, 2)
}
