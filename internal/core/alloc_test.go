package core

import (
	"testing"

	"perfdmf/internal/obs"
	"perfdmf/internal/synth"
)

// TestLoadTrialAllocsPerPoint pins the full-trial load's allocation rate.
// The profile table is read by one statement whose cursor references the
// stored rows, and the model carves each thread's interval data from
// fixed blocks, so a 64-thread × 101-event trial loads in at most one heap
// allocation per data point.
func TestLoadTrialAllocsPerPoint(t *testing.T) {
	s := openSession(t)
	p := synth.LargeTrial(synth.LargeTrialConfig{Threads: 64, Events: 101, Metrics: 1, Seed: 1})
	trial := setupTrial(t, s, p)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := s.LoadTrial(trial.ID); err != nil {
			t.Fatal(err)
		}
	})
	per := allocs / float64(p.DataPoints())
	t.Logf("LoadTrial: %.2f allocations per point", per)
	if per > 1 {
		t.Fatalf("LoadTrial: %.2f allocations per point (%.0f for %d points), want at most 1",
			per, allocs, p.DataPoints())
	}
}

// TestLoadTrialStatements pins LoadTrial at one statement per table it
// reads — trial, metric, interval_event, interval_location_profile,
// atomic_event, atomic_location_profile — on a trial with atomic events,
// counted by godbc's statement counters.
func TestLoadTrialStatements(t *testing.T) {
	s := openSession(t)
	want := sampleProfile("stmts")
	trial := setupTrial(t, s, want)
	var counters []*obs.Counter
	for _, name := range []string{"godbc_query_total", "godbc_prepare_total", "godbc_exec_total"} {
		counters = append(counters, obs.Default.Counter(name))
	}
	total := func() (n int64) {
		for _, c := range counters {
			n += c.Value()
		}
		return n
	}
	before := total()
	p, err := s.LoadTrial(trial.ID)
	if err != nil {
		t.Fatal(err)
	}
	if n := total() - before; n > 6 {
		t.Fatalf("LoadTrial issued %d statements, want at most 6", n)
	}
	if len(p.AtomicEvents()) == 0 || p.DataPoints() != want.DataPoints() {
		t.Fatalf("loaded %d atomic events and %d points, want some and %d", len(p.AtomicEvents()), p.DataPoints(), want.DataPoints())
	}
	for _, th := range want.Threads() {
		got := p.FindThread(th.ID.Node, th.ID.Context, th.ID.Thread)
		for _, e := range want.AtomicEvents() {
			w, g := th.FindAtomicData(e.ID), got.FindAtomicData(p.FindAtomicEvent(e.Name).ID)
			if w != nil && (g == nil || g.SampleCount != w.SampleCount || g.Maximum != w.Maximum) {
				t.Fatalf("thread %s atomic %q: got %+v, want %+v", th.ID, e.Name, g, w)
			}
		}
	}
}
