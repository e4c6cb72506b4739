package core

import (
	"testing"

	"perfdmf/internal/synth"
)

// TestLoadTrialAllocsPerPoint pins the full-trial load's allocation rate.
// The executor evaluates plans compiled once per statement and projects
// each result into one backing array, and LoadTrial scans into
// destinations declared outside its row loops, so a 64-thread × 101-event
// trial loads in at most 4 heap allocations per data point.
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
	if per > 4 {
		t.Fatalf("LoadTrial: %.2f allocations per point (%.0f for %d points), want at most 4",
			per, allocs, p.DataPoints())
	}
}
