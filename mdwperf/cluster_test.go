package main

import (
	"testing"

	"mdworm"
	"mdworm/internal/experiments"
	"mdworm/internal/service"
)

// TestCompareClusterCountsPointsOnce checks that a point failing in every
// repetition of a run counts once, so failed depends on the seed and not on
// how many sweeps fitted into the run, and that the known a10 defect still
// counts.
func TestCompareClusterCountsPointsOnce(t *testing.T) {
	ref := &sweepResult{events: map[string]experiments.PointEvent{
		"a10/sync/l0.50": {Tag: "a10/sync/l0.50", Err: &mdworm.DeadlockError{Cycle: 900, Limit: 500}},
		"e1/cb/l0.10":    {Tag: "e1/cb/l0.10", X: 0.1, Throughput: 0.05},
		"e2/ib/l0.20":    {Tag: "e2/ib/l0.20", X: 0.2, Throughput: 0.07},
	}}
	cs := &clusterResult{points: map[string]service.StreamEvent{
		"a10/sync/l0.50": {Tag: "a10/sync/l0.50", Err: "peer w1: 422: engine: no progress for 500 cycles at cycle 900"},
		"e1/cb/l0.10":    {Tag: "e1/cb/l0.10", X: 0.1, Throughput: 0.05},
		"e2/ib/l0.20":    {Tag: "e2/ib/l0.20", X: 0.2, Throughput: 0.08},
	}}
	r := &run{metrics: map[string]float64{}, samples: map[string]int{}, failedTags: map[string]bool{}}
	for sweep := 0; sweep < 3; sweep++ {
		if known := compareCluster(r, cs, ref); known != 1 {
			t.Fatalf("sweep %d: known a10 points = %d, want 1", sweep, known)
		}
	}
	if got := r.failures(); got != 2 {
		t.Errorf("failures after three sweeps = %d, want 2 (the a10 point and the e2 mismatch, once each)", got)
	}
	if !r.failedTags["e2/ib/l0.20"] || !r.failedTags["a10/sync/l0.50"] || r.failedTags["e1/cb/l0.10"] {
		t.Errorf("failed points = %v", r.failedTags)
	}
	if len(r.problems) == 0 {
		t.Error("the e2 mismatch raised no problem; it must make the run incorrect")
	}
}
