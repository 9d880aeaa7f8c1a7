package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/trace"
)

// cappedAnalysis builds a problem whose feasibility dive is a few
// nodes but whose exact binding search is combinatorial: 8 receivers
// with pairwise overlaps, no conflicts, light loads, forced onto 3
// buses.
func cappedAnalysis(t *testing.T) *trace.Analysis {
	t.Helper()
	tr := &trace.Trace{NumReceivers: 8, NumSenders: 1, Horizon: 800}
	for r := 0; r < 8; r++ {
		// Every receiver shares [0,20), so all pairs overlap and any
		// grouping has a positive objective — no zero-cost shortcut
		// ends the binding search early.
		tr.Events = append(tr.Events,
			trace.Event{Start: 0, Len: 20 + 2*int64(r), Sender: 0, Receiver: r},
		)
	}
	a, err := trace.AnalyzeCtx(context.Background(), tr, 100)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestCappedBindingSurfaced is the regression test for the silent
// suboptimal-capped-binding bug: an optimize-mode solve that exhausts
// Options.MaxNodes used to return its greedy incumbent as if it were
// the proven optimum. The truncation must now surface as
// Design.Capped.
func TestCappedBindingSurfaced(t *testing.T) {
	a := cappedAnalysis(t)
	opts := Options{
		OverlapThreshold: -1,
		OptimizeBinding:  true,
		MinBuses:         3,
		Workers:          1,
		MaxNodes:         20, // enough for the feasibility dive, far short of the binding tree
	}
	capped, err := DesignCrossbar(a, opts)
	if err != nil {
		t.Fatalf("capped design errored: %v", err)
	}
	if !capped.Capped {
		t.Fatalf("node-budget-exhausted binding not flagged: %+v", capped)
	}

	opts.MaxNodes = 0 // default budget: the search completes
	full, err := DesignCrossbar(a, opts)
	if err != nil {
		t.Fatalf("uncapped design errored: %v", err)
	}
	if full.Capped {
		t.Fatalf("completed search flagged as capped: %+v", full)
	}
	if full.MaxBusOverlap > capped.MaxBusOverlap {
		t.Errorf("proven optimum %d worse than capped incumbent %d",
			full.MaxBusOverlap, capped.MaxBusOverlap)
	}
	// The capped run must still hand back a feasible binding (the
	// incumbent), just not a proven-optimal one.
	if err := capped.Validate(a, opts); err != nil {
		t.Errorf("capped incumbent violates constraints: %v", err)
	}
}

// TestCappedFeasibilityStillErrors pins the companion behavior: a
// feasibility-phase budget exhaustion has no incumbent to fall back on
// and must keep failing loudly with ErrSearchLimit rather than being
// misread as "infeasible".
func TestCappedFeasibilityStillErrors(t *testing.T) {
	a := cappedAnalysis(t)
	opts := Options{
		OverlapThreshold: 0.0001, // dense conflicts make the dive backtrack
		OptimizeBinding:  false,
		Workers:          1,
		MaxNodes:         2,
	}
	_, err := DesignCrossbar(a, opts)
	if !errors.Is(err, ErrSearchLimit) {
		t.Fatalf("want ErrSearchLimit from a 2-node budget, got %v", err)
	}
}
