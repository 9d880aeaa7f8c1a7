package check

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/trace"
)

func mkEvent(start, length int64, r int) trace.Event {
	return trace.Event{Start: start, Len: length, Sender: 0, Receiver: r}
}

// TestRandomTraceDeterministic pins the generator's replayability: the
// same seed must produce the identical trace, or a reported failing
// case number would be useless.
func TestRandomTraceDeterministic(t *testing.T) {
	p := DefaultGenParams()
	for seed := int64(0); seed < 10; seed++ {
		a, b := RandomTrace(seed, p), RandomTrace(seed, p)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: non-deterministic trace", seed)
		}
	}
}

// TestRandomTraceValid ensures every generated trace satisfies the
// structural invariants the pipeline assumes.
func TestRandomTraceValid(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		if err := RandomTrace(seed, GenParams{}).Validate(); err != nil {
			t.Fatalf("seed %d: invalid trace: %v", seed, err)
		}
	}
}

// TestDifferentialSolvers is the solver-agreement gate: ≥200 seeded
// cases solved by the exhaustive oracle, the specialized assignment
// search, the warm MILP and the portfolio must produce identical
// feasibility verdicts, identical minimal bus counts, identical optimal
// objectives (binding mode), and constraint-clean designs under the
// independent auditor.
func TestDifferentialSolvers(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep skipped in -short mode")
	}
	const cases = 220
	for seed := int64(1); seed <= cases; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			c := RandomCase(seed, DefaultGenParams())
			out, err := Diff(context.Background(), c)
			if err != nil {
				t.Fatalf("case %d: %v", seed, err)
			}
			for _, d := range out.Disagreements() {
				t.Errorf("case %d (nT=%d, ws=%d, opts=%+v): %s",
					seed, c.Trace.NumReceivers, c.WindowSize, c.Opts, d)
			}
		})
	}
}

// TestDiffInfeasibleAgreement forces the infeasible verdict directly:
// MaxBuses=1 with a guaranteed conflict leaves no feasible count, and
// every path must say so.
func TestDiffInfeasibleAgreement(t *testing.T) {
	c := RandomCase(3, DefaultGenParams())
	// Rebuild a case that must be infeasible: two receivers that
	// overlap the full horizon, threshold 0, one bus allowed.
	c.Trace.NumReceivers = 2
	c.Trace.Events = c.Trace.Events[:0]
	for r := 0; r < 2; r++ {
		c.Trace.Events = append(c.Trace.Events, mkEvent(0, c.Trace.Horizon, r))
	}
	c.WindowSize = c.Trace.Horizon
	c.Opts.OverlapThreshold = 0
	c.Opts.MaxPerBus = 0
	c.Opts.MaxBuses = 1
	out, err := Diff(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range out.Verdicts {
		if v.Feasible {
			t.Errorf("path %s found the infeasible case feasible", v.Path)
		}
	}
	if ds := out.Disagreements(); len(ds) != 0 {
		t.Errorf("unexpected disagreements: %v", ds)
	}
}
