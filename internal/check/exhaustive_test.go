package check

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// randomAnalysis builds a random trace analysis for property tests.
func randomAnalysis(t *testing.T, rng *rand.Rand, nRecv int) *trace.Analysis {
	t.Helper()
	var events []trace.Event
	for r := 0; r < nRecv; r++ {
		n := 1 + rng.Intn(5)
		for e := 0; e < n; e++ {
			events = append(events, trace.Event{
				Start:    int64(rng.Intn(350)),
				Len:      1 + int64(rng.Intn(49)),
				Receiver: r,
				Critical: rng.Intn(8) == 0,
			})
		}
	}
	return mkAnalysis(t, nRecv, 400, 100, events)
}

// TestDesignQuickMatchesBruteForce: the default engine's bus count and
// optimal overlap objective match the exhaustive oracle on small
// instances.
func TestDesignQuickMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 25; iter++ {
		nRecv := 2 + rng.Intn(4) // up to 5 receivers
		a := randomAnalysis(t, rng, nRecv)
		opts := core.Options{
			OverlapThreshold: []float64{-1, 0.3, 0.5}[rng.Intn(3)],
			SeparateCritical: true,
			MaxPerBus:        2 + rng.Intn(3),
			OptimizeBinding:  true,
		}
		want, err := Exhaustive(context.Background(), a, opts)
		if err != nil {
			t.Fatalf("iter %d: oracle: %v", iter, err)
		}
		d, err := core.DesignCrossbar(a, opts)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if d.NumBuses != want.NumBuses {
			t.Errorf("iter %d: NumBuses = %d, brute force %d", iter, d.NumBuses, want.NumBuses)
		}
		if d.MaxBusOverlap != want.MaxBusOverlap {
			t.Errorf("iter %d: MaxBusOverlap = %d, brute force %d", iter, d.MaxBusOverlap, want.MaxBusOverlap)
		}
	}
}

// chainOfThree has receivers 0 and 1 overlapping 5 cycles, 0 and 2
// overlapping 2, and 1 and 2 disjoint. With at most two receivers per
// bus it needs two buses, and the optimal binding pairs 1 with 2
// (objective 0); pairing 0 with 1 is feasible at objective 5.
func chainOfThree(t *testing.T) (*trace.Analysis, core.Options) {
	t.Helper()
	a := mkAnalysis(t, 3, 100, 100, []trace.Event{
		mkEvent(0, 10, 0), mkEvent(5, 10, 1), mkEvent(0, 2, 2),
	})
	return a, core.Options{OverlapThreshold: -1, MaxPerBus: 2, OptimizeBinding: true}
}

// TestExhaustiveOracle pins the oracle on a hand-solvable instance:
// the optimum, MinBuses lifting the answer above the true minimum, a
// MaxBuses below it proven infeasible, and instances past
// MaxExhaustiveReceivers refused rather than answered.
func TestExhaustiveOracle(t *testing.T) {
	a, opts := chainOfThree(t)
	ctx := context.Background()

	d, err := Exhaustive(ctx, a, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumBuses != 2 || d.MaxBusOverlap != 0 || d.BusOf[1] != d.BusOf[2] {
		t.Fatalf("got %d buses, objective %d, binding %v; want 2 buses, objective 0, receivers 1 and 2 together",
			d.NumBuses, d.MaxBusOverlap, d.BusOf)
	}
	if rep := Audit(d, a, opts); !rep.OK() {
		t.Fatalf("oracle design fails its audit: %v", rep.Err())
	}

	lifted := opts
	lifted.MinBuses = 3
	if d, err := Exhaustive(ctx, a, lifted); err != nil || d.NumBuses != 3 {
		t.Fatalf("MinBuses=3: design %+v, err %v; want 3 buses", d, err)
	}
	capped := opts
	capped.MaxBuses = 1
	if _, err := Exhaustive(ctx, a, capped); !errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("MaxBuses=1: err %v, want ErrInfeasible", err)
	}

	n := MaxExhaustiveReceivers + 1
	var events []trace.Event
	for r := 0; r < n; r++ {
		events = append(events, mkEvent(int64(r), 1, r))
	}
	big := mkAnalysis(t, n, 100, 100, events)
	if _, err := Exhaustive(ctx, big, opts); err == nil || errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("%d receivers: err %v, want a size refusal", n, err)
	}
}

// TestDisagreementsDetectBreaches plants a path whose design has one
// bus too many, and one whose binding is feasible but not optimal, and
// checks the harness reports each against the oracle reference. Both
// planted designs are audit-clean, so only the comparison can catch
// them.
func TestDisagreementsDetectBreaches(t *testing.T) {
	a, opts := chainOfThree(t)
	ref, err := Exhaustive(context.Background(), a, opts)
	if err != nil {
		t.Fatal(err)
	}
	extraBus := *ref
	extraBus.NumBuses++
	suboptimal := core.Design{NumBuses: 2, BusOf: []int{0, 0, 1}}
	suboptimal.MaxBusOverlap = core.MaxOverlapOf(a, 2, suboptimal.BusOf)

	for _, tc := range []struct {
		name, want string
		d          *core.Design
	}{
		{"extra bus", "bus count", &extraBus},
		{"suboptimal binding", "objective", &suboptimal},
	} {
		if rep := Audit(tc.d, a, opts); !rep.OK() {
			t.Fatalf("%s: planted design is not audit-clean: %v", tc.name, rep.Err())
		}
		out := &DiffOutcome{
			Case:     Case{Opts: opts},
			Analysis: a,
			Verdicts: []Verdict{
				{Path: "exhaustive", Feasible: true, Design: ref},
				{Path: "planted", Feasible: true, Design: tc.d},
			},
		}
		ds := out.Disagreements()
		if len(ds) != 1 || !strings.HasPrefix(ds[0], tc.want) {
			t.Errorf("%s: disagreements %q, want one %q report", tc.name, ds, tc.want)
		}
	}
}
