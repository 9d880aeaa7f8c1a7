package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/benchprobs"
	"repro/internal/trace"
)

// parallelTestProblem builds an assignProblem from an analysis under
// the default conflict options.
func parallelTestProblem(t *testing.T, a *trace.Analysis, maxNodes int64) *assignProblem {
	t.Helper()
	return newAssignProblem(a, BuildConflicts(a, DefaultOptions()), 4, maxNodes)
}

func sameResult(t *testing.T, label string, seq, par *assignResult) {
	t.Helper()
	if seq.feasible != par.feasible {
		t.Fatalf("%s: feasible %v != sequential %v", label, par.feasible, seq.feasible)
	}
	if seq.maxOverlap != par.maxOverlap {
		t.Fatalf("%s: objective %d != sequential %d", label, par.maxOverlap, seq.maxOverlap)
	}
	if seq.capped != par.capped {
		t.Fatalf("%s: capped %v != sequential %v", label, par.capped, seq.capped)
	}
	if len(seq.busOf) != len(par.busOf) {
		t.Fatalf("%s: binding length %d != sequential %d", label, len(par.busOf), len(seq.busOf))
	}
	for i := range seq.busOf {
		if seq.busOf[i] != par.busOf[i] {
			t.Fatalf("%s: binding differs at receiver %d: %d != sequential %d\npar: %v\nseq: %v",
				label, i, par.busOf[i], seq.busOf[i], par.busOf, seq.busOf)
		}
	}
}

// TestSolveParallelBitIdentical is the core determinism contract: the
// parallel solver must return byte-identical results to the sequential
// one at every worker count, in both feasibility and optimize mode,
// across a spread of instances and bus counts.
func TestSolveParallelBitIdentical(t *testing.T) {
	analyses := map[string]*trace.Analysis{
		"analysis8":  benchprobs.Analysis8(),
		"analysis12": benchprobs.Analysis12(),
	}
	for seed := int64(1); seed <= 3; seed++ {
		tr := benchprobs.PerturbTrace(benchprobs.TraceN(12), 0.3, seed)
		a, err := trace.AnalyzeCtx(context.Background(), tr, benchprobs.AnalysisWindow)
		if err != nil {
			t.Fatal(err)
		}
		analyses["perturbed12"] = a
	}
	ctx := context.Background()
	for name, a := range analyses {
		prob := parallelTestProblem(t, a, 0)
		lb := prob.lowerBound()
		for k := lb; k <= lb+2 && k <= prob.nT; k++ {
			for _, optimize := range []bool{false, true} {
				seq, err := prob.solveSeeded(ctx, k, optimize, nil, 0)
				if err != nil {
					t.Fatalf("%s k=%d: sequential: %v", name, k, err)
				}
				for _, workers := range []int{2, 3, 8} {
					par, err := prob.solveParallel(ctx, k, optimize, workers, nil, 0, nil)
					if err != nil {
						t.Fatalf("%s k=%d w=%d: parallel: %v", name, k, workers, err)
					}
					label := name
					if optimize {
						label += "/opt"
					}
					sameResult(t, label, seq, par)
				}
			}
		}
	}
}

// TestSolveParallelSeeded checks the warm-incumbent path: seeding the
// parallel solver with a valid binding must leave the result identical
// to both the seeded and the unseeded sequential solve.
func TestSolveParallelSeeded(t *testing.T) {
	a := benchprobs.Analysis12()
	prob := parallelTestProblem(t, a, 0)
	ctx := context.Background()
	k := prob.lowerBound() + 1
	base, err := prob.solveSeeded(ctx, k, true, nil, 0)
	if err != nil || !base.feasible {
		t.Fatalf("baseline solve: feasible=%v err=%v", base != nil && base.feasible, err)
	}
	seedBus := base.busOf
	seedObj := base.maxOverlap
	for _, workers := range []int{2, 8} {
		par, err := prob.solveParallel(ctx, k, true, workers, seedBus, seedObj, nil)
		if err != nil {
			t.Fatalf("w=%d: %v", workers, err)
		}
		sameResult(t, "seeded", base, par)
	}
}

// TestSolveParallelFedBound checks that an externally fed shared bound
// (the annealing feeder of the portfolio) cannot change the answer —
// only how much is explored. The fed bound is the known optimum, the
// most aggressive valid feed possible.
func TestSolveParallelFedBound(t *testing.T) {
	a := benchprobs.Analysis12()
	prob := parallelTestProblem(t, a, 0)
	ctx := context.Background()
	k := prob.lowerBound()
	seq, err := prob.solveSeeded(ctx, k, true, nil, 0)
	if err != nil || !seq.feasible {
		t.Fatalf("sequential: feasible=%v err=%v", seq != nil && seq.feasible, err)
	}
	feed := newParShared()
	feed.offerBound(seq.maxOverlap) // optimum, as if annealing found it instantly
	par, err := prob.solveParallel(ctx, k, true, 4, nil, 0, feed)
	if err != nil {
		t.Fatalf("fed parallel: %v", err)
	}
	sameResult(t, "fed", seq, par)
}

// TestSolveParallelCancellation cancels a deliberately hopeless solve
// (32 receivers one bus count below feasibility, which exhausts any
// budget) and expects a prompt wrapped ErrCanceled from the workers.
func TestSolveParallelCancellation(t *testing.T) {
	a := benchprobs.Analysis32()
	prob := parallelTestProblem(t, a, 0)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := prob.solveParallel(ctx, prob.lowerBound(), false, 4, nil, 0, nil)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("got %v, want ErrCanceled", err)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("cancellation took %v", elapsed)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("parallel solve ignored cancellation")
	}
}

// TestSolveParallelSharedIncumbentStress hammers the shared incumbent
// from a racing feeder goroutine while repeated parallel solves run —
// meaningful under -race, and a determinism check besides: every
// iteration must reproduce the same binding.
func TestSolveParallelSharedIncumbentStress(t *testing.T) {
	a := benchprobs.Analysis12()
	prob := parallelTestProblem(t, a, 0)
	ctx := context.Background()
	k := prob.lowerBound()
	seq, err := prob.solveSeeded(ctx, k, true, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for iter := 0; iter < 8; iter++ {
		feed := newParShared()
		stop := make(chan struct{})
		go func() {
			// Feed progressively tighter valid bounds, racing the workers.
			for obj := seq.maxOverlap + 3; obj >= seq.maxOverlap; obj-- {
				feed.offerBound(obj)
			}
			close(stop)
		}()
		par, err := prob.solveParallel(ctx, k, true, 8, nil, 0, feed)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		<-stop
		sameResult(t, "stress", seq, par)
	}
}

// TestPortfolioMatchesBranchBound runs the full design through both
// engines on instances the branch and bound settles exactly: bus count
// and objective must agree (bindings may differ — the race winner's
// binding is returned).
func TestPortfolioMatchesBranchBound(t *testing.T) {
	for _, tc := range []struct {
		name string
		a    *trace.Analysis
	}{
		{"analysis8", benchprobs.Analysis8()},
		{"analysis12", benchprobs.Analysis12()},
	} {
		opts := DefaultOptions()
		opts.Workers = 2
		ref, err := DesignCrossbar(tc.a, opts)
		if err != nil {
			t.Fatalf("%s: branch-and-bound: %v", tc.name, err)
		}
		opts.Engine = EnginePortfolio
		got, err := DesignCrossbar(tc.a, opts)
		if err != nil {
			t.Fatalf("%s: portfolio: %v", tc.name, err)
		}
		if got.NumBuses != ref.NumBuses || got.MaxBusOverlap != ref.MaxBusOverlap {
			t.Fatalf("%s: portfolio (%d buses, obj %d) != branch-and-bound (%d buses, obj %d)",
				tc.name, got.NumBuses, got.MaxBusOverlap, ref.NumBuses, ref.MaxBusOverlap)
		}
		if got.Capped {
			t.Fatalf("%s: portfolio capped on an instance branch-and-bound settles", tc.name)
		}
		if err := got.Validate(tc.a, opts); err != nil {
			t.Fatalf("%s: portfolio design invalid: %v", tc.name, err)
		}
	}
}

// TestPortfolioObjectiveDeterminism re-runs the portfolio design and
// expects the same bus count and objective every time (the binding may
// come from either racing engine, but both are exact).
func TestPortfolioObjectiveDeterminism(t *testing.T) {
	a := benchprobs.Analysis12()
	opts := DefaultOptions()
	opts.Engine = EnginePortfolio
	opts.Workers = 4
	first, err := DesignCrossbar(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		d, err := DesignCrossbar(a, opts)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if d.NumBuses != first.NumBuses || d.MaxBusOverlap != first.MaxBusOverlap {
			t.Fatalf("run %d: (%d buses, obj %d) != first run (%d buses, obj %d)",
				i, d.NumBuses, d.MaxBusOverlap, first.NumBuses, first.MaxBusOverlap)
		}
	}
}

// TestLargeInstanceOptimality designs the 128-receiver production-scale
// instance to audited-equivalent optimality within the default budget:
// the exact clique bound (43 conflicting same-phase receivers) must
// meet the achieved count, proving minimality without search, and the
// binding objective must be the true optimum of the block-diagonal
// overlap structure, zero.
func TestLargeInstanceOptimality(t *testing.T) {
	for _, tc := range []struct {
		name  string
		a     *trace.Analysis
		buses int
	}{
		{"analysis128", benchprobs.Analysis128(), 43},
		{"analysis256", benchprobs.Analysis256(), 86},
		{"analysis512", benchprobs.Analysis512(), 171},
	} {
		prob := parallelTestProblem(t, tc.a, 0)
		if lb := prob.lowerBound(); lb != tc.buses {
			t.Fatalf("%s: lower bound %d, want %d (clique bound should be exact)", tc.name, lb, tc.buses)
		}
		for _, engine := range []Engine{EngineBranchBound, EnginePortfolio} {
			opts := DefaultOptions()
			opts.Engine = engine
			opts.Workers = 4
			d, err := DesignCrossbar(tc.a, opts)
			if err != nil {
				t.Fatalf("%s/%v: %v", tc.name, engine, err)
			}
			if d.NumBuses != tc.buses {
				t.Fatalf("%s/%v: %d buses, want %d", tc.name, engine, d.NumBuses, tc.buses)
			}
			if d.MaxBusOverlap != 0 {
				t.Fatalf("%s/%v: objective %d, want 0", tc.name, engine, d.MaxBusOverlap)
			}
			if d.Capped {
				t.Fatalf("%s/%v: capped, want proven", tc.name, engine)
			}
			if err := d.Validate(tc.a, opts); err != nil {
				t.Fatalf("%s/%v: invalid design: %v", tc.name, engine, err)
			}
		}
	}
}
