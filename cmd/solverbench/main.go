// Command solverbench times the MILP solver hot path on the
// deterministic benchprobs instances and writes the results as JSON —
// by convention to BENCH_solver.json at the repository root, which CI
// uploads as a build artifact. The cases mirror the in-tree
// `go test -bench MILP` benchmarks in internal/core, so numbers from
// either source are comparable.
//
// "warm" entries run the incremental MILP solver, which warm-starts
// every node from its parent's basis.
//
// Usage:
//
//	solverbench                  # full suite, writes BENCH_solver.json
//	solverbench -quick -out /tmp/b.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"testing"
	"time"

	"repro/internal/benchprobs"
	"repro/internal/cache"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/milp"
	"repro/internal/trace"
)

type caseResult struct {
	Name        string `json:"name"`
	Config      string `json:"config"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
	Nodes       int64  `json:"milp_nodes"`
	MaxDepth    int64  `json:"max_depth"`
	Incumbents  int64  `json:"incumbents"`
	WarmSolves  int64  `json:"warm_solves"`
	ColdSolves  int64  `json:"cold_solves"`
	DualPivots  int64  `json:"dual_pivots"`
	LPIters     int64  `json:"lp_iterations"`
	Skipped     bool   `json:"skipped,omitempty"`
	Note        string `json:"note,omitempty"`
	// Speedup is set on warm-delta and portfolio entries: the sequential
	// baseline sibling's ns/op divided by this entry's ns/op.
	Speedup float64 `json:"speedup,omitempty"`
	// Buses/Objective/Capped pin the design outcome of full-design
	// cases: the audited-optimality claims of the large instances are
	// exactly "Buses equals the clique bound, Objective is 0, Capped is
	// false", so regressions show up in the pinned JSON, not just in
	// timing noise.
	Buses     int   `json:"buses,omitempty"`
	Objective int64 `json:"objective,omitempty"`
	Capped    bool  `json:"capped,omitempty"`
}

type report struct {
	GeneratedBy string       `json:"generated_by"`
	Timestamp   string       `json:"timestamp"`
	Cases       []caseResult `json:"cases"`
}

// benchCase runs one solver configuration under testing.Benchmark and
// folds the per-iteration solver statistics into the result.
func benchCase(ctx context.Context, name string, a *trace.Analysis, numBuses int, optimize bool, opts milp.Options, config string) caseResult {
	conflicts := core.BuildConflicts(a, core.DefaultOptions())
	f := core.NewFormulator(a, conflicts, 4).ForBusCount(numBuses, optimize)
	opts.FirstFeasible = !optimize

	var nodes, depth, incumbents, warm, cold, pivots, lpIters, iters int64
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sol, err := milp.SolveCtx(ctx, f.Problem, opts)
			if err != nil {
				b.Fatal(err)
			}
			nodes += int64(sol.Nodes)
			if d := int64(sol.MaxDepth); d > depth {
				depth = d
			}
			incumbents += sol.Incumbents
			warm += sol.WarmSolves
			cold += sol.ColdSolves
			pivots += sol.DualPivots
			lpIters += sol.LPIterations
			iters++
		}
	})
	if iters == 0 {
		return caseResult{Name: name, Config: config, Skipped: true, Note: "benchmark did not run"}
	}
	return caseResult{
		Name:        name,
		Config:      config,
		NsPerOp:     r.NsPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Nodes:       nodes / iters,
		MaxDepth:    depth,
		Incumbents:  incumbents / iters,
		WarmSolves:  warm / iters,
		ColdSolves:  cold / iters,
		DualPivots:  pivots / iters,
		LPIters:     lpIters / iters,
	}
}

// deltaOptions is the fixed configuration of the warm re-solve (delta)
// benchmarks on benchprobs.DeltaTrace32: the MILP engine's serial
// binary search, feasibility only, 8 receivers per bus (see the
// DeltaTrace32 doc comment for why the instance makes the cold/warm
// gap visible).
func deltaOptions() core.Options {
	opts := core.DefaultOptions()
	opts.MaxPerBus = 8
	opts.OptimizeBinding = false
	opts.Engine = core.EngineMILP
	opts.Workers = 1
	return opts
}

// benchDesign times a full core.DesignCrossbarCtx run. When prime is
// non-nil it builds a fresh cache for every iteration outside the
// timed section, so warm-delta entries measure exactly one cold-primed
// warm re-solve per op, never an exact hit on the design stored by the
// previous iteration.
func benchDesign(ctx context.Context, name, config string, a *trace.Analysis, opts core.Options, prime func() core.Cache) caseResult {
	var nodes, iters int64
	var last *core.Design
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if prime != nil {
				b.StopTimer()
				opts.Cache = prime()
				b.StartTimer()
			}
			d, err := core.DesignCrossbarCtx(ctx, a, opts)
			if err != nil {
				b.Fatal(err)
			}
			nodes += d.SearchNodes
			last = d
			iters++
		}
	})
	if iters == 0 {
		return caseResult{Name: name, Config: config, Skipped: true, Note: "benchmark did not run"}
	}
	return caseResult{
		Name:        name,
		Config:      config,
		NsPerOp:     r.NsPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Nodes:       nodes / iters,
		Buses:       last.NumBuses,
		Objective:   last.MaxBusOverlap,
		Capped:      last.Capped,
	}
}

// deltaCases appends the warm-vs-cold re-solve comparison: the cache
// holds the unperturbed DeltaTrace32 design, and each case re-designs
// a variant with ~1%, ~5% or ~20% of the trace events perturbed. The
// small deltas must warm-start (single re-solve at the cached count);
// the 20% delta exceeds the warm lookup budget and must fall back to a
// full cold search, pinning the fallback path's cost too.
func deltaCases(ctx context.Context, add func(caseResult)) error {
	tr := benchprobs.DeltaTrace32()
	baseA, err := trace.Analyze(tr, benchprobs.AnalysisWindow)
	if err != nil {
		return err
	}
	opts := deltaOptions()
	baseD, err := core.DesignCrossbarCtx(ctx, baseA, opts)
	if err != nil {
		return err
	}
	prime := func() core.Cache {
		s := cache.New(cache.Config{})
		s.Store(ctx, baseA, opts, baseD)
		return s
	}

	// Exact content hit: the same analysis again. The design must come
	// straight off the in-memory store — microseconds, no solver work.
	// One shared primed cache is sound here: a Lookup hit returns before
	// the solve, so no iteration ever re-stores into it.
	hitOpts := opts
	hitOpts.Cache = prime()
	add(benchDesign(ctx, "delta-32rx-exact-hit", "warm", baseA, hitOpts, nil))

	for _, d := range []struct {
		frac float64
		name string
	}{
		{0.01, "delta-32rx-1pct"},
		{0.05, "delta-32rx-5pct"},
		{0.20, "delta-32rx-20pct"},
	} {
		pa, err := trace.Analyze(benchprobs.PerturbTrace(tr, d.frac, 7), benchprobs.AnalysisWindow)
		if err != nil {
			return err
		}
		if pa.Fingerprint() == baseA.Fingerprint() {
			add(caseResult{Name: d.name, Config: "warm-delta", Skipped: true,
				Note: "perturbation left the analysis unchanged"})
			continue
		}
		cold := benchDesign(ctx, d.name, "cold", pa, opts, nil)
		add(cold)
		warm := benchDesign(ctx, d.name, "warm-delta", pa, opts, prime)
		if warm.NsPerOp > 0 {
			warm.Speedup = float64(cold.NsPerOp) / float64(warm.NsPerOp)
		}
		add(warm)
	}
	return nil
}

// parallelCases appends the parallel branch-and-bound and portfolio
// racing comparison. Three stories, each pinned:
//
//   - probe-32rx-12bus: the same feasibility probe the warm MILP case
//     above measures, solved by the racing portfolio — the parallel
//     assignment dive settles it in microseconds, so the pinned Speedup
//     against the sequential MILP baseline is the headline number.
//   - probe-32rx-10bus and design-32rx-feasible: the decisive probe and
//     the full design of the 32-receiver instance, which no sequential
//     engine completes at all (recorded as skipped baselines).
//   - design-{128,256,512}rx: the production-scale instances, designed
//     to audited optimality (Buses equals the exact clique bound,
//     Objective 0, Capped false) across engines and worker counts.
//
// Wall-clock worker scaling depends on the host's core count — the
// results (and the pinned design outcomes) do not: the parallel solver
// is bit-identical to the sequential one at every worker count.
func parallelCases(ctx context.Context, quick bool, add func(caseResult)) {
	a32 := benchprobs.Analysis32()

	probe := func(engine core.Engine, workers, k int) core.Options {
		opts := core.DefaultOptions()
		opts.Engine = engine
		opts.Workers = workers
		opts.MinBuses = k
		opts.MaxBuses = k
		opts.OptimizeBinding = false
		return opts
	}

	if quick {
		add(caseResult{Name: "probe-32rx-12bus", Config: "milp-seq", Skipped: true, Note: "-quick"})
		add(caseResult{Name: "probe-32rx-12bus", Config: "portfolio-w8", Skipped: true, Note: "-quick"})
	} else {
		seq := benchDesign(ctx, "probe-32rx-12bus", "milp-seq", a32, probe(core.EngineMILP, 1, 12), nil)
		add(seq)
		race := benchDesign(ctx, "probe-32rx-12bus", "portfolio-w8", a32, probe(core.EnginePortfolio, 8, 12), nil)
		if race.NsPerOp > 0 && !seq.Skipped {
			race.Speedup = float64(seq.NsPerOp) / float64(race.NsPerOp)
		}
		add(race)
	}

	add(caseResult{Name: "probe-32rx-10bus", Config: "milp-seq", Skipped: true,
		Note: "the sequential MILP does not finish the decisive probe (observed >240s without completing; the LP node rate collapses near the feasibility boundary); the entries below are the replacement"})
	add(benchDesign(ctx, "probe-32rx-10bus", "branchbound-w1", a32, probe(core.EngineBranchBound, 1, 10), nil))
	for _, w := range []int{2, 4, 8} {
		add(benchDesign(ctx, "probe-32rx-10bus", fmt.Sprintf("portfolio-w%d", w), a32, probe(core.EnginePortfolio, w, 10), nil))
	}

	add(caseResult{Name: "design-32rx-feasible", Config: "branchbound-seq", Skipped: true,
		Note: "fails with ErrSearchLimit: the k=9 probe exhausts the node budget undecided and the sequential engine has no fallback (observed ~7.6s to failure); the portfolio entry returns the 10-bus design flagged Capped instead"})
	if quick {
		add(caseResult{Name: "design-32rx-feasible", Config: "portfolio-w8", Skipped: true, Note: "-quick"})
	} else {
		opts := core.DefaultOptions()
		opts.OptimizeBinding = false
		opts.Engine = core.EnginePortfolio
		opts.Workers = 8
		add(benchDesign(ctx, "design-32rx-feasible", "portfolio-w8", a32, opts, nil))
	}

	for _, tc := range []struct {
		name string
		a    *trace.Analysis
	}{
		{"design-128rx", benchprobs.Analysis128()},
		{"design-256rx", benchprobs.Analysis256()},
		{"design-512rx", benchprobs.Analysis512()},
	} {
		for _, cfg := range []struct {
			engine  core.Engine
			workers int
			label   string
		}{
			{core.EngineBranchBound, 1, "branchbound-w1"},
			{core.EngineBranchBound, 2, "branchbound-w2"},
			{core.EngineBranchBound, 4, "branchbound-w4"},
			{core.EngineBranchBound, 8, "branchbound-w8"},
			{core.EnginePortfolio, 8, "portfolio-w8"},
		} {
			opts := core.DefaultOptions()
			opts.Engine = cfg.engine
			opts.Workers = cfg.workers
			add(benchDesign(ctx, tc.name, cfg.label, tc.a, opts, nil))
		}
	}
}

// bindingIncumbent solves the binding MILP of a once, unseeded, and
// re-encodes the optimal binding as an incumbent vector for the same
// formulation.
func bindingIncumbent(ctx context.Context, a *trace.Analysis, numBuses int) ([]float64, error) {
	conflicts := core.BuildConflicts(a, core.DefaultOptions())
	f := core.NewFormulator(a, conflicts, 4).ForBusCount(numBuses, true)
	sol, err := milp.SolveCtx(ctx, f.Problem, milp.Options{})
	if err != nil {
		return nil, err
	}
	busOf, err := f.Extract(sol.X)
	if err != nil {
		return nil, err
	}
	return f.Inject(busOf)
}

var (
	out   = flag.String("out", "BENCH_solver.json", "output JSON path")
	quick = flag.Bool("quick", false, "skip the multi-second 32-receiver feasible case")
)

func main() { cli.Main("solverbench", run) }

func run(ctx context.Context) (err error) {

	a12 := benchprobs.Analysis12()
	a32 := benchprobs.Analysis32()
	a8 := benchprobs.Analysis8()

	warm := milp.Options{}

	var rep report
	rep.GeneratedBy = "cmd/solverbench"
	rep.Timestamp = time.Now().UTC().Format(time.RFC3339)

	add := func(c caseResult) {
		rep.Cases = append(rep.Cases, c)
		if c.Skipped {
			log.Printf("%-28s %-14s skipped: %s", c.Name, c.Config, c.Note)
			return
		}
		log.Printf("%-28s %-14s %12d ns/op %8d nodes %3d deep %4d inc %6d warm %6d cold %8d lp-iters",
			c.Name, c.Config, c.NsPerOp, c.Nodes, c.MaxDepth, c.Incumbents, c.WarmSolves, c.ColdSolves, c.LPIters)
	}

	add(benchCase(ctx, "feasible-12rx-4bus", a12, 4, false, warm, "warm"))
	if *quick {
		add(caseResult{Name: "feasible-32rx-12bus", Config: "warm", Skipped: true, Note: "-quick"})
	} else {
		add(benchCase(ctx, "feasible-32rx-12bus", a32, 12, false, warm, "warm"))
	}
	add(benchCase(ctx, "infeasible-32rx-8bus-root", a32, 8, false, warm, "warm"))
	add(benchCase(ctx, "binding-8rx-3bus", a8, 3, true, warm, "warm"))

	// Incumbent-seeded binding: re-solve the 8-receiver binding MILP
	// with its own optimum injected as the starting incumbent
	// (Formulation.Inject canonicalizes the binding into the variable
	// space) — the upper bound the cross-request cache would provide on
	// a re-solve. The answer is unchanged; only the pruning differs.
	if inc, err := bindingIncumbent(ctx, a8, 3); err != nil {
		add(caseResult{Name: "binding-8rx-3bus", Config: "warm-incumbent", Skipped: true, Note: err.Error()})
	} else {
		add(benchCase(ctx, "binding-8rx-3bus", a8, 3, true, milp.Options{Incumbent: inc}, "warm-incumbent"))
	}

	parallelCases(ctx, *quick, add)

	if err := deltaCases(ctx, add); err != nil {
		return err
	}

	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	log.Printf("wrote %s", *out)
	return nil
}
