package check

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/trace"
)

// SolverPath is one of the solvers whose agreement the differential
// harness asserts.
type SolverPath struct {
	// Name identifies the path in disagreement reports.
	Name string
	// Solve designs the analysis under the case options. A path that
	// proves the whole bus range infeasible returns an error wrapping
	// core.ErrInfeasible.
	Solve func(ctx context.Context, a *trace.Analysis, opts core.Options) (*core.Design, error)
}

// Paths returns the solver paths pinned by the harness. The first is
// the reference the others are compared against: the exhaustive oracle,
// the only path that shares no lower bound or search code with the
// engines. Then come the specialized exact assignment search, the
// warm-started MILP, and the racing portfolio, which must land on the
// same bus count and objective as the engines it races no matter which
// contestant wins each probe.
func Paths() []SolverPath {
	return []SolverPath{
		{Name: "exhaustive", Solve: Exhaustive},
		enginePath("assign", core.EngineBranchBound),
		enginePath("milp-warm", core.EngineMILP),
		enginePath("portfolio", core.EnginePortfolio),
	}
}

// enginePath runs the full core methodology with the given engine,
// leaving every problem knob of the case options untouched.
func enginePath(name string, e core.Engine) SolverPath {
	return SolverPath{Name: name, Solve: func(ctx context.Context, a *trace.Analysis, opts core.Options) (*core.Design, error) {
		opts.Engine = e
		return core.DesignCrossbarCtx(ctx, a, opts)
	}}
}

// Verdict is one solver path's outcome on a case.
type Verdict struct {
	Path string
	// Feasible is false when the path proved the whole bus range
	// infeasible (core.ErrInfeasible).
	Feasible bool
	// Design is the produced design when feasible.
	Design *core.Design
	// Err holds any non-infeasibility failure (a harness error: node
	// limit, cancellation, solver defect).
	Err error
}

// DiffOutcome is the differential result of one case across all paths.
type DiffOutcome struct {
	Case     Case
	Analysis *trace.Analysis
	Verdicts []Verdict
}

// Disagreements returns a description per solver-contract breach
// against the reference path (Verdicts[0]): a feasibility verdict
// mismatch, a minimal-bus-count mismatch, an optimal-objective mismatch
// (binding mode only — the exact paths must agree on the optimum even
// when tie-broken bindings differ), or a capped design or audit
// violation on any path. Empty means the paths agree and every design
// is constraint-clean.
func (o *DiffOutcome) Disagreements() []string {
	var out []string
	ref := o.Verdicts[0]
	for _, v := range o.Verdicts[1:] {
		if v.Feasible != ref.Feasible {
			out = append(out, fmt.Sprintf("feasibility: %s=%v, %s=%v", ref.Path, ref.Feasible, v.Path, v.Feasible))
			continue
		}
		if !v.Feasible {
			continue
		}
		if v.Design.NumBuses != ref.Design.NumBuses {
			out = append(out, fmt.Sprintf("bus count: %s=%d, %s=%d", ref.Path, ref.Design.NumBuses, v.Path, v.Design.NumBuses))
		}
		if o.Case.Opts.OptimizeBinding && v.Design.MaxBusOverlap != ref.Design.MaxBusOverlap {
			out = append(out, fmt.Sprintf("objective: %s=%d, %s=%d", ref.Path, ref.Design.MaxBusOverlap, v.Path, v.Design.MaxBusOverlap))
		}
	}
	for _, v := range o.Verdicts {
		if !v.Feasible {
			continue
		}
		if v.Design.Capped {
			// The differential cases are sized so every engine proves its
			// answer; a budget-capped (unproven) design here means a path
			// silently degraded to best-effort.
			out = append(out, fmt.Sprintf("capped(%s): returned an unproven design on a case every path must prove", v.Path))
		}
		if rep := Audit(v.Design, o.Analysis, o.Case.Opts); !rep.OK() {
			out = append(out, fmt.Sprintf("audit(%s): %v", v.Path, rep.Err()))
		}
	}
	return out
}

// Diff analyzes the case's trace once and solves the same problem on
// every solver path. It errs only on harness failures (analysis
// errors, unexpected solver errors); disagreements between successful
// runs are data, reported by DiffOutcome.Disagreements.
func Diff(ctx context.Context, c Case) (*DiffOutcome, error) {
	a, err := trace.AnalyzeCtx(ctx, c.Trace, c.WindowSize)
	if err != nil {
		return nil, fmt.Errorf("check: analyzing case %d: %w", c.Seed, err)
	}
	out := &DiffOutcome{Case: c, Analysis: a}
	for _, path := range Paths() {
		d, err := path.Solve(ctx, a, c.Opts)
		v := Verdict{Path: path.Name}
		switch {
		case err == nil:
			v.Feasible = true
			v.Design = d
		case errors.Is(err, core.ErrInfeasible):
			// The negative verdict: every path must reproduce it.
		default:
			v.Err = fmt.Errorf("check: case %d, path %s: %w", c.Seed, path.Name, err)
			return nil, v.Err
		}
		out.Verdicts = append(out.Verdicts, v)
	}
	return out, nil
}
