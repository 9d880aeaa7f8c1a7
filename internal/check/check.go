// Package check is the correctness harness of the design pipeline: an
// independent evaluator that keeps the optimizers honest, in the
// spirit of the external evaluators used by automated-NoC-design
// frameworks (see PAPERS.md).
//
// It provides three instruments:
//
//   - an auditor (Audit) that recomputes every paper constraint a
//     produced binding was solved under — Eq. 3 (one bus per target),
//     Eq. 4 (per-window per-bus bandwidth), Eq. 7 (conflict
//     separation), Eq. 8 (targets-per-bus cap) — plus objective
//     consistency (the reported maxov of Eq. 11 must equal the
//     recomputed maximum per-bus aggregate overlap), returning
//     structured violations rather than a bool;
//   - an exhaustive oracle (Exhaustive) that solves instances of up to
//     MaxExhaustiveReceivers receivers exactly by enumerating every
//     binding, so minimality and optimality are checked without
//     trusting any solver's bounds; and
//   - a differential harness (Diff, RandomCase) that runs the oracle,
//     the specialized assignment solver, the warm-started MILP and the
//     portfolio on the same seeded random problem and asserts
//     identical feasibility verdicts, bus counts and optimal
//     objectives.
//
// The auditor deliberately shares no code with the solvers' pruned
// search state: it re-derives loads and overlaps from the Analysis
// matrices over all windows (not the Pareto-reduced set), so a solver
// bug in the reduction or the incremental bookkeeping cannot hide
// itself. It does share BuildConflicts — the conflict matrix is an
// input to the problem, not a solver artifact.
package check

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/trace"
)

// Kind classifies a violation by the paper constraint it breaks.
type Kind int

const (
	// KindBinding is a structural defect: the binding does not place
	// every receiver on exactly one in-range bus (Eq. 3).
	KindBinding Kind = iota
	// KindCap is a targets-per-bus cap violation (Eq. 8).
	KindCap
	// KindBandwidth is a per-window per-bus bandwidth violation (Eq. 4).
	KindBandwidth
	// KindConflict is a conflict pair sharing a bus (Eq. 2 / Eq. 7).
	KindConflict
	// KindObjective is an objective inconsistency: the design's
	// reported MaxBusOverlap differs from the recomputed maximum
	// per-bus aggregate overlap (Eq. 11).
	KindObjective
)

func (k Kind) String() string {
	switch k {
	case KindBinding:
		return "binding"
	case KindCap:
		return "cap"
	case KindBandwidth:
		return "bandwidth"
	case KindConflict:
		return "conflict"
	case KindObjective:
		return "objective"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Violation is one broken constraint, located as precisely as the
// constraint allows. Fields that do not apply hold -1.
type Violation struct {
	Kind Kind
	// Bus is the offending bus, or -1.
	Bus int
	// Window is the offending analysis window, or -1.
	Window int
	// ReceiverI / ReceiverJ locate the offending receiver (pair);
	// ReceiverJ is -1 for single-receiver violations.
	ReceiverI, ReceiverJ int
	// Got / Want quantify the violation where meaningful (load vs
	// window length, reported vs recomputed objective, ...).
	Got, Want int64
	// Msg is the human-readable description.
	Msg string
}

func (v Violation) String() string { return v.Kind.String() + ": " + v.Msg }

// Report is the structured outcome of one audit.
type Report struct {
	// Violations holds every broken constraint found, in deterministic
	// order (structural, cap, bandwidth, conflict, objective).
	Violations []Violation
	// Checked counts the individual constraints evaluated, so a
	// passing report can be told apart from a vacuous one.
	Checked int
}

// OK reports whether the audit found no violations.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Err returns nil for a clean report, or an error summarizing up to
// three violations (and the total count) otherwise.
func (r *Report) Err() error {
	if r.OK() {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "check: design violates %d constraint(s): ", len(r.Violations))
	for i, v := range r.Violations {
		if i == 3 {
			fmt.Fprintf(&b, "; ...")
			break
		}
		if i > 0 {
			b.WriteString("; ")
		}
		b.WriteString(v.String())
	}
	return fmt.Errorf("%s", b.String())
}

func (r *Report) add(v Violation) { r.Violations = append(r.Violations, v) }

// Audit recomputes every constraint the design was solved under
// against the analysis it was designed from, with the same option set.
// It returns a structured report; Audit(...).Err() is the one-liner
// form. A nil design or analysis yields a single structural violation
// rather than a panic, so the auditor is safe at trust boundaries.
func Audit(d *core.Design, a *trace.Analysis, opts core.Options) *Report {
	r := &Report{}
	if d == nil || a == nil {
		r.add(Violation{Kind: KindBinding, Bus: -1, Window: -1, ReceiverI: -1, ReceiverJ: -1,
			Msg: "nil design or analysis"})
		return r
	}
	nT := a.NumReceivers

	// Eq. 3 — every receiver on exactly one in-range bus. The slice
	// representation makes "at most one" structural; coverage and
	// range are what can break.
	r.Checked++
	if len(d.BusOf) != nT {
		r.add(Violation{Kind: KindBinding, Bus: -1, Window: -1, ReceiverI: -1, ReceiverJ: -1,
			Got: int64(len(d.BusOf)), Want: int64(nT),
			Msg: fmt.Sprintf("binding covers %d receivers, analysis has %d", len(d.BusOf), nT)})
		return r // every other check indexes by receiver; stop here
	}
	if d.NumBuses <= 0 {
		r.add(Violation{Kind: KindBinding, Bus: -1, Window: -1, ReceiverI: -1, ReceiverJ: -1,
			Got: int64(d.NumBuses), Want: 1,
			Msg: fmt.Sprintf("non-positive bus count %d", d.NumBuses)})
		return r
	}
	for t, b := range d.BusOf {
		r.Checked++
		if b < 0 || b >= d.NumBuses {
			r.add(Violation{Kind: KindBinding, Bus: b, Window: -1, ReceiverI: t, ReceiverJ: -1,
				Got: int64(b), Want: int64(d.NumBuses),
				Msg: fmt.Sprintf("receiver %d on bus %d outside [0,%d)", t, b, d.NumBuses)})
		}
	}
	if !r.OK() {
		return r // out-of-range buses would misindex the per-bus tallies
	}

	// Eq. 8 — targets-per-bus cap, resolved exactly as the solvers
	// resolve it (non-positive or over-wide caps mean "no cap").
	maxPerBus := opts.MaxPerBus
	if maxPerBus <= 0 || maxPerBus > nT {
		maxPerBus = nT
	}
	count := make([]int, d.NumBuses)
	for _, b := range d.BusOf {
		count[b]++
	}
	for b, c := range count {
		r.Checked++
		if c > maxPerBus {
			r.add(Violation{Kind: KindCap, Bus: b, Window: -1, ReceiverI: -1, ReceiverJ: -1,
				Got: int64(c), Want: int64(maxPerBus),
				Msg: fmt.Sprintf("bus %d carries %d receivers, cap is %d", b, c, maxPerBus)})
		}
	}

	// Eq. 4 — per-window per-bus bandwidth, over ALL windows. The
	// solvers constrain only the Pareto-maximal windows; auditing the
	// full set is exactly what catches a bug in that reduction.
	load := make([]int64, d.NumBuses)
	for m := 0; m < a.NumWindows(); m++ {
		for b := range load {
			load[b] = 0
		}
		for t, b := range d.BusOf {
			load[b] += a.Comm.At(t, m)
		}
		wl := a.WindowLen(m)
		for b, l := range load {
			r.Checked++
			if l > wl {
				r.add(Violation{Kind: KindBandwidth, Bus: b, Window: m, ReceiverI: -1, ReceiverJ: -1,
					Got: l, Want: wl,
					Msg: fmt.Sprintf("bus %d loaded %d cycles in window %d of length %d", b, l, m, wl)})
			}
		}
	}

	// Eq. 2 / Eq. 7 — conflict pairs must not share a bus. The
	// conflict matrix is re-derived from the analysis with the same
	// options the design was solved under.
	conflicts := core.BuildConflicts(a, opts)
	for i := 0; i < nT; i++ {
		for j := i + 1; j < nT; j++ {
			r.Checked++
			if conflicts[i][j] && d.BusOf[i] == d.BusOf[j] {
				r.add(Violation{Kind: KindConflict, Bus: d.BusOf[i], Window: -1, ReceiverI: i, ReceiverJ: j,
					Msg: fmt.Sprintf("conflicting receivers %d and %d share bus %d", i, j, d.BusOf[i])})
			}
		}
	}

	// Eq. 11 consistency — the reported objective must equal the
	// maximum per-bus aggregate overlap recomputed from OM.
	r.Checked++
	if got := core.MaxOverlapOf(a, d.NumBuses, d.BusOf); got != d.MaxBusOverlap {
		r.add(Violation{Kind: KindObjective, Bus: -1, Window: -1, ReceiverI: -1, ReceiverJ: -1,
			Got: d.MaxBusOverlap, Want: got,
			Msg: fmt.Sprintf("reported max bus overlap %d, recomputed %d", d.MaxBusOverlap, got)})
	}
	return r
}
