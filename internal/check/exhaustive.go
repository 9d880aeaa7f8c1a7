package check

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/trace"
)

// MaxExhaustiveReceivers bounds the instances Exhaustive accepts: 8
// receivers have 4140 bus partitions (the Bell number B8), so the full
// enumeration stays in milliseconds.
const MaxExhaustiveReceivers = 8

// Exhaustive is the reference solver of the differential harness: it
// designs the crossbar by enumerating every binding, sharing no search
// code with the engines in core — no analytic lower bound, no window
// reduction, no pruning beyond the constraints themselves. It tries the
// bus counts upward from max(1, MinBuses) to min(receivers, MaxBuses)
// and stops at the first count admitting a binding that satisfies the
// targets-per-bus cap (Eq. 8), the per-window bandwidth over all windows
// (Eq. 4) and conflict separation (Eq. 7). With OptimizeBinding set the
// returned binding minimizes the maximum per-bus aggregate overlap
// (Eq. 11); otherwise it is the first binding found. When no count in
// range admits a binding it returns core.ErrInfeasible.
//
// Bindings are enumerated up to bus relabeling (receiver r may open at
// most one new bus), which loses no partition and leaves the objective
// unchanged. The design's Engine field is left at its zero value: the
// oracle is not one of core's engines.
func Exhaustive(ctx context.Context, a *trace.Analysis, opts core.Options) (*core.Design, error) {
	if a == nil || a.NumReceivers == 0 {
		return nil, errors.New("check: exhaustive oracle: empty analysis")
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	nT := a.NumReceivers
	if nT > MaxExhaustiveReceivers {
		return nil, fmt.Errorf("check: exhaustive oracle takes at most %d receivers, got %d", MaxExhaustiveReceivers, nT)
	}
	lo, hi := max(1, opts.MinBuses), nT
	if opts.MaxBuses > 0 {
		hi = min(hi, opts.MaxBuses)
	}
	lo = min(lo, hi) // as in core: a MinBuses past the range probes its top
	e := &enumerator{
		a:         a,
		conflicts: core.BuildConflicts(a, opts),
		maxPerBus: opts.MaxPerBus,
		optimize:  opts.OptimizeBinding,
		busOf:     make([]int, nT),
	}
	if e.maxPerBus <= 0 {
		e.maxPerBus = nT
	}
	for k := lo; k <= hi; k++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("%w: %w", core.ErrCanceled, err)
		}
		e.k = k
		e.best = nil
		e.place(0, 0)
		if e.best == nil {
			continue
		}
		conf := 0
		for i := 0; i < nT; i++ {
			for j := i + 1; j < nT; j++ {
				if e.conflicts[i][j] {
					conf++
				}
			}
		}
		return &core.Design{
			NumBuses:      k,
			BusOf:         e.best,
			MaxBusOverlap: e.bestObj,
			Conflicts:     conf,
			SearchNodes:   e.nodes,
		}, nil
	}
	return nil, fmt.Errorf("check: exhaustive oracle: no binding with %d..%d buses: %w", lo, hi, core.ErrInfeasible)
}

// enumerator walks the bindings of one bus count depth-first.
type enumerator struct {
	a         *trace.Analysis
	conflicts [][]bool
	maxPerBus int
	optimize  bool

	k     int
	busOf []int
	nodes int64

	best    []int // best complete binding, nil until one is found
	bestObj int64
}

// place binds receiver r and every later one, given that the earlier
// receivers use buses 0..used-1. It returns true once the search may
// stop (a first binding found when not optimizing).
func (e *enumerator) place(r, used int) bool {
	if r == len(e.busOf) {
		obj := core.MaxOverlapOf(e.a, e.k, e.busOf)
		if e.best == nil || obj < e.bestObj {
			e.best = append([]int(nil), e.busOf...)
			e.bestObj = obj
		}
		return !e.optimize
	}
	for b := 0; b < e.k && b <= used; b++ {
		e.nodes++
		if e.fits(r, b) {
			e.busOf[r] = b
			if e.place(r+1, max(used, b+1)) {
				return true
			}
		}
	}
	return false
}

// fits reports whether receiver r can join bus b given receivers
// 0..r-1 already bound: cap, conflicts and every window's bandwidth,
// recomputed from the binding rather than tracked incrementally.
func (e *enumerator) fits(r, b int) bool {
	n := 1
	for q := 0; q < r; q++ {
		if e.busOf[q] == b {
			if e.conflicts[q][r] {
				return false
			}
			n++
		}
	}
	if n > e.maxPerBus {
		return false
	}
	for m := 0; m < e.a.NumWindows(); m++ {
		load := e.a.Comm.At(r, m)
		for q := 0; q < r; q++ {
			if e.busOf[q] == b {
				load += e.a.Comm.At(q, m)
			}
		}
		if load > e.a.WindowLen(m) {
			return false
		}
	}
	return true
}
