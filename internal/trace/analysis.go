package trace

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/conc"
	"repro/internal/ds"
	"repro/internal/obs"
)

// Analysis instruments (see internal/obs): total analyses run and
// total windows characterized across them.
var (
	metAnalyses = obs.NewCounter("trace.analyses")
	metWindows  = obs.NewCounter("trace.windows")
)

// Analysis is the window-based view of a trace (paper Definitions 1–2).
// All per-window quantities are measured in cycles.
type Analysis struct {
	// NumReceivers is copied from the analyzed trace.
	NumReceivers int
	// Boundaries holds the window edges: window m spans
	// [Boundaries[m], Boundaries[m+1]). len(Boundaries) == NumWindows+1.
	Boundaries []int64
	// Comm[i][m] is the number of cycles receiver i receives data in
	// window m (paper comm_{i,m}).
	Comm *ds.Int64Matrix
	// CritComm[i][m] is the same restricted to critical transfers.
	CritComm *ds.Int64Matrix
	// Overlap holds, for every unordered receiver pair (i,j), the
	// per-window overlap wo_{i,j,m}: Overlap[pairIndex(i,j)][m]. Rows
	// store only the nonzero windows (most pairs overlap rarely, if at
	// all, in realistic workloads); use the PairOverlap accessors
	// rather than indexing the matrix directly.
	Overlap *ds.SparseInt64Matrix
	// CritOverlap is the per-window overlap restricted to cycles where
	// both receivers carry critical traffic, stored sparsely like
	// Overlap.
	CritOverlap *ds.SparseInt64Matrix
	// OM is the aggregate overlap matrix om_{i,j} = Σ_m wo_{i,j,m}
	// (paper Eq. 1).
	OM *ds.SymMatrix

	// mwl memoizes MaxWindowLoad (0 = not yet computed; the result is
	// always ≥ 1). Atomic so concurrent design probes sharing one
	// analysis may race benignly: every computation yields the same
	// value.
	mwl atomic.Int64
	// fp memoizes Fingerprint (nil = not yet computed), with the same
	// benign-race contract as mwl.
	fp atomic.Pointer[Fingerprint]
}

// NumWindows returns the number of analysis windows.
func (a *Analysis) NumWindows() int { return len(a.Boundaries) - 1 }

// WindowLen returns the length in cycles of window m.
func (a *Analysis) WindowLen(m int) int64 { return a.Boundaries[m+1] - a.Boundaries[m] }

// maxWindows bounds the number of analysis windows a single analysis
// may produce, guarding against absurd window sizes turning into
// multi-gigabyte matrix allocations.
const maxWindows = 1 << 26

// CheckPair validates a receiver pair against the analysis shape,
// returning a descriptive error for out-of-range or diagonal indices.
// The unchecked accessors (PairIndex, PairOverlap, ...) are the hot
// path and panic on misuse; callers handling untrusted indices should
// use the *Checked variants instead.
func (a *Analysis) CheckPair(i, j int) error {
	if i < 0 || i >= a.NumReceivers || j < 0 || j >= a.NumReceivers {
		return fmt.Errorf("trace: receiver pair (%d,%d) outside range [0,%d)", i, j, a.NumReceivers)
	}
	if i == j {
		return fmt.Errorf("trace: receiver pair (%d,%d) is the diagonal (pairs are unordered distinct receivers)", i, j)
	}
	return nil
}

// checkWindow validates a window index.
func (a *Analysis) checkWindow(m int) error {
	if m < 0 || m >= a.NumWindows() {
		return fmt.Errorf("trace: window %d outside range [0,%d)", m, a.NumWindows())
	}
	return nil
}

// PairIndex maps an unordered receiver pair to its Overlap row. It
// panics with a descriptive message when either receiver is out of
// range or i == j (there is no row for the diagonal); PairOverlap and
// PairCritOverlap tolerate i == j, returning 0.
func (a *Analysis) PairIndex(i, j int) int {
	if i < 0 || j < 0 || i >= a.NumReceivers || j >= a.NumReceivers || i == j {
		panic(fmt.Sprintf("trace: no pair row for (%d,%d) with %d receivers", i, j, a.NumReceivers))
	}
	if i > j {
		i, j = j, i
	}
	return i*(2*a.NumReceivers-i-1)/2 + (j - i - 1)
}

// PairOverlap returns wo_{i,j,m}.
func (a *Analysis) PairOverlap(i, j, m int) int64 {
	if i == j {
		return 0
	}
	return a.Overlap.At(a.PairIndex(i, j), m)
}

// PairOverlapChecked is PairOverlap with explicit validation of the
// receiver pair and window index, for callers on untrusted input.
func (a *Analysis) PairOverlapChecked(i, j, m int) (int64, error) {
	if err := a.CheckPair(i, j); err != nil {
		return 0, err
	}
	if err := a.checkWindow(m); err != nil {
		return 0, err
	}
	return a.Overlap.At(a.PairIndex(i, j), m), nil
}

// PairCritOverlap returns the critical-stream overlap of (i,j) in window m.
func (a *Analysis) PairCritOverlap(i, j, m int) int64 {
	if i == j {
		return 0
	}
	return a.CritOverlap.At(a.PairIndex(i, j), m)
}

// PairCritOverlapChecked is PairCritOverlap with explicit validation.
func (a *Analysis) PairCritOverlapChecked(i, j, m int) (int64, error) {
	if err := a.CheckPair(i, j); err != nil {
		return 0, err
	}
	if err := a.checkWindow(m); err != nil {
		return 0, err
	}
	return a.CritOverlap.At(a.PairIndex(i, j), m), nil
}

// newAnalysis allocates the output tables for nT receivers and the
// given window edges.
func newAnalysis(nT int, boundaries []int64) *Analysis {
	nW := len(boundaries) - 1
	nPairs := nT * (nT - 1) / 2
	return &Analysis{
		NumReceivers: nT,
		Boundaries:   boundaries,
		Comm:         ds.NewInt64Matrix(nT, nW),
		CritComm:     ds.NewInt64Matrix(nT, nW),
		Overlap:      ds.NewSparseInt64Matrix(nPairs, nW),
		CritOverlap:  ds.NewSparseInt64Matrix(nPairs, nW),
		OM:           ds.NewSymMatrix(nT),
	}
}

// Windows is a window plan: fixed windows of Size cycles (the last one
// truncated to the horizon), or, when Edges is set, explicit window
// edges — strictly increasing, from 0 to the horizon. Explicit edges
// are the variable-window extension the paper lists as future work
// (AdaptiveBoundaries derives them from the traffic); a Size at or
// beyond the horizon gives the single-window "average traffic" view of
// prior work (paper Section 2).
type Windows struct {
	Size  int64
	Edges []int64
}

// edges resolves the plan against a horizon.
func (w Windows) edges(horizon int64) ([]int64, error) {
	if w.Edges == nil {
		return windowBoundaries(horizon, w.Size)
	}
	if w.Size != 0 {
		return nil, errors.New("trace: a window plan sets Size or Edges, not both")
	}
	if err := validateBoundaries(horizon, w.Edges); err != nil {
		return nil, err
	}
	return w.Edges, nil
}

// windowBoundaries builds the fixed-size window edges for a horizon:
// windows of ws cycles, the last truncated to the horizon.
func windowBoundaries(horizon, ws int64) ([]int64, error) {
	if ws <= 0 {
		return nil, errors.New("trace: window size must be positive")
	}
	// Divide before rounding: the textbook (Horizon+ws-1)/ws ceiling
	// overflows int64 for a window size near MaxInt64 and ends up
	// asking for a negative number of windows.
	numWindows64 := horizon / ws
	if horizon%ws != 0 {
		numWindows64++
	}
	if numWindows64 > maxWindows {
		return nil, fmt.Errorf("trace: window size %d yields %d windows, more than the %d supported", ws, numWindows64, maxWindows)
	}
	numWindows := int(numWindows64)
	boundaries := make([]int64, numWindows+1)
	for m := 0; m <= numWindows; m++ {
		b := int64(m) * ws
		if b > horizon {
			b = horizon
		}
		boundaries[m] = b
	}
	return boundaries, nil
}

// validateBoundaries checks explicit window edges against a horizon.
func validateBoundaries(horizon int64, boundaries []int64) error {
	if len(boundaries) < 2 {
		return errors.New("trace: need at least one window")
	}
	if boundaries[0] != 0 {
		return errors.New("trace: first boundary must be 0")
	}
	if boundaries[len(boundaries)-1] != horizon {
		return fmt.Errorf("trace: last boundary %d must equal horizon %d", boundaries[len(boundaries)-1], horizon)
	}
	for m := 1; m < len(boundaries); m++ {
		if boundaries[m] <= boundaries[m-1] {
			return errors.New("trace: boundaries must be strictly increasing")
		}
	}
	return nil
}

// AnalyzeLegacy runs the original pairwise-intersection algorithm
// (O(R²) allocated interval-set intersections). It is the oracle the
// equivalence gates compare the sweep driver against, and the
// before/after benchmark baseline; designs use AnalyzeCtx or
// AnalyzeTrace.
func AnalyzeLegacy(ctx context.Context, tr *Trace, win Windows) (*Analysis, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	boundaries, err := win.edges(tr.Horizon)
	if err != nil {
		return nil, err
	}
	return analyzeLegacy(ctx, tr, boundaries)
}

// analyzeLegacy computes the analysis by intersecting every receiver
// pair's interval sets — the original algorithm, kept bit-compatible
// with the sweep kernel. The per-window computation is sharded by
// receiver: shard i fills Comm row i and the Overlap/CritOverlap/OM
// entries of every pair (i, j) with j > i. Shards only read the shared
// interval sets and write disjoint matrix slots, so the parallel
// result is bit-identical to the serial one.
func analyzeLegacy(ctx context.Context, tr *Trace, boundaries []int64) (*Analysis, error) {
	nT := tr.NumReceivers
	nW := len(boundaries) - 1
	a := newAnalysis(nT, boundaries)
	busy, critical := tr.busyByReceiver()

	// The sparse overlap rows are not safe for concurrent appends to
	// *different* rows (they share the build arena), so the pair rows
	// are buffered densely per shard and appended serially after the
	// parallel phase.
	overlapRows := make([][]int64, a.Overlap.Rows)
	critRows := make([][]int64, a.Overlap.Rows)

	err := conc.ForEach(ctx, nT, 0, func(ctx context.Context, i int) error {
		for m := 0; m < nW; m++ {
			a.Comm.Set(i, m, busy[i].ClipLen(boundaries[m], boundaries[m+1]))
			a.CritComm.Set(i, m, critical[i].ClipLen(boundaries[m], boundaries[m+1]))
		}
		for j := i + 1; j < nT; j++ {
			inter := busy[i].Intersection(busy[j])
			critInter := critical[i].Intersection(critical[j])
			row := a.PairIndex(i, j)
			ov := make([]int64, nW)
			cv := make([]int64, nW)
			var total int64
			for m := 0; m < nW; m++ {
				ov[m] = inter.ClipLen(boundaries[m], boundaries[m+1])
				total += ov[m]
				cv[m] = critInter.ClipLen(boundaries[m], boundaries[m+1])
			}
			overlapRows[row] = ov
			critRows[row] = cv
			if total > 0 {
				a.OM.Set(i, j, total)
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("trace: analysis canceled: %w", err)
	}
	for row := range overlapRows {
		for m, v := range overlapRows[row] {
			a.Overlap.Append(row, m, v)
		}
		for m, v := range critRows[row] {
			a.CritOverlap.Append(row, m, v)
		}
	}
	a.Overlap.Compact()
	a.CritOverlap.Compact()
	return a, nil
}

// MaxWindowLoad returns, over all windows, the maximum of the summed
// receiver loads divided into the window length — i.e. the peak number
// of fully-loaded buses any single window demands. It is a lower bound
// on the feasible bus count (used to seed the binary search, which
// calls it repeatedly), so the result is computed once — in a single
// pass over the dense Comm rows — and memoized.
func (a *Analysis) MaxWindowLoad() int {
	if v := a.mwl.Load(); v > 0 {
		return int(v)
	}
	nW := a.NumWindows()
	sums := make([]int64, nW)
	for i := 0; i < a.NumReceivers; i++ {
		row := a.Comm.Row(i)
		for m, v := range row {
			sums[m] += v
		}
	}
	best := 1
	for m, sum := range sums {
		wl := a.WindowLen(m)
		if need := int((sum + wl - 1) / wl); need > best {
			best = need
		}
	}
	a.mwl.Store(int64(best))
	return best
}
