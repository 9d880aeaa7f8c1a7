package trace

import (
	"math"
	"math/bits"
	"sort"

	"repro/internal/ds"
	"repro/internal/obs"
)

// Sweep-kernel instruments: coverage segments credited (one per maximal
// per-receiver busy interval), sparse overlap cells produced, and the
// peak size of the active-receiver set of the last analysis.
var (
	metSweepSegments = obs.NewCounter("trace.sweep.segments")
	metSparseCells   = obs.NewCounter("trace.sweep.sparse_cells")
	gagActivePeak    = obs.NewGauge("trace.sweep.active_peak")
)

// sweepStream is the sweep-line state of one traffic class (all
// traffic, or the critical subset). Events must be fed in
// nondecreasing Start order; the stream maintains, per receiver, the
// current maximal busy interval ("coverage") and an active-receiver
// bitset, and credits the output tables when a coverage interval
// closes:
//
//   - Comm[i] gets the closed interval, split across windows;
//   - for every receiver j still active, the pair (i,j) gets the
//     intersection [max(since_i, since_j), until_i), split across
//     windows into the sparse Overlap row — each maximal pairwise
//     overlap interval is credited exactly once, when its earlier
//     endpoint closes.
//
// Deactivations are processed in nondecreasing coverage-end order, so
// at i's deactivation every active j satisfies until_j ≥ until_i and
// the intersection is exact. The next receiver to close is found by a
// linear scan of the active bitset guarded by a cached lower bound on
// the minimum coverage end: the scan is O(active), the same order as
// the pair-credit loop every deactivation already pays, and far
// cheaper in constants than a heap at the active-set sizes real
// traffic produces. Total work is O(E + active · segments) plus the
// windows actually touched — versus the legacy kernel's
// O(R²·intervals) allocated interval-set intersections.
type sweepStream struct {
	nT         int
	boundaries []int64

	overlap *ds.SparseInt64Matrix

	// commRows aliases the dense Comm matrix's rows so per-segment
	// crediting skips the row-offset computation.
	commRows [][]int64

	// pairBase turns the triangular pair-row formula into one lookup:
	// row(i, j) = pairBase[i] + j for i < j.
	pairBase []int

	active      []uint64 // active-receiver bitset (1 word for R ≤ 64)
	activeCount int
	peakActive  int
	segments    int64

	since []int64 // coverage start per active receiver
	until []int64 // coverage end per active receiver

	// minUntil is a lower bound on min(until[r] : r active), MaxInt64
	// when no receiver is active, and minRecv the receiver achieving it
	// (-1 when unknown). deactivate refreshes both for free inside its
	// pair-credit loop, so steady-state draining needs no extra scans;
	// a coverage extension can leave them stale, which advance detects
	// and repairs with one O(active) scan.
	minUntil int64
	minRecv  int

	// hiWin is the window containing the most recent credit end. Both
	// ends and credit intervals advance monotonically, so windows are
	// located by nudging this cursor instead of binary searching.
	hiWin int
}

func newSweepStream(nT int, boundaries []int64, comm *ds.Int64Matrix, overlap *ds.SparseInt64Matrix) *sweepStream {
	s := &sweepStream{
		nT:         nT,
		boundaries: boundaries,
		overlap:    overlap,
		commRows:   make([][]int64, nT),
		pairBase:   make([]int, nT),
		active:     make([]uint64, (nT+63)/64),
		since:      make([]int64, nT),
		until:      make([]int64, nT),
		minUntil:   math.MaxInt64,
		minRecv:    -1,
	}
	for i := 0; i < nT; i++ {
		s.commRows[i] = comm.Row(i)
		s.pairBase[i] = i*(2*nT-i-1)/2 - i - 1
	}
	return s
}

// apply feeds one busy interval [start, end) of receiver r. Start
// values must be nondecreasing across calls.
func (s *sweepStream) apply(start, end int64, r int) {
	if s.minUntil <= start {
		s.advance(start)
	}
	if s.active[r>>6]&(1<<uint(r&63)) != 0 {
		// Already covered through until[r] > start: extend if the new
		// interval reaches further, otherwise it is subsumed. Extending
		// the tracked minimum makes it stale; advance repairs that.
		if end > s.until[r] {
			s.until[r] = end
			if r == s.minRecv {
				s.minRecv = -1
			}
		}
		return
	}
	s.active[r>>6] |= 1 << uint(r&63)
	s.activeCount++
	if s.activeCount > s.peakActive {
		s.peakActive = s.activeCount
	}
	s.since[r] = start
	s.until[r] = end
	if end < s.minUntil {
		s.minUntil = end
		s.minRecv = r
	}
}

// advance closes every coverage interval ending at or before t, in
// nondecreasing end order. Receivers whose ends coincide may close in
// any order: the pair credit between them is emitted by whichever
// closes first and the result is identical.
func (s *sweepStream) advance(t int64) {
	for s.minUntil <= t {
		r := s.minRecv
		if r < 0 || s.until[r] != s.minUntil {
			// Stale from an extension: rescan for the true minimum.
			m := int64(math.MaxInt64)
			r = -1
			for wi, w := range s.active {
				base := wi << 6
				for w != 0 {
					j := base + bits.TrailingZeros64(w)
					w &= w - 1
					if s.until[j] < m {
						r, m = j, s.until[j]
					}
				}
			}
			s.minUntil, s.minRecv = m, r
			if r < 0 || m > t {
				return
			}
		}
		s.deactivate(r)
	}
}

// finish closes all remaining coverage.
func (s *sweepStream) finish() { s.advance(math.MaxInt64) }

func (s *sweepStream) deactivate(r int) {
	end := s.until[r]
	s.active[r>>6] &^= 1 << uint(r&63)
	s.activeCount--
	s.segments++

	// Move the window cursor to the window containing cycle end-1;
	// deactivations arrive in nondecreasing end order.
	nW := len(s.boundaries) - 1
	for s.hiWin < nW-1 && s.boundaries[s.hiWin+1] < end {
		s.hiWin++
	}

	s.creditComm(r, s.since[r], end)
	lo0 := s.since[r]
	// The credit loop already visits every remaining active receiver, so
	// the next deactivation candidate falls out for free.
	nextMin, nextRecv := int64(math.MaxInt64), -1
	for wi, w := range s.active {
		base := wi << 6
		for w != 0 {
			j := base + bits.TrailingZeros64(w)
			w &= w - 1
			if u := s.until[j]; u < nextMin {
				nextMin, nextRecv = u, j
			}
			lo := lo0
			if s.since[j] > lo {
				lo = s.since[j]
			}
			if lo < end {
				s.creditPair(r, j, lo, end)
			}
		}
	}
	s.minUntil, s.minRecv = nextMin, nextRecv
}

// creditComm adds the coverage [lo, hi) of receiver i to its dense
// Comm row, split across windows.
func (s *sweepStream) creditComm(i int, lo, hi int64) {
	m := s.hiWin
	for s.boundaries[m] > lo {
		m--
	}
	row := s.commRows[i]
	for lo < hi {
		wEnd := s.boundaries[m+1]
		if wEnd > hi {
			wEnd = hi
		}
		row[m] += wEnd - lo
		lo = wEnd
		m++
	}
}

// creditPair adds the overlap [lo, hi) of receivers i and j to their
// sparse Overlap row, split across windows. The aggregate OM is not
// updated here: it is the row sums of the finished Overlap table, and
// summing the compacted cells once at the end is far cheaper than an
// extra triangular-matrix update on every credit.
func (s *sweepStream) creditPair(i, j int, lo, hi int64) {
	if i > j {
		i, j = j, i
	}
	row := s.pairBase[i] + j
	m := s.hiWin
	for s.boundaries[m] > lo {
		m--
	}
	for lo < hi {
		wEnd := s.boundaries[m+1]
		if wEnd > hi {
			wEnd = hi
		}
		s.overlap.Append(row, m, wEnd-lo)
		lo = wEnd
		m++
	}
}

// sweeper drives the two per-class streams over one start-ordered
// event feed and assembles the Analysis.
type sweeper struct {
	a          *Analysis
	busy, crit *sweepStream
}

func newSweeper(nT int, boundaries []int64) *sweeper {
	a := newAnalysis(nT, boundaries)
	return &sweeper{
		a:    a,
		busy: newSweepStream(nT, boundaries, a.Comm, a.Overlap),
		crit: newSweepStream(nT, boundaries, a.CritComm, a.CritOverlap),
	}
}

func (sw *sweeper) feed(start, length int64, recv int, critical bool) {
	end := start + length
	sw.busy.apply(start, end, recv)
	if critical {
		sw.crit.apply(start, end, recv)
	}
}

// finishTables flushes both streams and compacts the sparse tables.
// The aggregate OM is derived afterwards, once per analysis: a shard's
// partial tables are merged before it is meaningful.
func (sw *sweeper) finishTables() {
	sw.busy.finish()
	sw.crit.finish()
	sw.a.Overlap.Compact()
	sw.a.CritOverlap.Compact()
}

// deriveOM fills the aggregate OM from the compacted overlap rows
// (om_{i,j} = Σ_m wo_{i,j,m}, stored only when positive, exactly as the
// legacy kernel does).
func deriveOM(a *Analysis) {
	nT := a.NumReceivers
	row := 0
	for i := 0; i < nT; i++ {
		for j := i + 1; j < nT; j++ {
			if total := a.Overlap.RowSum(row); total > 0 {
				a.OM.Set(i, j, total)
			}
			row++
		}
	}
}

// annotate records the sweep instruments of an analysis, summed over
// its shards, on the span and the package metrics.
func annotate(span *obs.Span, shards []*sweeper, a *Analysis) {
	var segments int64
	peak := 0
	for _, sw := range shards {
		segments += sw.busy.segments + sw.crit.segments
		peak = max(peak, sw.busy.peakActive)
	}
	metSweepSegments.Add(segments)
	metSparseCells.Add(int64(a.Overlap.NNZ() + a.CritOverlap.NNZ()))
	gagActivePeak.Set(int64(peak))
	span.SetInt("segments", segments)
	span.SetInt("active_peak", int64(peak))
	span.SetFloat("sparse_fill", a.Overlap.FillRatio())
}

// sweepCancelStride is how many events the kernels process between
// cancellation polls.
const sweepCancelStride = 1 << 13

// sortEventsByStart returns the events ordered by start cycle: the
// input itself when it is already ordered (cycle-accurate simulators
// emit traces that way, so the common case costs one comparison pass
// and no copy), otherwise a sorted copy. Large inputs use an LSD radix
// sort over the Start bytes (starts are validated nonnegative, so
// unsigned byte order is value order), skipping byte planes beyond the
// largest start and planes where all keys agree; this is several times
// faster than a comparison sort at the multi-million-event sizes the
// kernel targets.
func sortEventsByStart(events []Event) []Event {
	sorted := true
	for i := 1; i < len(events); i++ {
		if events[i-1].Start > events[i].Start {
			sorted = false
			break
		}
	}
	if sorted {
		return events
	}
	out := make([]Event, len(events))
	copy(out, events)
	if len(out) < 4096 {
		sort.Slice(out, func(a, b int) bool { return out[a].Start < out[b].Start })
		return out
	}
	var maxStart int64
	for i := range out {
		if out[i].Start > maxStart {
			maxStart = out[i].Start
		}
	}
	scratch := make([]Event, len(out))
	var counts [256]int
	for shift := 0; shift < 64 && maxStart>>shift != 0; shift += 8 {
		for i := range counts {
			counts[i] = 0
		}
		for i := range out {
			counts[byte(uint64(out[i].Start)>>shift)]++
		}
		skip := false
		for _, c := range counts {
			if c == len(out) {
				skip = true // constant byte plane: already in place
				break
			}
		}
		if skip {
			continue
		}
		sum := 0
		for i, c := range counts {
			counts[i] = sum
			sum += c
		}
		for i := range out {
			b := byte(uint64(out[i].Start) >> shift)
			scratch[counts[b]] = out[i]
			counts[b]++
		}
		out, scratch = scratch, out
	}
	return out
}
