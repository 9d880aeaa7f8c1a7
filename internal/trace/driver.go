package trace

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/conc"
	"repro/internal/obs"
)

// Every analysis runs through one driver, analyze: a source of events ×
// a window plan × a shard count. The driver checks the header, resolves
// the window edges, plans cuts at window edges, sweeps each shard's
// cycle range on the worker pool and merges the per-shard tables. A
// single pass is the driver with one shard: no plan, no merge, one
// sweep over the source. The result is bit-identical at every shard
// count and from every source (the equivalence gates compare it with
// AnalyzeLegacy).

// Driver instruments: sharded analyses run, and shards executed across
// them.
var (
	metShardedRuns = obs.NewCounter("trace.sharded.analyses")
	metShardsRun   = obs.NewCounter("trace.sharded.shards")
)

// ErrUnsorted reports a byte-image or streaming analysis that met an
// event starting before its predecessor. Those sources cannot sort
// without materializing the events, so callers holding the full trace
// should errors.Is-match this and fall back to ReadBinary +
// AnalyzeTrace (which sorts in memory).
var ErrUnsorted = errors.New("trace: events not start-ordered")

// maxStreamReceivers bounds the receiver count: the analysis tables
// are O(R²) rows, allocated before the first event is read, so a
// hostile header must not commit gigabytes. Real STbus platforms top
// out at 32 targets.
const maxStreamReceivers = 1 << 12

// ShardStat describes one shard of an analysis: the window range it
// covered, the event pieces it fed (a grant straddling a cut is
// counted once per shard it touches) and the wall-clock time of its
// sweep pass.
type ShardStat struct {
	Windows int
	Events  int64
	NS      int64
}

// ShardStats is the optional instrumentation output of the analysis
// driver, for tools that report per-shard throughput (tracestat
// -stream -shards, analysisbench). A one-shard run has PlanNS ==
// MergeNS == 0.
type ShardStats struct {
	Shards  []ShardStat
	PlanNS  int64
	MergeNS int64
}

// EventsPerSec returns the event throughput implied by the plan, the
// slowest shard and the merge (PlanNS + max shard NS + MergeNS): the
// wall clock the analysis would take with one core per shard. It is
// implied, not measured — on a host with fewer cores than shards the
// shards queue and the wall clock is longer. 0 when unmeasurable.
func (s *ShardStats) EventsPerSec() float64 {
	var total, maxNS int64
	for _, st := range s.Shards {
		total += st.Events
		maxNS = max(maxNS, st.NS)
	}
	ns := s.PlanNS + maxNS + s.MergeNS
	if ns <= 0 {
		return 0
	}
	return float64(total) / (float64(ns) / 1e9)
}

// AnalyzeCtx divides the trace into fixed-size windows of ws cycles
// (the last window may be shorter if the horizon is not a multiple)
// and computes the per-window traffic characteristics in a single
// pass.
func AnalyzeCtx(ctx context.Context, tr *Trace, ws int64) (*Analysis, error) {
	return AnalyzeTrace(ctx, tr, Windows{Size: ws}, 1, nil)
}

// AnalyzeTrace analyzes an in-memory trace, in any event order, on the
// given window plan. shards > 1 partitions the trace into cycle-range
// shards swept in parallel and merged; shards ≤ 0 means one shard per
// CPU core. stats may be nil.
func AnalyzeTrace(ctx context.Context, tr *Trace, win Windows, shards int, stats *ShardStats) (*Analysis, error) {
	return analyze(ctx, indexed{sh: tr.shape(), events: sortEventsByStart(tr.Events)}, win, shards, stats)
}

// analyze is the driver.
func analyze(ctx context.Context, src source, win Windows, shards int, stats *ShardStats) (*Analysis, error) {
	sh := src.shape()
	if err := sh.validate(); err != nil {
		return nil, err
	}
	if sh.nT > maxStreamReceivers {
		return nil, fmt.Errorf("trace: %d receivers exceeds the streaming-analysis limit %d", sh.nT, maxStreamReceivers)
	}
	boundaries, err := win.edges(sh.horizon)
	if err != nil {
		return nil, err
	}
	nW := len(boundaries) - 1
	cs, cuttable := src.(cuttable)
	shards = resolveShards(shards, nW)
	if !cuttable {
		shards = 1
	}

	ctx, span := obs.Start(ctx, "trace.analyze")
	defer span.End()
	kernel := "sweep"
	if shards > 1 {
		kernel = "sharded"
	}
	span.SetStr("kernel", kernel)
	span.SetInt("receivers", int64(sh.nT))
	span.SetInt("windows", int64(nW))
	span.SetInt("events", int64(sh.events))
	span.SetInt("shards", int64(shards))
	metAnalyses.Inc()
	metWindows.Add(int64(nW))

	// cuts[s] is the first window of shard s; reach[s] lists the blocks
	// shard s reads (nil: the whole source).
	cuts := []int{0, nW}
	reach := make([][]block, shards)
	var planNS int64
	if shards > 1 {
		metShardedRuns.Inc()
		metShardsRun.Add(int64(shards))
		t0 := time.Now()
		idx, err := cs.index()
		if err != nil {
			return nil, err
		}
		cuts = planCuts(boundaries, shards, sh.events, func(te uint64) int64 { return cs.cutStart(idx, te) })
		for s := range reach {
			reach[s] = blocksReaching(idx, boundaries[cuts[s]], boundaries[cuts[s+1]])
		}
		planNS = time.Since(t0).Nanoseconds()
	}

	sweepers := make([]*sweeper, shards)
	stat := make([]ShardStat, shards)
	err = conc.ForEach(ctx, shards, 0, func(ctx context.Context, s int) error {
		ts := time.Now()
		w0, w1 := cuts[s], cuts[s+1]
		f := &feed{
			ctx: ctx,
			sh:  sh,
			sw:  newSweeper(sh.nT, boundaries[w0:w1+1]),
			lo:  boundaries[w0],
			hi:  boundaries[w1],
		}
		if w0 < w1 {
			if err := src.list(reach[s], f); err != nil {
				return err
			}
		}
		f.sw.finishTables()
		sweepers[s] = f.sw
		stat[s] = ShardStat{Windows: w1 - w0, Events: f.fed, NS: time.Since(ts).Nanoseconds()}
		return nil
	})
	if err != nil {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("trace: analysis canceled: %w", err)
		}
		return nil, err
	}

	var a *Analysis
	var mergeNS int64
	if shards == 1 {
		a = sweepers[0].a
		deriveOM(a)
	} else {
		tm := time.Now()
		a = mergeShards(sh.nT, boundaries, cuts, sweepers)
		mergeNS = time.Since(tm).Nanoseconds()
	}
	annotate(span, sweepers, a)
	if stats != nil {
		*stats = ShardStats{Shards: stat, PlanNS: planNS, MergeNS: mergeNS}
	}
	return a, nil
}

// resolveShards turns the shard-count knob into an effective count:
// nonpositive means one shard per CPU core, and the count never exceeds
// the window count (cuts snap to window boundaries, so more shards than
// windows cannot all be nonempty).
func resolveShards(shards, nW int) int {
	if shards <= 0 {
		shards = conc.Workers(0)
	}
	return max(1, min(shards, nW))
}

// planCuts places the shard cuts, event-count balanced: cut s aims at
// event n·s/shards and snaps down to the edge of the window holding the
// source's cut candidate there, so every window — and therefore every
// output table cell — belongs to exactly one shard. cuts[s] is the
// first window of shard s; equal neighbours make a zero-length shard.
func planCuts(boundaries []int64, shards int, n uint64, cutStart func(te uint64) int64) []int {
	nW := len(boundaries) - 1
	cuts := make([]int, shards+1)
	cuts[shards] = nW
	for s := 1; s < shards; s++ {
		w := nW * s / shards
		if n > 0 {
			cs := cutStart(n * uint64(s) / uint64(shards))
			w = sort.Search(nW, func(m int) bool { return boundaries[m+1] > cs })
		}
		cuts[s] = max(w, cuts[s-1])
	}
	return cuts
}

// blocksReaching lists the blocks whose cycle range meets [lo, hi):
// those starting inside it, and the earlier ones still busy at lo,
// whose grants the shard feeds clipped to lo. The result is never nil.
func blocksReaching(idx []block, lo, hi int64) []block {
	out := []block{}
	for _, b := range idx {
		if b.firstStart >= hi {
			break
		}
		if b.maxEnd > lo {
			out = append(out, b)
		}
	}
	return out
}

// feed is one shard's sink for the events its source lists, in source
// order: each is checked against the header, clipped to the shard's
// cycle range [lo, hi) and swept. Feeding the clipped carry-ins first
// and then the shard's own events in start order is exactly the
// sequence the single pass feeds for these windows, which is what keeps
// every shard count bit-identical. fed counts the nonempty pieces.
type feed struct {
	ctx    context.Context
	sh     shape
	sw     *sweeper
	lo, hi int64
	last   int64 // start of the previous event
	fed    int64
}

// put feeds a batch of events, the first being event first. The loop
// keeps its state in locals: it is the per-event hot path of every
// analysis.
func (f *feed) put(first uint64, evs []Event) error {
	sh, sw, lo, hi, last := &f.sh, f.sw, f.lo, f.hi, f.last
	fed := int64(0)
	for k := range evs {
		if k%sweepCancelStride == 0 {
			if err := f.ctx.Err(); err != nil {
				return err
			}
		}
		e := &evs[k]
		if !sh.fits(e) || e.Start < last {
			return reject(sh, last, first+uint64(k), e)
		}
		last = e.Start
		start, end := max(e.Start, lo), min(e.End(), hi)
		if start < end {
			sw.feed(start, end-start, e.Receiver, e.Critical)
			fed++
		}
	}
	f.last = last
	f.fed += fed
	return nil
}

// reject says why event i fails the per-event test: it must lie inside
// the header's shape and start no earlier than its predecessor, which
// started at last.
func reject(sh *shape, last int64, i uint64, e *Event) error {
	if !sh.fits(e) {
		return sh.eventError(i, e)
	}
	return fmt.Errorf("%w: event %d starts at %d, before the previous start %d — byte-image and stream analyses need start-ordered traces (decode with ReadBinary and use AnalyzeTrace)", ErrUnsorted, i, e.Start, last)
}

// mergeShards assembles the global analysis from the per-shard partial
// tables. Every window belongs to exactly one shard, so the dense rows
// are disjoint column-range copies and each sparse row is the ordered
// concatenation of the shards' cells with their columns rebased — the
// same Append sequence the single pass produces, hence the same
// compacted CSR structure. OM is derived from the merged rows exactly
// as the single pass does.
func mergeShards(nT int, boundaries []int64, cuts []int, parts []*sweeper) *Analysis {
	a := newAnalysis(nT, boundaries)
	for si, sw := range parts {
		pa, wLo := sw.a, cuts[si]
		for i := 0; i < nT; i++ {
			copy(a.Comm.Row(i)[wLo:], pa.Comm.Row(i))
			copy(a.CritComm.Row(i)[wLo:], pa.CritComm.Row(i))
		}
	}
	for r := 0; r < a.Overlap.Rows; r++ {
		for si, sw := range parts {
			for _, c := range sw.a.Overlap.RowCells(r) {
				a.Overlap.Append(r, int(c.Col)+cuts[si], c.Val)
			}
		}
	}
	for r := 0; r < a.CritOverlap.Rows; r++ {
		for si, sw := range parts {
			for _, c := range sw.a.CritOverlap.RowCells(r) {
				a.CritOverlap.Append(r, int(c.Col)+cuts[si], c.Val)
			}
		}
	}
	a.Overlap.Compact()
	a.CritOverlap.Compact()
	deriveOM(a)
	return a
}
