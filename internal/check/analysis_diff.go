package check

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/trace"
)

// AnalysisGenParams sizes random traces for the analysis-kernel
// differential harness. Unlike the solver harness (which keeps cases
// tiny so the exhaustive oracle stays affordable) no solver runs here, so
// the traces are bigger and the receiver count deliberately exceeds 64:
// the sweep kernel's active-receiver bitset then spans multiple words,
// a code path the solver-sized cases never reach.
func AnalysisGenParams() GenParams {
	return GenParams{
		MaxReceivers: 70,
		MaxSenders:   4,
		MaxHorizon:   2000,
		MaxEvents:    300,
		MaxLen:       40,
		CriticalFrac: 0.2,
	}
}

// AnalysisDiff runs one random trace through the analysis paths —
// the sweep-line kernel (the AnalyzeCtx single pass), the retained legacy
// pairwise kernel, the streaming reader fed the binary encoding of
// a start-sorted copy, and the sharded driver over the columnar v2
// byte image at a seed-drawn shard count — and returns a description
// per output mismatch. Every fourth seed additionally pins the kernels
// to each other on adaptive (variable-size) window boundaries, the
// irregular-edge case.
// The error return is reserved for harness failures (a kernel rejecting
// a valid case outright); disagreements between successful runs are
// data.
func AnalysisDiff(ctx context.Context, seed int64, p GenParams) ([]string, error) {
	if p == (GenParams{}) {
		p = AnalysisGenParams()
	}
	tr := RandomTrace(seed, p)
	rng := rand.New(rand.NewSource(seed ^ 0x7a11_ce11))
	ws := 1 + rng.Int63n(tr.Horizon)
	if rng.Intn(8) == 0 {
		ws = tr.Horizon + 1 + rng.Int63n(64) // window larger than horizon
	}

	sweep, err := trace.AnalyzeCtx(ctx, tr, ws)
	if err != nil {
		return nil, fmt.Errorf("check: case %d: sweep kernel: %w", seed, err)
	}
	legacy, err := trace.AnalyzeLegacy(ctx, tr, trace.Windows{Size: ws})
	if err != nil {
		return nil, fmt.Errorf("check: case %d: legacy kernel: %w", seed, err)
	}
	streamed, err := analyzeStreamed(ctx, tr, ws)
	if err != nil {
		return nil, fmt.Errorf("check: case %d: streaming kernel: %w", seed, err)
	}

	var out []string
	for _, d := range trace.DiffAnalyses(sweep, legacy) {
		out = append(out, fmt.Sprintf("sweep vs legacy (ws=%d): %s", ws, d))
	}
	for _, d := range trace.DiffAnalyses(sweep, streamed) {
		out = append(out, fmt.Sprintf("sweep vs stream (ws=%d): %s", ws, d))
	}

	if seed%4 == 0 {
		minWS := 1 + rng.Int63n(tr.Horizon/2+1)
		maxWS := minWS + rng.Int63n(tr.Horizon+1)
		bs, err := trace.AdaptiveBoundaries(tr, minWS, maxWS)
		if err != nil {
			return nil, fmt.Errorf("check: case %d: adaptive boundaries: %w", seed, err)
		}
		got, err := trace.AnalyzeTrace(ctx, tr, trace.Windows{Edges: bs}, 1, nil)
		if err != nil {
			return nil, fmt.Errorf("check: case %d: sweep kernel (adaptive): %w", seed, err)
		}
		want, err := trace.AnalyzeLegacy(ctx, tr, trace.Windows{Edges: bs})
		if err != nil {
			return nil, fmt.Errorf("check: case %d: legacy kernel (adaptive): %w", seed, err)
		}
		for _, d := range trace.DiffAnalyses(got, want) {
			out = append(out, fmt.Sprintf("sweep vs legacy (adaptive %d..%d): %s", minWS, maxWS, d))
		}
	}

	// Sharded out-of-core driver over the columnar v2 container: encode,
	// then analyze the byte image partitioned into a seed-drawn number
	// of shards (0 exercises the per-core default). Drawn after every
	// earlier rng use so older seeds keep reproducing the same cases.
	shards := rng.Intn(10)
	sharded, err := analyzeShardedV2(ctx, tr, ws, shards)
	if err != nil {
		return nil, fmt.Errorf("check: case %d: sharded v2 kernel: %w", seed, err)
	}
	for _, d := range trace.DiffAnalyses(sweep, sharded) {
		out = append(out, fmt.Sprintf("sweep vs sharded-v2 (ws=%d shards=%d): %s", ws, shards, d))
	}
	return out, nil
}

// analyzeShardedV2 encodes the trace in the columnar v2 container and
// analyzes the byte image through the out-of-core sharded driver — the
// path a spooled server upload takes, minus the mmap.
func analyzeShardedV2(ctx context.Context, tr *trace.Trace, ws int64, shards int) (*trace.Analysis, error) {
	var buf bytes.Buffer
	if err := trace.WriteBinaryV2(&buf, tr); err != nil {
		return nil, err
	}
	return trace.AnalyzeImage(ctx, buf.Bytes(), trace.Windows{Size: ws}, shards, nil)
}

// analyzeStreamed encodes a start-sorted copy of the trace in the
// binary format and analyzes it through trace.AnalyzeReader, never
// materializing the decoded events — the path a simulator pipe takes.
func analyzeStreamed(ctx context.Context, tr *trace.Trace, ws int64) (*trace.Analysis, error) {
	sorted := &trace.Trace{
		NumReceivers: tr.NumReceivers,
		NumSenders:   tr.NumSenders,
		Horizon:      tr.Horizon,
		Events:       append([]trace.Event(nil), tr.Events...),
	}
	sort.SliceStable(sorted.Events, func(a, b int) bool {
		return sorted.Events[a].Start < sorted.Events[b].Start
	})
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, sorted); err != nil {
		return nil, err
	}
	return trace.AnalyzeReader(ctx, &buf, ws)
}
