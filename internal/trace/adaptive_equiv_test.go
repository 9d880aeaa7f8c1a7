package trace_test

// The adaptive-window analysis (AdaptiveBoundaries edges as a window
// plan) runs on the sweep-line driver. These tests pin it to the
// retained legacy pairwise kernel, bit for bit, on the
// deterministic benchmark problem set — variable-size windows are the
// irregular-boundary case the sweep's monotone window cursor has to get
// exactly right.

import (
	"context"
	"strings"
	"testing"

	"repro/internal/benchprobs"
	"repro/internal/trace"
)

func TestAdaptiveBoundariesInvariants(t *testing.T) {
	for _, n := range []int{8, 12, 32} {
		tr := benchprobs.TraceN(n)
		for _, span := range [][2]int64{{50, 400}, {100, 1000}, {400, 4000}} {
			minWS, maxWS := span[0], span[1]
			bs, err := trace.AdaptiveBoundaries(tr, minWS, maxWS)
			if err != nil {
				t.Fatalf("AdaptiveBoundaries(n=%d, %d, %d): %v", n, minWS, maxWS, err)
			}
			if bs[0] != 0 || bs[len(bs)-1] != tr.Horizon {
				t.Fatalf("n=%d boundaries %v do not span [0,%d]", n, bs, tr.Horizon)
			}
			for m := 1; m < len(bs); m++ {
				w := bs[m] - bs[m-1]
				if w <= 0 || w > maxWS {
					t.Fatalf("n=%d window %d has length %d (maxWS %d)", n, m-1, w, maxWS)
				}
			}
		}
	}
}

func TestAdaptiveEdgesMatchLegacy(t *testing.T) {
	for _, n := range []int{8, 12, 32} {
		tr := benchprobs.TraceN(n)
		for _, span := range [][2]int64{{50, 400}, {100, 1000}, {400, 4000}} {
			minWS, maxWS := span[0], span[1]
			bs, err := trace.AdaptiveBoundaries(tr, minWS, maxWS)
			if err != nil {
				t.Fatal(err)
			}
			got, err := trace.AnalyzeTrace(context.Background(), tr, trace.Windows{Edges: bs}, 1, nil)
			if err != nil {
				t.Fatalf("adaptive analysis (n=%d, %d, %d): %v", n, minWS, maxWS, err)
			}
			want, err := trace.AnalyzeLegacy(context.Background(), tr, trace.Windows{Edges: bs})
			if err != nil {
				t.Fatalf("legacy kernel on adaptive boundaries: %v", err)
			}
			if diffs := trace.DiffAnalyses(got, want); len(diffs) > 0 {
				t.Fatalf("n=%d minWS=%d maxWS=%d sweep vs legacy:\n%s",
					n, minWS, maxWS, strings.Join(diffs, "\n"))
			}
		}
	}
}

// TestAdaptiveEdgesSelfConsistent checks the analysis on onset-aligned
// windows of the benchmark set stays self-consistent: every overlap is
// bounded by the participating Comm entries.
func TestAdaptiveEdgesSelfConsistent(t *testing.T) {
	tr := benchprobs.TraceN(12)
	bs, err := trace.AdaptiveBoundaries(tr, 100, 1000)
	if err != nil {
		t.Fatal(err)
	}
	a, err := trace.AnalyzeTrace(context.Background(), tr, trace.Windows{Edges: bs}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.NumReceivers; i++ {
		for j := i + 1; j < a.NumReceivers; j++ {
			for m := 0; m < a.NumWindows(); m++ {
				ov := a.PairOverlap(i, j, m)
				if ci, cj := a.Comm.At(i, m), a.Comm.At(j, m); ov > ci || ov > cj {
					t.Fatalf("overlap(%d,%d,%d)=%d exceeds comm (%d, %d)", i, j, m, ov, ci, cj)
				}
			}
		}
	}
}
