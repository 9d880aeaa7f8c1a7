package trace

import (
	"context"

	"repro/internal/ds"
)

// DutyCycles returns each receiver's busy fraction over the whole
// trace — the average-utilization view of the traffic.
func (tr *Trace) DutyCycles() []float64 {
	busy, _ := tr.busyByReceiver()
	out := make([]float64, tr.NumReceivers)
	for i, set := range busy {
		out[i] = float64(set.Len()) / float64(tr.Horizon)
	}
	return out
}

// PeakWindowDuty returns each receiver's maximum busy fraction over
// windows of ws cycles — the peak-utilization view, whose gap to
// DutyCycles quantifies how bursty the stream is.
func (tr *Trace) PeakWindowDuty(ws int64) ([]float64, error) {
	a, err := AnalyzeCtx(context.TODO(), tr, ws)
	if err != nil {
		return nil, err
	}
	out := make([]float64, tr.NumReceivers)
	for i := 0; i < tr.NumReceivers; i++ {
		for m := 0; m < a.NumWindows(); m++ {
			if f := float64(a.Comm.At(i, m)) / float64(a.WindowLen(m)); f > out[i] {
				out[i] = f
			}
		}
	}
	return out, nil
}

// OverlapFractions returns, for every unordered receiver pair, the
// total overlap as a fraction of the smaller stream's busy cycles —
// 1.0 means the lighter stream is always covered by the heavier one.
// Pairs where either stream is idle report 0.
func (tr *Trace) OverlapFractions() *ds.SymMatrixF {
	busy, _ := tr.busyByReceiver()
	out := ds.NewSymMatrixF(tr.NumReceivers)
	for i := 0; i < tr.NumReceivers; i++ {
		for j := i + 1; j < tr.NumReceivers; j++ {
			li, lj := busy[i].Len(), busy[j].Len()
			min := li
			if lj < min {
				min = lj
			}
			if min == 0 {
				continue
			}
			out.Set(i, j, float64(busy[i].IntersectLen(busy[j]))/float64(min))
		}
	}
	return out
}

// BurstHistogram buckets burst lengths into powers of two starting at
// minLen; the last bucket is open-ended. Returned counts align with
// the returned bucket lower bounds.
func (tr *Trace) BurstHistogram(minLen int64, buckets int) (bounds []int64, counts []int) {
	if buckets < 1 {
		buckets = 1
	}
	if minLen < 1 {
		minLen = 1
	}
	bounds = make([]int64, buckets)
	counts = make([]int, buckets)
	b := minLen
	for i := range bounds {
		bounds[i] = b
		b *= 2
	}
	busy, _ := tr.busyByReceiver()
	for _, set := range busy {
		for _, iv := range set.Intervals() {
			l := iv.Len()
			idx := 0
			for idx < buckets-1 && l >= bounds[idx+1] {
				idx++
			}
			if l >= bounds[0] {
				counts[idx]++
			} else {
				counts[0]++
			}
		}
	}
	return bounds, counts
}

// WindowSizeHint suggests an analysis window for the trace following
// the paper's Section 7.2 guidance: 1–4× the typical burst length for
// a balanced design (we pick 2×), clamped to at least 1 cycle and at
// most the horizon. For burst-free traces it falls back to 1% of the
// horizon.
func (tr *Trace) WindowSizeHint() int64 {
	st := tr.Bursts()
	ws := int64(2 * st.MeanLen)
	if ws < 1 {
		ws = tr.Horizon / 100
	}
	if ws < 1 {
		ws = 1
	}
	if ws > tr.Horizon {
		ws = tr.Horizon
	}
	return ws
}
