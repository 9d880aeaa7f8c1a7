package trace

import (
	"errors"
	"fmt"
)

// AdaptiveBoundaries derives variable-size analysis windows from the
// traffic itself — the extension the paper lists as future work
// ("analyze the effect of using variable simulation window sizes").
//
// Window edges are aligned to activity onsets: the horizon is probed
// in buckets of minWS/4 cycles, and a boundary candidate is placed
// wherever aggregate traffic starts after an idle bucket — so each
// burst epoch tends to fall inside one window instead of straddling
// two, which is what makes fixed windows conservative. Candidates
// closer than minWS to the previous boundary are dropped, and windows
// longer than maxWS are split evenly. The result always starts at 0,
// ends at the horizon, and is strictly increasing — directly usable as
// the Edges of a window plan.
func AdaptiveBoundaries(tr *Trace, minWS, maxWS int64) ([]int64, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if minWS <= 0 || maxWS < minWS {
		return nil, fmt.Errorf("trace: need 0 < minWS ≤ maxWS, got %d, %d", minWS, maxWS)
	}
	if tr.Horizon <= minWS {
		return []int64{0, tr.Horizon}, nil
	}

	bucket := minWS / 4
	if bucket < 1 {
		bucket = 1
	}
	numBuckets := int((tr.Horizon + bucket - 1) / bucket)
	activity := make([]int64, numBuckets)
	for _, e := range tr.Events {
		first := e.Start / bucket
		last := (e.End() - 1) / bucket
		for b := first; b <= last && int(b) < numBuckets; b++ {
			lo, hi := b*bucket, (b+1)*bucket
			if e.Start > lo {
				lo = e.Start
			}
			if e.End() < hi {
				hi = e.End()
			}
			if hi > lo {
				activity[b] += hi - lo
			}
		}
	}

	// Candidates: bucket starts where activity begins after idleness.
	var candidates []int64
	for b := 1; b < numBuckets; b++ {
		if activity[b] > 0 && activity[b-1] == 0 {
			candidates = append(candidates, int64(b)*bucket)
		}
	}

	boundaries := []int64{0}
	last := int64(0)
	push := func(edge int64) {
		// Split oversized spans evenly into ≤ maxWS pieces.
		for edge-last > maxWS {
			pieces := (edge - last + maxWS - 1) / maxWS
			step := (edge - last) / pieces
			last += step
			boundaries = append(boundaries, last)
		}
		if edge-last >= minWS {
			boundaries = append(boundaries, edge)
			last = edge
		}
	}
	for _, c := range candidates {
		push(c)
	}
	// Close at the horizon. An undersized tail is merged into the
	// previous window when that stays within maxWS; otherwise the last
	// boundary is slid back to restore minWS for the tail, and if even
	// that is impossible the short tail window is kept (the only
	// allowed minWS violation).
	for tr.Horizon-last > maxWS {
		pieces := (tr.Horizon - last + maxWS - 1) / maxWS
		step := (tr.Horizon - last) / pieces
		last += step
		boundaries = append(boundaries, last)
	}
	if tail := tr.Horizon - last; tail < minWS && len(boundaries) > 1 {
		prev := boundaries[len(boundaries)-2]
		switch {
		case tr.Horizon-prev <= maxWS:
			boundaries = boundaries[:len(boundaries)-1]
		case tr.Horizon-minWS-prev >= minWS:
			boundaries[len(boundaries)-1] = tr.Horizon - minWS
		}
	}
	boundaries = append(boundaries, tr.Horizon)

	// Defensive validation of the invariants promised above.
	for i := 1; i < len(boundaries); i++ {
		if boundaries[i] <= boundaries[i-1] {
			return nil, errors.New("trace: internal error: adaptive boundaries not increasing")
		}
	}
	return boundaries, nil
}
