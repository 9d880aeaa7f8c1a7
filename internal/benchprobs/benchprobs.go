// Package benchprobs builds deterministic solver benchmark instances.
// They are shared by the in-tree `go test -bench` microbenchmarks and
// the cmd/solverbench runner that writes BENCH_solver.json, so both
// always measure the same problems.
//
// The package deliberately depends only on internal/trace: benchmark
// code living inside internal/core (and the solverbench command) can
// import it without an import cycle.
package benchprobs

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"repro/internal/trace"
)

// Analysis32 returns the window analysis of a synthetic trace with 32
// receivers — the STbus architectural maximum and the largest
// feasibility MILP the crossbar methodology ever formulates. The
// traffic is staggered DMA-style bursts with a deterministic layout:
// heavy enough that several buses are needed, light enough that the
// instance stays feasible well below 32 buses.
func Analysis32() *trace.Analysis {
	return analysisN(32)
}

// Analysis12 is a mid-size (12-receiver) variant used for the
// feasibility before/after comparison: unlike Analysis32 it is small
// enough for the legacy cold-solve path to finish.
func Analysis12() *trace.Analysis {
	return analysisN(12)
}

// Analysis8 is the small variant used for the binding (optimize-mode)
// benchmarks: the exact binding MILP of Eq. 9–11 couples every bus pair
// through the shared max-overlap variable and is far more expensive per
// bus count than the feasibility probe, so it gets the smallest
// instance.
func Analysis8() *trace.Analysis {
	return analysisN(8)
}

// TraceN returns the synthetic staggered-burst trace behind AnalysisN
// without analyzing it, for callers that want to drive the analysis
// kernels themselves (the adaptive-window equivalence tests, for one).
func TraceN(n int) *trace.Trace {
	return traceN(n)
}

// ScaledTrace builds a deterministic trace with exactly the given
// receiver and event counts, for the analysis-kernel benchmarks
// (cmd/analysisbench). Events are emitted in nondecreasing start order
// — groups of four share a start cycle (coincident endpoints are the
// common case in cycle-accurate traces) — with burst lengths that
// overrun the inter-group stride, so at any instant several receivers
// are busy and the pairwise overlap structure is non-trivial. The
// horizon scales with the event count; window size is the caller's
// choice (ScaledWindow gives the benchmark default of 256 windows).
func ScaledTrace(receivers, events int) *trace.Trace {
	const stride = 28 // cycles between group starts; bursts overrun it
	rng := rand.New(rand.NewSource(int64(receivers)*1_000_003 + int64(events)))
	maxLen := int64(0)
	tr := &trace.Trace{
		NumReceivers: receivers,
		NumSenders:   4,
		Events:       make([]trace.Event, events),
	}
	for k := 0; k < events; k++ {
		start := int64(k/4) * stride
		length := int64(9 + rng.Intn(24))
		if length > maxLen {
			maxLen = length
		}
		tr.Events[k] = trace.Event{
			Start:    start,
			Len:      length,
			Sender:   k % 4,
			Receiver: (k*13 + k/4) % receivers,
			Critical: rng.Intn(8) == 0,
		}
	}
	tr.Horizon = int64((events+3)/4)*stride + maxLen
	if tr.Horizon == 0 {
		tr.Horizon = 1
	}
	return tr
}

// WriteScaledV2 streams the ScaledTrace event shape with the given
// receiver and event counts directly into a columnar v2 trace container
// on w, never materializing the event slice — the generator for the
// out-of-core benchmark cases (cmd/analysisbench -full), whose traces
// would dwarf memory as a []trace.Event. The event sequence matches
// ScaledTrace draw for draw; only the horizon differs (the worst-case
// burst bound instead of the observed maximum, since the container
// header precedes the events). Returns the horizon written.
func WriteScaledV2(w io.Writer, receivers, events int) (int64, error) {
	const stride = 28
	const maxBurst = 9 + 23 // the largest 9+Intn(24) draw
	horizon := int64((events+3)/4)*stride + maxBurst
	rng := rand.New(rand.NewSource(int64(receivers)*1_000_003 + int64(events)))
	vw, err := trace.NewV2Writer(w, receivers, 4, horizon, uint64(events))
	if err != nil {
		return 0, err
	}
	for k := 0; k < events; k++ {
		e := trace.Event{
			Start:    int64(k/4) * stride,
			Len:      int64(9 + rng.Intn(24)),
			Sender:   k % 4,
			Receiver: (k*13 + k/4) % receivers,
			Critical: rng.Intn(8) == 0,
		}
		if err := vw.Add(e); err != nil {
			return 0, err
		}
	}
	return horizon, vw.Close()
}

// ScaledWindow returns the analysis window size for a ScaledTrace:
// fixed 500-cycle windows, the contention granularity of the paper's
// methodology (windows a few bursts wide, so per-window overlap is
// meaningful for bus binding). The window count therefore grows with
// the trace horizon — ~14k windows at a million events — which is
// exactly the regime where per-window table construction cost matters.
func ScaledWindow(tr *trace.Trace) int64 {
	ws := int64(500)
	if ws > tr.Horizon {
		ws = tr.Horizon
	}
	return ws
}

func analysisN(n int) *trace.Analysis {
	tr := traceN(n)
	a, err := trace.AnalyzeCtx(context.TODO(), tr, analysisWindow)
	if err != nil {
		panic(fmt.Sprintf("benchprobs: %v", err))
	}
	return a
}

const analysisWindow = 400

func traceN(n int) *trace.Trace {
	const horizon = 4000
	rng := rand.New(rand.NewSource(int64(n) * 7919))
	tr := &trace.Trace{NumReceivers: n, NumSenders: 1, Horizon: horizon}
	for r := 0; r < n; r++ {
		// Each receiver bursts once per period; periods and phases are
		// spread so windows see varied pairings and some hot spots.
		period := int64(400 + 25*(r%5))
		phase := int64((r * 137) % 400)
		burst := int64(100 + 12*(r%4) + rng.Intn(8))
		for s := phase; s < horizon; s += period {
			l := burst
			if s+l > horizon {
				l = horizon - s
			}
			if l <= 0 {
				continue
			}
			tr.Events = append(tr.Events, trace.Event{Start: s, Len: l, Receiver: r})
		}
	}
	return tr
}

// Analysis128 returns the window analysis of the 128-receiver
// production-scale instance (see analysisLarge). It is the smallest of
// the large set and the one the solver benchmarks pin to audited
// optimality under the default node budget.
func Analysis128() *trace.Analysis {
	return analysisLarge(128)
}

// Analysis256 is the 256-receiver variant of analysisLarge.
func Analysis256() *trace.Analysis {
	return analysisLarge(256)
}

// Analysis512 is the 512-receiver variant of analysisLarge — the upper
// end of the application-specific NoC scale the solver targets, and
// well past the 64-vertex limit of the old single-word clique bound.
func Analysis512() *trace.Analysis {
	return analysisLarge(512)
}

// analysisLarge builds the production-scale instances: n receivers in
// three phase classes (offsets 0/130/260 inside each 400-cycle window)
// bursting 121–128 cycles per window. Same-class pairs overlap by more
// than the 30% conflict threshold, so every class is a conflict clique
// of ~n/3 receivers — past 64 vertices the exact multi-word clique
// bound is what proves the minimal bus count outright. Cross-class
// pairs never overlap (130 ≥ max burst), so the aggregate-overlap
// matrix is block-diagonal and the optimal binding objective is
// exactly zero: a correct solver settles these instances through its
// bounds rather than through search, which is the point — they verify
// that the bounds, the conflict machinery and the binding proof all
// scale, and any regression that breaks a bound turns them from
// milliseconds into an exponential search.
func analysisLarge(n int) *trace.Analysis {
	const horizon = 4000
	rng := rand.New(rand.NewSource(int64(n) * 104729))
	tr := &trace.Trace{NumReceivers: n, NumSenders: 1, Horizon: horizon}
	for r := 0; r < n; r++ {
		off := int64((r % 3) * 130)
		for w := int64(0); w < horizon/analysisWindow; w++ {
			l := int64(121 + rng.Intn(8))
			tr.Events = append(tr.Events, trace.Event{Start: w*analysisWindow + off, Len: l, Receiver: r})
		}
	}
	a, err := trace.AnalyzeCtx(context.TODO(), tr, analysisWindow)
	if err != nil {
		panic(fmt.Sprintf("benchprobs: %v", err))
	}
	return a
}

// PerturbTrace returns a copy of tr with roughly frac of its events'
// burst lengths jittered by a few cycles — the "yesterday's trace,
// today's firmware" scenario the warm re-solve benchmarks model. The
// perturbation is deterministic in seed, structurally valid (lengths
// stay positive and inside the horizon), and proportional: frac 0.01
// touches ~1% of events, so the window analysis of the result differs
// from the original's in a correspondingly small number of cells.
func PerturbTrace(tr *trace.Trace, frac float64, seed int64) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	out := &trace.Trace{
		NumReceivers: tr.NumReceivers,
		NumSenders:   tr.NumSenders,
		Horizon:      tr.Horizon,
		Events:       append([]trace.Event(nil), tr.Events...),
	}
	for i := range out.Events {
		if rng.Float64() >= frac {
			continue
		}
		ev := &out.Events[i]
		ev.Len += int64(rng.Intn(9) - 4) // ±4 cycles
		if ev.Len < 1 {
			ev.Len = 1
		}
		if ev.Start+ev.Len > out.Horizon {
			ev.Len = out.Horizon - ev.Start
		}
		if ev.Len < 1 {
			ev.Len = 1
		}
	}
	return out
}

// AnalysisWindow is the window size behind Analysis8/12/32, exported
// so perturbed variants of those instances can be re-analyzed under
// identical options (a cache key requirement).
const AnalysisWindow = analysisWindow

// DeltaTrace32 is the 32-receiver instance of the warm re-solve
// (delta) benchmarks: uniform light traffic — every receiver busy
// ~45 cycles per 400-cycle window at staggered offsets — chosen so the
// analytic lower bound meets the optimum (bandwidth needs ceil(32·45
// /400) = 4 buses, and with 8 receivers per bus the packing fits).
// A warm solve that revalidates a cached 4-bus binding therefore needs
// zero feasibility probes, while a cold solve must binary-search the
// full [4, 32] range through several much larger MILP relaxations;
// the gap between those two is exactly what the delta benchmarks pin.
// Small PerturbTrace jitters keep both the bound and the cached
// binding's validity intact, so the instance warm-starts until the
// delta budget cuts reuse off.
func DeltaTrace32() *trace.Trace {
	const (
		n       = 32
		horizon = 4000
	)
	rng := rand.New(rand.NewSource(n * 7717))
	tr := &trace.Trace{NumReceivers: n, NumSenders: 1, Horizon: horizon}
	for r := 0; r < n; r++ {
		off := int64((r * 12) % 350)
		for w := int64(0); w < horizon/analysisWindow; w++ {
			l := int64(44 + rng.Intn(4))
			tr.Events = append(tr.Events, trace.Event{Start: w*analysisWindow + off, Len: l, Receiver: r})
		}
	}
	return tr
}
