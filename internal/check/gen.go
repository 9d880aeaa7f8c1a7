package check

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/trace"
)

// GenParams shapes the random traces of the differential harness.
// The zero value is replaced by DefaultGenParams.
type GenParams struct {
	// MaxReceivers bounds the receiver count (uniform in [1, max]).
	MaxReceivers int
	// MaxSenders bounds the sender count (uniform in [1, max]).
	MaxSenders int
	// MaxHorizon bounds the trace horizon (uniform in [8, max]).
	MaxHorizon int64
	// MaxEvents bounds the event count (uniform in [0, max]).
	MaxEvents int
	// MaxLen bounds individual transfer lengths.
	MaxLen int64
	// CriticalFrac is the probability an event is critical.
	CriticalFrac float64
}

// DefaultGenParams sizes cases so that the exhaustive oracle and the
// MILP engine solve them in milliseconds, keeping a multi-hundred-case
// differential run affordable in CI. MaxReceivers stays within
// MaxExhaustiveReceivers.
func DefaultGenParams() GenParams {
	return GenParams{
		MaxReceivers: 6,
		MaxSenders:   4,
		MaxHorizon:   240,
		MaxEvents:    40,
		MaxLen:       12,
		CriticalFrac: 0.15,
	}
}

// RandomTrace generates a structurally valid trace from the seed.
// Identical seeds and params yield identical traces across runs and
// platforms (math/rand's generator sequence is stable for a source
// seed), which is what lets a failing case number be replayed.
func RandomTrace(seed int64, p GenParams) *trace.Trace {
	if p == (GenParams{}) {
		p = DefaultGenParams()
	}
	rng := rand.New(rand.NewSource(seed))
	nT := 1 + rng.Intn(p.MaxReceivers)
	nS := 1 + rng.Intn(p.MaxSenders)
	horizon := 8 + rng.Int63n(p.MaxHorizon-7)
	nE := rng.Intn(p.MaxEvents + 1)
	tr := &trace.Trace{
		NumReceivers: nT,
		NumSenders:   nS,
		Horizon:      horizon,
		Events:       make([]trace.Event, 0, nE),
	}
	for e := 0; e < nE; e++ {
		start := rng.Int63n(horizon)
		maxLen := p.MaxLen
		if rem := horizon - start; rem < maxLen {
			maxLen = rem
		}
		tr.Events = append(tr.Events, trace.Event{
			Start:    start,
			Len:      1 + rng.Int63n(maxLen),
			Sender:   rng.Intn(nS),
			Receiver: rng.Intn(nT),
			Critical: rng.Float64() < p.CriticalFrac,
		})
	}
	return tr
}

// Case is one differential problem: a trace, a window size and the
// methodology options to solve under (Engine is overridden per solver
// path by Diff).
type Case struct {
	Seed       int64
	Trace      *trace.Trace
	WindowSize int64
	Opts       core.Options
}

// RandomCase derives a full problem from the seed: a random trace plus
// randomized-but-valid methodology options spanning the knobs the
// solver paths must agree under — overlap threshold (including
// disabled), critical separation, per-bus cap (including uncapped),
// bus-range clamps (including infeasibly tight MaxBuses, to exercise
// the infeasibility verdict), and both binding modes.
func RandomCase(seed int64, p GenParams) Case {
	tr := RandomTrace(seed, p)
	rng := rand.New(rand.NewSource(seed ^ 0x5bf0_3635))
	thresholds := []float64{-1, 0, 0.1, 0.3, 0.5, 1}
	opts := core.Options{
		OverlapThreshold: thresholds[rng.Intn(len(thresholds))],
		SeparateCritical: rng.Intn(2) == 0,
		MaxPerBus:        rng.Intn(4), // 0 = uncapped
		OptimizeBinding:  rng.Intn(4) != 0,
		Workers:          1,
	}
	if rng.Intn(4) == 0 {
		// Infeasibility exercise: a MaxBuses below the receiver count
		// can make every bus count in range infeasible; all solver
		// paths must agree that it is.
		opts.MaxBuses = 1 + rng.Intn(tr.NumReceivers)
	}
	ws := 1 + rng.Int63n(tr.Horizon)
	if rng.Intn(8) == 0 {
		ws = tr.Horizon + 1 + rng.Int63n(64) // window larger than horizon
	}
	return Case{Seed: seed, Trace: tr, WindowSize: ws, Opts: opts}
}
