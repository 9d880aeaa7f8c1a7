package experiments

import (
	"context"

	"repro/internal/conc"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// AdaptiveRow compares fixed-size and adaptive (variable-size) window
// analysis on one workload — the paper's future-work extension
// ("variable simulation window sizes ... for guaranteeing QoS").
type AdaptiveRow struct {
	App          string
	FixedWindows int
	FixedBuses   int
	FixedAvgLat  float64
	AdaptWindows int
	AdaptBuses   int
	AdaptAvgLat  float64
	FullAvgLat   float64
}

// Adaptive runs the fixed-vs-adaptive window comparison on the
// synthetic benchmark (whose drifting bursts are the stress case for
// fixed window alignment) and on Mat2.
func Adaptive(seed int64) ([]AdaptiveRow, error) {
	return AdaptiveCtx(context.Background(), seed)
}

// AdaptiveCtx is Adaptive with cancellation; the two applications run
// concurrently, each writing its own row.
func AdaptiveCtx(ctx context.Context, seed int64) ([]AdaptiveRow, error) {
	apps := []*workloads.App{workloads.Synthetic(seed, 1000), workloads.Mat2(seed)}
	rows := make([]AdaptiveRow, len(apps))
	err := conc.ForEach(ctx, len(apps), 0, func(ctx context.Context, i int) error {
		app := apps[i]
		run, err := PrepareCtx(ctx, app)
		if err != nil {
			return err
		}
		opts := core.DefaultOptions()
		if app.Name == "Synth" {
			opts.MaxPerBus = 0
			opts.OverlapThreshold = -1
		}

		// Fixed windows at the app's recommended size (the Figure 5
		// operating point).
		fixedPair, err := run.DesignCtx(ctx, opts)
		if err != nil {
			return err
		}
		fixedRes, err := run.ValidateCtx(ctx, fixedPair)
		if err != nil {
			return err
		}

		// Adaptive windows between 1× and 4× the recommended size,
		// aligned to burst onsets.
		aReq, err := analyzeAdaptive(ctx, run.Full.ReqTrace, app.WindowSize)
		if err != nil {
			return err
		}
		aResp, err := analyzeAdaptive(ctx, run.Full.RespTrace, app.WindowSize)
		if err != nil {
			return err
		}
		dReq, err := core.DesignCrossbarCtx(ctx, aReq, opts)
		if err != nil {
			return err
		}
		dResp, err := core.DesignCrossbarCtx(ctx, aResp, opts)
		if err != nil {
			return err
		}
		adaptPair := &DesignPair{Req: dReq, Resp: dResp}
		adaptRes, err := run.ValidateCtx(ctx, adaptPair)
		if err != nil {
			return err
		}

		rows[i] = AdaptiveRow{
			App:          app.Name,
			FixedWindows: run.AReq.NumWindows(),
			FixedBuses:   fixedPair.TotalBuses(),
			FixedAvgLat:  fixedRes.Latency.SummarizePacket().Avg,
			AdaptWindows: aReq.NumWindows(),
			AdaptBuses:   adaptPair.TotalBuses(),
			AdaptAvgLat:  adaptRes.Latency.SummarizePacket().Avg,
			FullAvgLat:   run.Full.Latency.SummarizePacket().Avg,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// AdaptiveReport renders the comparison.
func AdaptiveReport(rows []AdaptiveRow) *report.Table {
	t := report.NewTable("Extension (paper future work): Fixed vs Adaptive Analysis Windows",
		"Application", "Fixed wins", "Fixed buses", "Fixed avg lat", "Adaptive wins", "Adaptive buses", "Adaptive avg lat", "Full avg lat")
	for _, r := range rows {
		t.AddRow(r.App, r.FixedWindows, r.FixedBuses, r.FixedAvgLat, r.AdaptWindows, r.AdaptBuses, r.AdaptAvgLat, r.FullAvgLat)
	}
	return t
}

// analyzeAdaptive analyzes a trace on onset-aligned windows between ws
// and 4·ws cycles (trace.AdaptiveBoundaries).
func analyzeAdaptive(ctx context.Context, tr *trace.Trace, ws int64) (*trace.Analysis, error) {
	edges, err := trace.AdaptiveBoundaries(tr, ws, 4*ws)
	if err != nil {
		return nil, err
	}
	return trace.AnalyzeTrace(ctx, tr, trace.Windows{Edges: edges}, 1, nil)
}
