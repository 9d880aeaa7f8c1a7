package baseline

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// peakyTrace has two receivers fully busy in the same short region of a
// long, otherwise idle trace: average demand is low but peak demand
// needs two buses.
func peakyTrace() *trace.Trace {
	return &trace.Trace{
		NumReceivers: 2,
		NumSenders:   1,
		Horizon:      1000,
		Events: []trace.Event{
			{Start: 0, Len: 95, Receiver: 0},
			{Start: 0, Len: 95, Receiver: 1},
		},
	}
}

func TestAverageFlowMissesPeaks(t *testing.T) {
	d, err := AverageFlow(peakyTrace(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumBuses != 1 {
		t.Errorf("average-flow design = %d buses, want 1 (averages hide the peak)", d.NumBuses)
	}
}

func TestPeakBandwidthOverProvisions(t *testing.T) {
	d, err := PeakBandwidth(peakyTrace(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumBuses != 2 {
		t.Errorf("peak-bandwidth design = %d buses, want 2 (any overlap separates)", d.NumBuses)
	}
}

func TestPeakBandwidthSeparatesEvenTinyOverlap(t *testing.T) {
	tr := &trace.Trace{
		NumReceivers: 2,
		NumSenders:   1,
		Horizon:      1000,
		Events: []trace.Event{
			{Start: 0, Len: 10, Receiver: 0},
			{Start: 9, Len: 10, Receiver: 1}, // 1 cycle of overlap
		},
	}
	d, err := PeakBandwidth(tr, 100)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumBuses != 2 {
		t.Errorf("1-cycle overlap not separated: %d buses", d.NumBuses)
	}
	// The window-based designer with a threshold tolerates it.
	a, err := trace.AnalyzeCtx(context.Background(), tr, 100)
	if err != nil {
		t.Fatal(err)
	}
	win, err := core.DesignCrossbar(a, core.Options{OverlapThreshold: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if win.NumBuses != 1 {
		t.Errorf("window design = %d buses, want 1", win.NumBuses)
	}
}

func TestRandomBindingRespectsConstraints(t *testing.T) {
	// 6 receivers, one conflict pair, cap 3 per bus, on 3 buses.
	tr := &trace.Trace{NumReceivers: 6, NumSenders: 1, Horizon: 100}
	for r := 0; r < 6; r++ {
		tr.Events = append(tr.Events, trace.Event{Start: int64(10 * r), Len: 9, Receiver: r})
	}
	// Make receivers 0 and 1 overlap fully so a 0% threshold conflicts
	// them.
	tr.Events[1] = trace.Event{Start: 0, Len: 9, Receiver: 1}
	a, err := trace.AnalyzeCtx(context.Background(), tr, 100)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{OverlapThreshold: 0, MaxPerBus: 3}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		d, err := RandomBinding(a, opts, 3, rng, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Validate(a, opts); err != nil {
			t.Fatalf("trial %d: random binding invalid: %v", trial, err)
		}
		if d.BusOf[0] == d.BusOf[1] {
			t.Fatalf("trial %d: conflicting receivers share bus", trial)
		}
	}
}

func TestRandomBindingVariety(t *testing.T) {
	tr := &trace.Trace{NumReceivers: 6, NumSenders: 1, Horizon: 600}
	for r := 0; r < 6; r++ {
		tr.Events = append(tr.Events, trace.Event{Start: int64(100 * r), Len: 50, Receiver: r})
	}
	a, err := trace.AnalyzeCtx(context.Background(), tr, 100)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{OverlapThreshold: -1}
	rng := rand.New(rand.NewSource(1))
	seen := map[string]bool{}
	for trial := 0; trial < 30; trial++ {
		d, err := RandomBinding(a, opts, 3, rng, 0)
		if err != nil {
			t.Fatal(err)
		}
		key := ""
		for _, b := range d.BusOf {
			key += string(rune('0' + b))
		}
		seen[key] = true
	}
	if len(seen) < 5 {
		t.Errorf("random binding produced only %d distinct bindings in 30 trials", len(seen))
	}
}

func TestRandomBindingInfeasible(t *testing.T) {
	// Two receivers that must be separated, but only one bus.
	tr := &trace.Trace{
		NumReceivers: 2,
		NumSenders:   1,
		Horizon:      100,
		Events: []trace.Event{
			{Start: 0, Len: 60, Receiver: 0},
			{Start: 0, Len: 60, Receiver: 1},
		},
	}
	a, err := trace.AnalyzeCtx(context.Background(), tr, 100)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	if _, err := RandomBinding(a, core.Options{OverlapThreshold: -1}, 1, rng, 10); err == nil {
		t.Error("infeasible random binding succeeded")
	}
	if _, err := RandomBinding(a, core.Options{OverlapThreshold: -1}, 0, rng, 10); err == nil {
		t.Error("zero buses accepted")
	}
}
