package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/trace"
)

// mkAnalysis builds an analysis from events over the given horizon and
// window size.
func mkAnalysis(t *testing.T, nRecv int, horizon, ws int64, events []trace.Event) *trace.Analysis {
	t.Helper()
	tr := &trace.Trace{
		NumReceivers: nRecv,
		NumSenders:   1,
		Horizon:      horizon,
		Events:       events,
	}
	a, err := trace.AnalyzeCtx(context.Background(), tr, ws)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestBuildConflictsThreshold(t *testing.T) {
	// Receivers 0 and 1 overlap 60 of 100 cycles in window 0; receivers
	// 0 and 2 overlap 10 cycles.
	a := mkAnalysis(t, 3, 100, 100, []trace.Event{
		{Start: 0, Len: 60, Receiver: 0},
		{Start: 0, Len: 60, Receiver: 1},
		{Start: 60, Len: 10, Receiver: 0},
		{Start: 60, Len: 10, Receiver: 2},
	})
	c := BuildConflicts(a, Options{OverlapThreshold: 0.30})
	if !c[0][1] || !c[1][0] {
		t.Error("60% overlap not flagged at 30% threshold")
	}
	if c[0][2] {
		t.Error("10% overlap flagged at 30% threshold")
	}
	// Disabled preprocessing flags nothing.
	c = BuildConflicts(a, Options{OverlapThreshold: -1})
	if c[0][1] || c[0][2] {
		t.Error("disabled threshold still flags conflicts")
	}
	// Threshold 0 flags any overlap.
	c = BuildConflicts(a, Options{OverlapThreshold: 0})
	if !c[0][1] || !c[0][2] {
		t.Error("0% threshold should flag any overlap")
	}
}

func TestBuildConflictsCritical(t *testing.T) {
	a := mkAnalysis(t, 3, 100, 50, []trace.Event{
		{Start: 0, Len: 10, Receiver: 0, Critical: true},
		{Start: 5, Len: 10, Receiver: 1, Critical: true},
		{Start: 5, Len: 10, Receiver: 2}, // overlaps 0 but not critical
	})
	c := BuildConflicts(a, Options{OverlapThreshold: -1, SeparateCritical: true})
	if !c[0][1] {
		t.Error("overlapping critical streams not separated")
	}
	if c[0][2] {
		t.Error("non-critical overlap separated by critical rule")
	}
	c = BuildConflicts(a, Options{OverlapThreshold: -1, SeparateCritical: false})
	if c[0][1] {
		t.Error("critical separation applied when disabled")
	}
}

func TestDesignBandwidthForcesSplit(t *testing.T) {
	// Two receivers each 70% busy in the same window cannot share one
	// bus (140 > 100) but fit two buses.
	a := mkAnalysis(t, 2, 100, 100, []trace.Event{
		{Start: 0, Len: 70, Receiver: 0},
		{Start: 20, Len: 70, Receiver: 1},
	})
	d, err := DesignCrossbar(a, Options{OverlapThreshold: -1, OptimizeBinding: true})
	if err != nil {
		t.Fatal(err)
	}
	if d.NumBuses != 2 {
		t.Errorf("NumBuses = %d, want 2", d.NumBuses)
	}
	if err := d.Validate(a, Options{OverlapThreshold: -1}); err != nil {
		t.Error(err)
	}
}

func TestDesignAllowsSharingWhenLight(t *testing.T) {
	// Four receivers, each 20% busy in disjoint quarters of the window:
	// all fit on one bus.
	a := mkAnalysis(t, 4, 100, 100, []trace.Event{
		{Start: 0, Len: 20, Receiver: 0},
		{Start: 25, Len: 20, Receiver: 1},
		{Start: 50, Len: 20, Receiver: 2},
		{Start: 75, Len: 20, Receiver: 3},
	})
	d, err := DesignCrossbar(a, Options{OverlapThreshold: -1, OptimizeBinding: true})
	if err != nil {
		t.Fatal(err)
	}
	if d.NumBuses != 1 {
		t.Errorf("NumBuses = %d, want 1", d.NumBuses)
	}
}

func TestDesignMaxPerBus(t *testing.T) {
	// Six idle-ish receivers with maxtb 2 need 3 buses.
	var events []trace.Event
	for r := 0; r < 6; r++ {
		events = append(events, trace.Event{Start: int64(r), Len: 1, Receiver: r})
	}
	a := mkAnalysis(t, 6, 100, 100, events)
	d, err := DesignCrossbar(a, Options{OverlapThreshold: -1, MaxPerBus: 2})
	if err != nil {
		t.Fatal(err)
	}
	if d.NumBuses != 3 {
		t.Errorf("NumBuses = %d, want 3", d.NumBuses)
	}
	if err := d.Validate(a, Options{OverlapThreshold: -1, MaxPerBus: 2}); err != nil {
		t.Error(err)
	}
}

func TestDesignConflictsForceSeparation(t *testing.T) {
	// Three receivers all pairwise overlapping more than the threshold:
	// a conflict triangle needs 3 buses even though bandwidth is light.
	a := mkAnalysis(t, 3, 1000, 100, []trace.Event{
		{Start: 0, Len: 40, Receiver: 0},
		{Start: 0, Len: 40, Receiver: 1},
		{Start: 0, Len: 40, Receiver: 2},
	})
	d, err := DesignCrossbar(a, Options{OverlapThreshold: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	if d.NumBuses != 3 {
		t.Errorf("NumBuses = %d, want 3 (conflict triangle)", d.NumBuses)
	}
	if d.Conflicts != 3 {
		t.Errorf("Conflicts = %d, want 3", d.Conflicts)
	}
}

func TestDesignWindowVsSingleWindow(t *testing.T) {
	// The window-based analysis detects a hot window that the
	// whole-trace average misses (the paper's central claim).
	// Both receivers are ~100% busy in window 0 but idle for the other
	// nine windows: average utilization 10% each, peak 100% each.
	events := []trace.Event{
		{Start: 0, Len: 95, Receiver: 0},
		{Start: 0, Len: 95, Receiver: 1},
	}
	tr := &trace.Trace{NumReceivers: 2, NumSenders: 1, Horizon: 1000, Events: events}

	windowed, err := trace.AnalyzeCtx(context.Background(), tr, 100)
	if err != nil {
		t.Fatal(err)
	}
	dWin, err := DesignCrossbar(windowed, Options{OverlapThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	if dWin.NumBuses != 2 {
		t.Errorf("windowed design: NumBuses = %d, want 2", dWin.NumBuses)
	}

	avg, err := trace.AnalyzeTrace(context.Background(), tr, trace.Windows{Size: tr.Horizon}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	dAvg, err := DesignCrossbar(avg, Options{OverlapThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	if dAvg.NumBuses != 1 {
		t.Errorf("average design: NumBuses = %d, want 1 (misses the hot window)", dAvg.NumBuses)
	}
}

func TestDesignOptimalBindingMinimizesMaxOverlap(t *testing.T) {
	// Four receivers, two buses (cap 2). Overlaps: om(0,1)=50 and
	// om(2,3)=50 are large; om(0,2)=om(1,3)=5 small; om(0,3)=om(1,2)=0.
	// Optimal pairing is {0,3},{1,2} with max overlap 0; the naive
	// pairings score 50.
	events := []trace.Event{
		// om(0,1) = 50.
		{Start: 0, Len: 50, Receiver: 0},
		{Start: 0, Len: 50, Receiver: 1},
		// om(2,3) = 50.
		{Start: 100, Len: 50, Receiver: 2},
		{Start: 100, Len: 50, Receiver: 3},
		// om(0,2) = 5.
		{Start: 200, Len: 5, Receiver: 0},
		{Start: 200, Len: 5, Receiver: 2},
		// om(1,3) = 5.
		{Start: 300, Len: 5, Receiver: 1},
		{Start: 300, Len: 5, Receiver: 3},
	}
	a := mkAnalysis(t, 4, 1000, 1000, events)
	d, err := DesignCrossbar(a, Options{
		OverlapThreshold: -1,
		MaxPerBus:        2,
		OptimizeBinding:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.NumBuses != 2 {
		t.Fatalf("NumBuses = %d, want 2", d.NumBuses)
	}
	if d.MaxBusOverlap != 0 {
		t.Errorf("MaxBusOverlap = %d, want 0 (optimal binding)", d.MaxBusOverlap)
	}
	if d.BusOf[0] == d.BusOf[1] || d.BusOf[2] == d.BusOf[3] {
		t.Errorf("high-overlap pairs share a bus: %v", d.BusOf)
	}
}

func TestDesignEmptyAnalysis(t *testing.T) {
	if _, err := DesignCrossbar(nil, Options{}); err == nil {
		t.Error("nil analysis accepted")
	}
}

func TestDesignRejectsThresholdAboveOne(t *testing.T) {
	a := mkAnalysis(t, 2, 10, 10, nil)
	if _, err := DesignCrossbar(a, Options{OverlapThreshold: 1.5}); err == nil {
		t.Error("threshold > 1 accepted")
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	a := mkAnalysis(t, 2, 100, 100, []trace.Event{
		{Start: 0, Len: 70, Receiver: 0},
		{Start: 0, Len: 70, Receiver: 1},
	})
	// Overloaded single bus.
	d := &Design{NumBuses: 1, BusOf: []int{0, 0}}
	if err := d.Validate(a, Options{OverlapThreshold: -1}); err == nil {
		t.Error("overloaded bus accepted")
	}
	// Bad bus index.
	d = &Design{NumBuses: 1, BusOf: []int{0, 3}}
	if err := d.Validate(a, Options{OverlapThreshold: -1}); err == nil {
		t.Error("out-of-range bus accepted")
	}
	// Conflict violation (70% overlap >> 10% threshold) even with 2
	// buses declared, if both on one bus.
	d = &Design{NumBuses: 2, BusOf: []int{1, 1}}
	if err := d.Validate(a, Options{OverlapThreshold: 0.1}); err == nil {
		t.Error("conflicting receivers sharing a bus accepted")
	}
	// Wrong length.
	d = &Design{NumBuses: 1, BusOf: []int{0}}
	if err := d.Validate(a, Options{OverlapThreshold: -1}); err == nil {
		t.Error("short binding accepted")
	}
	// Cap violation.
	d = &Design{NumBuses: 2, BusOf: []int{0, 0}}
	if err := d.Validate(a, Options{OverlapThreshold: -1, MaxPerBus: 1}); err == nil {
		t.Error("cap violation accepted")
	}
}

// randomAnalysis builds a random trace analysis for property tests.
func randomAnalysis(t *testing.T, rng *rand.Rand, nRecv int) *trace.Analysis {
	t.Helper()
	horizon := int64(400)
	var events []trace.Event
	for r := 0; r < nRecv; r++ {
		n := 1 + rng.Intn(5)
		for e := 0; e < n; e++ {
			start := int64(rng.Intn(350))
			events = append(events, trace.Event{
				Start:    start,
				Len:      1 + int64(rng.Intn(49)),
				Receiver: r,
				Critical: rng.Intn(8) == 0,
			})
		}
	}
	return mkAnalysis(t, nRecv, horizon, 100, events)
}

// TestDesignQuickAlwaysValid: any produced design passes Validate.
func TestDesignQuickAlwaysValid(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 40; iter++ {
		a := randomAnalysis(t, rng, 2+rng.Intn(6))
		opts := Options{
			OverlapThreshold: []float64{-1, 0.2, 0.4, 0.5}[rng.Intn(4)],
			SeparateCritical: rng.Intn(2) == 0,
			MaxPerBus:        rng.Intn(5), // 0 = unlimited
			OptimizeBinding:  rng.Intn(2) == 0,
		}
		d, err := DesignCrossbar(a, opts)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if err := d.Validate(a, opts); err != nil {
			t.Fatalf("iter %d: invalid design: %v (opts %+v)", iter, err, opts)
		}
	}
}

// TestEnginesAgree: the specialized solver and the literal MILP
// formulation produce the same bus count and objective.
func TestEnginesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 10; iter++ {
		a := randomAnalysis(t, rng, 2+rng.Intn(4)) // up to 5 receivers
		base := Options{
			OverlapThreshold: 0.4,
			SeparateCritical: true,
			MaxPerBus:        3,
			OptimizeBinding:  true,
		}
		bb := base
		bb.Engine = EngineBranchBound
		dBB, err := DesignCrossbar(a, bb)
		if err != nil {
			t.Fatalf("iter %d: branch-bound: %v", iter, err)
		}
		mi := base
		mi.Engine = EngineMILP
		dMI, err := DesignCrossbar(a, mi)
		if err != nil {
			t.Fatalf("iter %d: milp: %v", iter, err)
		}
		if dBB.NumBuses != dMI.NumBuses {
			t.Errorf("iter %d: bus counts differ: bb=%d milp=%d", iter, dBB.NumBuses, dMI.NumBuses)
		}
		if dBB.MaxBusOverlap != dMI.MaxBusOverlap {
			t.Errorf("iter %d: objectives differ: bb=%d milp=%d", iter, dBB.MaxBusOverlap, dMI.MaxBusOverlap)
		}
		if err := dMI.Validate(a, mi); err != nil {
			t.Errorf("iter %d: MILP design invalid: %v", iter, err)
		}
	}
}

func TestEngineString(t *testing.T) {
	if EngineBranchBound.String() != "branch-and-bound" || EngineMILP.String() != "milp" {
		t.Error("Engine.String mismatch")
	}
}

func TestDefaultOptions(t *testing.T) {
	o := DefaultOptions()
	if o.OverlapThreshold != 0.30 || !o.SeparateCritical || o.MaxPerBus != 4 || !o.OptimizeBinding {
		t.Errorf("DefaultOptions = %+v", o)
	}
}
