package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/trace"
)

// Monotonicity properties of the methodology's knobs: relaxing a
// constraint must never increase the designed bus count.

func TestPropertyThresholdMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	thresholds := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5}
	for iter := 0; iter < 20; iter++ {
		a := randomAnalysis(t, rng, 3+rng.Intn(5))
		prev := -1
		for _, thr := range thresholds {
			d, err := DesignCrossbar(a, Options{OverlapThreshold: thr})
			if err != nil {
				t.Fatalf("iter %d thr %.1f: %v", iter, thr, err)
			}
			if prev != -1 && d.NumBuses > prev {
				t.Errorf("iter %d: raising threshold to %.1f increased buses %d→%d",
					iter, thr, prev, d.NumBuses)
			}
			prev = d.NumBuses
		}
	}
}

func TestPropertyCapMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for iter := 0; iter < 20; iter++ {
		a := randomAnalysis(t, rng, 4+rng.Intn(4))
		prev := -1
		for _, cap := range []int{1, 2, 3, 4, 0 /* unlimited */} {
			d, err := DesignCrossbar(a, Options{OverlapThreshold: -1, MaxPerBus: cap})
			if err != nil {
				t.Fatalf("iter %d cap %d: %v", iter, cap, err)
			}
			if prev != -1 && d.NumBuses > prev {
				t.Errorf("iter %d: loosening cap to %d increased buses %d→%d",
					iter, cap, prev, d.NumBuses)
			}
			prev = d.NumBuses
		}
	}
}

func TestPropertyBindingNeverChangesBusCount(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for iter := 0; iter < 20; iter++ {
		a := randomAnalysis(t, rng, 3+rng.Intn(5))
		opts := Options{OverlapThreshold: 0.4, MaxPerBus: 3}
		plain, err := DesignCrossbar(a, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.OptimizeBinding = true
		optimized, err := DesignCrossbar(a, opts)
		if err != nil {
			t.Fatal(err)
		}
		if plain.NumBuses != optimized.NumBuses {
			t.Errorf("iter %d: binding phase changed the configuration: %d vs %d",
				iter, plain.NumBuses, optimized.NumBuses)
		}
		if optimized.MaxBusOverlap > plain.MaxBusOverlap {
			t.Errorf("iter %d: optimal binding worse than first-feasible: %d > %d",
				iter, optimized.MaxBusOverlap, plain.MaxBusOverlap)
		}
	}
}

func TestPropertyDeterministicDesign(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for iter := 0; iter < 10; iter++ {
		a := randomAnalysis(t, rng, 3+rng.Intn(5))
		opts := DefaultOptions()
		d1, err := DesignCrossbar(a, opts)
		if err != nil {
			t.Fatal(err)
		}
		d2, err := DesignCrossbar(a, opts)
		if err != nil {
			t.Fatal(err)
		}
		if d1.NumBuses != d2.NumBuses || d1.MaxBusOverlap != d2.MaxBusOverlap {
			t.Fatalf("iter %d: design not deterministic", iter)
		}
		for i := range d1.BusOf {
			if d1.BusOf[i] != d2.BusOf[i] {
				t.Fatalf("iter %d: bindings differ at %d", iter, i)
			}
		}
	}
}

// TestPropertySingleWindowLowerBound: the single-window (average-flow)
// design can never need more buses than the windowed design of the
// same trace, since its constraints are a relaxation.
func TestPropertySingleWindowLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for iter := 0; iter < 15; iter++ {
		nRecv := 3 + rng.Intn(5)
		horizon := int64(400)
		var events []trace.Event
		for r := 0; r < nRecv; r++ {
			for e := 0; e < 1+rng.Intn(4); e++ {
				start := int64(rng.Intn(350))
				events = append(events, trace.Event{
					Start: start, Len: 1 + int64(rng.Intn(49)), Receiver: r,
				})
			}
		}
		tr := &trace.Trace{NumReceivers: nRecv, NumSenders: 1, Horizon: horizon, Events: events}
		windowed, err := trace.AnalyzeCtx(context.Background(), tr, 100)
		if err != nil {
			t.Fatal(err)
		}
		single, err := trace.AnalyzeTrace(context.Background(), tr, trace.Windows{Size: tr.Horizon}, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{OverlapThreshold: -1}
		dWin, err := DesignCrossbar(windowed, opts)
		if err != nil {
			t.Fatal(err)
		}
		dAvg, err := DesignCrossbar(single, opts)
		if err != nil {
			t.Fatal(err)
		}
		if dAvg.NumBuses > dWin.NumBuses {
			t.Errorf("iter %d: average-flow design (%d) larger than windowed (%d)",
				iter, dAvg.NumBuses, dWin.NumBuses)
		}
	}
}
