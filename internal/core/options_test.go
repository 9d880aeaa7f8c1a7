package core

import (
	"math"
	"testing"

	"repro/internal/trace"
)

// TestOptionsValidate exercises every rejection branch of the single
// option validator the facade entry points share.
func TestOptionsValidate(t *testing.T) {
	base := DefaultOptions()
	if err := base.Validate(); err != nil {
		t.Fatalf("default options rejected: %v", err)
	}

	cases := []struct {
		name   string
		mutate func(*Options)
	}{
		{"nan threshold", func(o *Options) { o.OverlapThreshold = math.NaN() }},
		{"threshold above one", func(o *Options) { o.OverlapThreshold = 1.5 }},
		{"negative max per bus", func(o *Options) { o.MaxPerBus = -1 }},
		{"negative min buses", func(o *Options) { o.MinBuses = -2 }},
		{"negative max buses", func(o *Options) { o.MaxBuses = -1 }},
		{"min above max buses", func(o *Options) { o.MinBuses = 5; o.MaxBuses = 3 }},
		{"negative node budget", func(o *Options) { o.MaxNodes = -7 }},
		{"negative workers", func(o *Options) { o.Workers = -1 }},
		{"unknown engine", func(o *Options) { o.Engine = Engine(99) }},
	}
	for _, tc := range cases {
		opts := base
		tc.mutate(&opts)
		if err := opts.Validate(); err == nil {
			t.Errorf("%s: accepted %+v", tc.name, opts)
		}
	}

	// The permissive zero values stay valid: disabled threshold,
	// unbounded buses, default budgets.
	loose := Options{OverlapThreshold: -1}
	if err := loose.Validate(); err != nil {
		t.Errorf("permissive options rejected: %v", err)
	}
}

// TestDesignRejectsInvalidOptions pins that the design entry point
// runs the validator rather than a partial ad-hoc check.
func TestDesignRejectsInvalidOptions(t *testing.T) {
	a := mkAnalysis(t, 2, 100, 100, []trace.Event{
		{Start: 0, Len: 10, Receiver: 0},
		{Start: 5, Len: 10, Receiver: 1},
	})
	for _, opts := range []Options{
		{OverlapThreshold: math.NaN()},
		{OverlapThreshold: -1, MaxPerBus: -1},
		{OverlapThreshold: -1, Engine: Engine(42)},
	} {
		if _, err := DesignCrossbar(a, opts); err == nil {
			t.Errorf("design accepted invalid options %+v", opts)
		}
	}
}

// TestOptionsFingerprintPinned pins the option-fingerprint bytes of
// DefaultOptions and of one option set per engine. The fingerprint
// keys the persistent design cache, so a layout change must bump
// optionsFPTag (and update these values) rather than silently re-key
// or, worse, alias cache entries.
func TestOptionsFingerprintPinned(t *testing.T) {
	milpOpts := DefaultOptions()
	milpOpts.Engine = EngineMILP
	milpOpts.OptimizeBinding = false
	annealOpts := DefaultOptions()
	annealOpts.Engine = EngineAnneal
	annealOpts.OverlapThreshold = -0.5 // canonicalized to -1
	annealOpts.MaxPerBus = 0
	portfolioOpts := DefaultOptions()
	portfolioOpts.Engine = EnginePortfolio
	portfolioOpts.SeparateCritical = false
	portfolioOpts.MinBuses, portfolioOpts.MaxBuses = 2, 6

	for _, tc := range []struct {
		name string
		opts Options
		want string
	}{
		{"default", DefaultOptions(), "a64005668adc49448d37ba1577ecd988d0507ca13e4247fe588da35489fa3426"},
		{"milp", milpOpts, "b0b808e1144407af540d46f935e5328a1f3d4e76d5b82f86bd70d37a6273d66d"},
		{"anneal", annealOpts, "50917880e6884483632d9576c7f729adde0724d4293b8f225f4a89c4c366cd9b"},
		{"portfolio", portfolioOpts, "cacfa06e6a05d3adc6fe191d5966c332e038f20eb31ad613580952090681b07d"},
	} {
		if got := tc.opts.Fingerprint().String(); got != tc.want {
			t.Errorf("%s: fingerprint %s, pinned %s", tc.name, got, tc.want)
		}
	}
}
