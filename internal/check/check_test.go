package check

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// mkAnalysis builds an analysis from literal events over the given
// shape: a tiny, fully transparent problem for violation injection.
func mkAnalysis(t *testing.T, nT int, horizon, ws int64, events []trace.Event) *trace.Analysis {
	t.Helper()
	tr := &trace.Trace{NumReceivers: nT, NumSenders: 1, Horizon: horizon, Events: events}
	a, err := trace.AnalyzeCtx(context.Background(), tr, ws)
	if err != nil {
		t.Fatalf("AnalyzeCtx: %v", err)
	}
	return a
}

// overlapPair returns an analysis where receivers 0 and 1 overlap for
// 10 cycles in window 0 (of 2 windows x 20 cycles) and receiver 2 is
// quiet — enough structure to trip every constraint kind.
func overlapPair(t *testing.T) *trace.Analysis {
	t.Helper()
	return mkAnalysis(t, 3, 40, 20, []trace.Event{
		{Start: 0, Len: 10, Sender: 0, Receiver: 0},
		{Start: 0, Len: 10, Sender: 0, Receiver: 1},
		{Start: 25, Len: 5, Sender: 0, Receiver: 2},
	})
}

func kinds(r *Report) []Kind {
	out := make([]Kind, len(r.Violations))
	for i, v := range r.Violations {
		out[i] = v.Kind
	}
	return out
}

func TestAuditCleanDesign(t *testing.T) {
	a := overlapPair(t)
	opts := core.DefaultOptions()
	d, err := core.DesignCrossbar(a, opts)
	if err != nil {
		t.Fatalf("DesignCrossbar: %v", err)
	}
	rep := Audit(d, a, opts)
	if !rep.OK() {
		t.Fatalf("clean design flagged: %v", rep.Err())
	}
	if rep.Checked == 0 {
		t.Fatal("clean report checked zero constraints")
	}
	if rep.Err() != nil {
		t.Fatalf("OK report returned error %v", rep.Err())
	}
}

func TestAuditDetectsBindingViolations(t *testing.T) {
	a := overlapPair(t)
	opts := core.DefaultOptions()
	short := &core.Design{NumBuses: 2, BusOf: []int{0, 1}}
	if rep := Audit(short, a, opts); rep.OK() || rep.Violations[0].Kind != KindBinding {
		t.Errorf("short binding: got %v, want binding violation", kinds(rep))
	}
	oob := &core.Design{NumBuses: 2, BusOf: []int{0, 1, 5}}
	if rep := Audit(oob, a, opts); rep.OK() || rep.Violations[0].Kind != KindBinding {
		t.Errorf("out-of-range bus: got %v, want binding violation", kinds(rep))
	}
	if rep := Audit(nil, a, opts); rep.OK() {
		t.Error("nil design passed the audit")
	}
	if rep := Audit(&core.Design{NumBuses: 0, BusOf: []int{0, 0, 0}}, a, opts); rep.OK() {
		t.Error("zero-bus design passed the audit")
	}
}

func TestAuditDetectsCapViolation(t *testing.T) {
	a := overlapPair(t)
	opts := core.Options{OverlapThreshold: -1, MaxPerBus: 1}
	d := &core.Design{NumBuses: 3, BusOf: []int{0, 0, 1}}
	d.MaxBusOverlap = core.MaxOverlapOf(a, d.NumBuses, d.BusOf)
	rep := Audit(d, a, opts)
	found := false
	for _, v := range rep.Violations {
		if v.Kind == KindCap && v.Bus == 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("cap violation not reported: %v", kinds(rep))
	}
}

func TestAuditDetectsBandwidthViolation(t *testing.T) {
	// Receivers 0 and 1 are each busy 15/20 cycles of window 0; on a
	// shared bus the 30-cycle load exceeds the window.
	a := mkAnalysis(t, 2, 20, 20, []trace.Event{
		{Start: 0, Len: 15, Sender: 0, Receiver: 0},
		{Start: 5, Len: 15, Sender: 0, Receiver: 1},
	})
	opts := core.Options{OverlapThreshold: -1}
	d := &core.Design{NumBuses: 1, BusOf: []int{0, 0}}
	d.MaxBusOverlap = core.MaxOverlapOf(a, d.NumBuses, d.BusOf)
	rep := Audit(d, a, opts)
	found := false
	for _, v := range rep.Violations {
		if v.Kind == KindBandwidth && v.Bus == 0 && v.Window == 0 && v.Got == 30 && v.Want == 20 {
			found = true
		}
	}
	if !found {
		t.Errorf("bandwidth violation not located: %+v", rep.Violations)
	}
}

func TestAuditDetectsConflictViolation(t *testing.T) {
	a := overlapPair(t)
	// Threshold 0 makes the 10-cycle overlap of (0,1) a conflict.
	opts := core.Options{OverlapThreshold: 0}
	d := &core.Design{NumBuses: 2, BusOf: []int{0, 0, 1}}
	d.MaxBusOverlap = core.MaxOverlapOf(a, d.NumBuses, d.BusOf)
	rep := Audit(d, a, opts)
	found := false
	for _, v := range rep.Violations {
		if v.Kind == KindConflict && v.ReceiverI == 0 && v.ReceiverJ == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("conflict violation not reported: %v", kinds(rep))
	}
}

func TestAuditDetectsObjectiveMismatch(t *testing.T) {
	a := overlapPair(t)
	opts := core.Options{OverlapThreshold: -1}
	d := &core.Design{NumBuses: 2, BusOf: []int{0, 0, 1}}
	d.MaxBusOverlap = core.MaxOverlapOf(a, d.NumBuses, d.BusOf) + 7
	rep := Audit(d, a, opts)
	found := false
	for _, v := range rep.Violations {
		if v.Kind == KindObjective && v.Got == v.Want+7 {
			found = true
		}
	}
	if !found {
		t.Errorf("objective mismatch not reported: %+v", rep.Violations)
	}
	if err := rep.Err(); err == nil || !strings.Contains(err.Error(), "objective") {
		t.Errorf("Err() = %v, want objective summary", err)
	}
}

func TestViolationAndKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		KindBinding: "binding", KindCap: "cap", KindBandwidth: "bandwidth",
		KindConflict: "conflict", KindObjective: "objective", Kind(99): "Kind(99)",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
	v := Violation{Kind: KindCap, Msg: "bus 0 over cap"}
	if got := v.String(); got != "cap: bus 0 over cap" {
		t.Errorf("Violation.String() = %q", got)
	}
}
