package trace

import (
	"context"
	"testing"
)

func TestMergeAnalysesWindowsConcatenated(t *testing.T) {
	trA := &Trace{NumReceivers: 2, NumSenders: 1, Horizon: 200,
		Events: []Event{{Start: 0, Len: 80, Receiver: 0}}}
	trB := &Trace{NumReceivers: 2, NumSenders: 1, Horizon: 300,
		Events: []Event{{Start: 100, Len: 90, Receiver: 1, Critical: true}}}
	aA, err := AnalyzeCtx(context.Background(), trA, 100)
	if err != nil {
		t.Fatal(err)
	}
	aB, err := AnalyzeCtx(context.Background(), trB, 100)
	if err != nil {
		t.Fatal(err)
	}
	m, err := MergeAnalyses(aA, aB)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumWindows() != aA.NumWindows()+aB.NumWindows() {
		t.Fatalf("windows = %d, want %d", m.NumWindows(), aA.NumWindows()+aB.NumWindows())
	}
	// Scenario A's window 0 carries receiver 0's 80 cycles; scenario
	// B's second window (index 2+1=3 in the merge) carries receiver 1.
	if got := m.Comm.At(0, 0); got != 80 {
		t.Errorf("merged Comm[0][0] = %d, want 80", got)
	}
	if got := m.Comm.At(1, aA.NumWindows()+1); got != 90 {
		t.Errorf("merged Comm[1][3] = %d, want 90", got)
	}
	if got := m.CritComm.At(1, aA.NumWindows()+1); got != 90 {
		t.Errorf("merged CritComm = %d, want 90", got)
	}
	// Boundaries strictly increasing, correct count.
	if len(m.Boundaries) != m.NumWindows()+1 {
		t.Fatalf("boundaries = %d", len(m.Boundaries))
	}
	for i := 1; i < len(m.Boundaries); i++ {
		if m.Boundaries[i] <= m.Boundaries[i-1] {
			t.Fatal("boundaries not increasing")
		}
	}
}

func TestMergeAnalysesOMSummed(t *testing.T) {
	mk := func(overlap int64) *Analysis {
		tr := &Trace{NumReceivers: 2, NumSenders: 1, Horizon: 100,
			Events: []Event{
				{Start: 0, Len: overlap, Receiver: 0},
				{Start: 0, Len: overlap, Receiver: 1},
			}}
		a, err := AnalyzeCtx(context.Background(), tr, 100)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	m, err := MergeAnalyses(mk(30), mk(50))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.OM.At(0, 1); got != 80 {
		t.Errorf("merged OM = %d, want 80", got)
	}
	// Merging must not mutate the inputs.
	single := mk(30)
	if _, err := MergeAnalyses(single, mk(50)); err != nil {
		t.Fatal(err)
	}
	if single.OM.At(0, 1) != 30 {
		t.Error("merge mutated its input")
	}
}

func TestMergeAnalysesErrors(t *testing.T) {
	if _, err := MergeAnalyses(); err == nil {
		t.Error("empty merge accepted")
	}
	a2, _ := AnalyzeCtx(context.Background(), &Trace{NumReceivers: 2, NumSenders: 1, Horizon: 10}, 10)
	a3, _ := AnalyzeCtx(context.Background(), &Trace{NumReceivers: 3, NumSenders: 1, Horizon: 10}, 10)
	if _, err := MergeAnalyses(a2, a3); err == nil {
		t.Error("mismatched receiver counts accepted")
	}
	// Single analysis passes through.
	same, err := MergeAnalyses(a2)
	if err != nil || same != a2 {
		t.Error("single merge should be identity")
	}
}
