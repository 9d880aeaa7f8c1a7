package trace

import (
	"context"
	"math/rand"

	"repro/internal/ds"
	"testing"
)

// TestFingerprintKernelIndependent pins the core property of the
// content hash: the sweep and legacy kernels — different algorithms,
// different sparse-row build orders — fingerprint identically on the
// same trace.
func TestFingerprintKernelIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		tr := randomSweepTrace(rng, 2+rng.Intn(12), 60+rng.Intn(200), int64(200+rng.Intn(2000)))
		ws := 1 + int64(rng.Intn(int(tr.Horizon)))
		a, err := AnalyzeCtx(context.Background(), tr, ws)
		if err != nil {
			t.Fatal(err)
		}
		b, err := AnalyzeLegacy(context.Background(), tr, Windows{Size: ws})
		if err != nil {
			t.Fatal(err)
		}
		if a.Fingerprint() != b.Fingerprint() {
			t.Fatalf("trial %d: sweep fp %s != legacy fp %s", trial, a.Fingerprint(), b.Fingerprint())
		}
	}
}

func TestFingerprintDistinguishesContent(t *testing.T) {
	tr := randomTrace(11)
	a, err := AnalyzeCtx(context.Background(), tr, 100)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[Fingerprint]string{a.Fingerprint(): "original"}

	// A different window size changes the boundaries.
	b, err := AnalyzeCtx(context.Background(), tr, 250)
	if err != nil {
		t.Fatal(err)
	}
	for name, fp := range map[string]Fingerprint{"window-250": b.Fingerprint()} {
		if prev, dup := seen[fp]; dup {
			t.Fatalf("%s collides with %s", name, prev)
		}
		seen[fp] = name
	}

	// Perturbing a single Comm cell changes the hash.
	c := a.Clone()
	c.Comm.Set(0, 0, c.Comm.At(0, 0)+1)
	if c.Fingerprint() == a.Fingerprint() {
		t.Fatal("Comm perturbation did not change the fingerprint")
	}
	// Perturbing one OM entry (receivers permitting) changes the hash.
	if a.NumReceivers >= 2 {
		d := a.Clone()
		d.OM.Set(0, 1, d.OM.At(0, 1)+1)
		if d.Fingerprint() == a.Fingerprint() {
			t.Fatal("OM perturbation did not change the fingerprint")
		}
	}
}

func TestFingerprintMemoized(t *testing.T) {
	a, err := AnalyzeCtx(context.Background(), randomTrace(3), 100)
	if err != nil {
		t.Fatal(err)
	}
	f1 := a.Fingerprint()
	if p := a.fp.Load(); p == nil || *p != f1 {
		t.Fatal("fingerprint not memoized after first call")
	}
	if f2 := a.Fingerprint(); f2 != f1 {
		t.Fatalf("memoized fingerprint changed: %s vs %s", f1, f2)
	}
}

func TestCloneIsDeepAndEquivalent(t *testing.T) {
	a, err := AnalyzeCtx(context.Background(), randomTrace(5), 50)
	if err != nil {
		t.Fatal(err)
	}
	c := a.Clone()
	if diffs := DiffAnalyses(a, c); len(diffs) > 0 {
		t.Fatalf("clone differs: %v", diffs)
	}
	if a.Fingerprint() != c.Fingerprint() {
		t.Fatal("clone fingerprint differs")
	}
	// Mutating the clone must not reach the original.
	before := a.Comm.At(0, 0)
	c.Comm.Set(0, 0, before+7)
	if a.Comm.At(0, 0) != before {
		t.Fatal("clone shares Comm storage with original")
	}
}

func TestCountDiffs(t *testing.T) {
	a, err := AnalyzeCtx(context.Background(), randomTrace(9), 100)
	if err != nil {
		t.Fatal(err)
	}
	if d, ok := CountDiffs(a, a.Clone(), 0); !ok || d != 0 {
		t.Fatalf("identical analyses: diffs=%d ok=%v", d, ok)
	}

	c := a.Clone()
	c.Comm.Set(0, 0, c.Comm.At(0, 0)+1)
	if d, ok := CountDiffs(a, c, 0); !ok || d != 1 {
		t.Fatalf("one perturbed cell: diffs=%d ok=%v, want 1 true", d, ok)
	}
	if a.NumReceivers >= 2 {
		c.OM.Set(0, 1, c.OM.At(0, 1)+3)
		if d, ok := CountDiffs(a, c, 0); !ok || d != 2 {
			t.Fatalf("two perturbed cells: diffs=%d ok=%v, want 2 true", d, ok)
		}
		// The limit caps the work but still reports "over".
		if d, ok := CountDiffs(a, c, 1); !ok || d < 2 {
			t.Fatalf("limited count: diffs=%d ok=%v, want >=2 true", d, ok)
		}
	}

	// Shape mismatches are incomparable, not zero-diff.
	b, err := AnalyzeCtx(context.Background(), randomTrace(9), 250)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := CountDiffs(a, b, 0); ok {
		t.Fatal("different boundaries reported comparable")
	}
}

func TestCountSparseRowDiffs(t *testing.T) {
	mk := func(cells ...int64) []ds.SparseCell {
		out := make([]ds.SparseCell, 0, len(cells)/2)
		for i := 0; i < len(cells); i += 2 {
			out = append(out, ds.SparseCell{Col: int32(cells[i]), Val: cells[i+1]})
		}
		return out
	}
	cases := []struct {
		x, y []ds.SparseCell
		want int
	}{
		{mk(), mk(), 0},
		{mk(0, 5), mk(0, 5), 0},
		{mk(0, 5), mk(0, 6), 1},
		{mk(0, 5), mk(), 1},
		{mk(0, 0), mk(), 0},           // stored zero == absent
		{mk(1, 2, 3, 4), mk(3, 4), 1}, // leading extra cell
		{mk(1, 2), mk(2, 3), 2},       // disjoint columns
	}
	for i, c := range cases {
		if got := countSparseRowDiffs(c.x, c.y); got != c.want {
			t.Errorf("case %d: got %d want %d", i, got, c.want)
		}
	}
}
