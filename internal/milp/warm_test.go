package milp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/lp"
)

// randomMILP builds a small random pure-binary MILP in the shape of
// the paper's formulations: cover rows, capacity rows, and occasional
// equalities, with or without an objective.
func randomMILP(rng *rand.Rand) *Problem {
	n := 3 + rng.Intn(8)
	p := &Problem{
		LP:     lp.Problem{NumVars: n},
		Binary: make([]bool, n),
	}
	for v := 0; v < n; v++ {
		p.Binary[v] = true
	}
	if rng.Intn(3) > 0 {
		obj := make([]float64, n)
		for v := range obj {
			obj[v] = float64(rng.Intn(21) - 10)
		}
		p.LP.Objective = obj
	}
	for r := 0; r < 1+rng.Intn(4); r++ {
		var terms []lp.Term
		for v := 0; v < n; v++ {
			if rng.Intn(2) == 0 {
				terms = append(terms, lp.Term{Var: v, Coef: float64(rng.Intn(7) - 3)})
			}
		}
		if len(terms) == 0 {
			continue
		}
		sense := []lp.Sense{lp.LE, lp.GE, lp.EQ}[rng.Intn(3)]
		p.LP.AddConstraint(sense, float64(rng.Intn(9)-4), terms...)
	}
	return p
}

// TestWarmMatchesLegacy cross-checks the warm-started search against
// exhaustive enumeration (bruteBest) on random MILPs: identical status,
// and identical optimal objective when optimizing (bindings may differ
// when several optima exist). Both optimizing and first-feasible modes.
func TestWarmMatchesLegacy(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := randomMILP(rng)
		wantObj, _, feasible := bruteBest(p)
		wantStatus := lp.Infeasible
		if feasible {
			wantStatus = lp.Optimal
		}
		for _, ff := range []bool{false, true} {
			warm, err := Solve(p, Options{FirstFeasible: ff})
			if err != nil {
				t.Fatalf("seed %d ff=%v: %v", seed, ff, err)
			}
			if warm.Status != wantStatus {
				t.Fatalf("seed %d ff=%v: warm status %v, enumeration %v", seed, ff, warm.Status, wantStatus)
			}
			if warm.Status != lp.Optimal {
				continue
			}
			if !ff && !approx(warm.Objective, wantObj) {
				t.Fatalf("seed %d: warm objective %f, enumeration %f", seed, warm.Objective, wantObj)
			}
			// Whatever mode, the warm solution must satisfy the problem.
			for ci, c := range p.LP.Constraints {
				var lhs float64
				for _, tm := range c.Terms {
					lhs += tm.Coef * warm.X[tm.Var]
				}
				bad := false
				switch c.Sense {
				case lp.LE:
					bad = lhs > c.RHS+1e-6
				case lp.GE:
					bad = lhs < c.RHS-1e-6
				case lp.EQ:
					bad = math.Abs(lhs-c.RHS) > 1e-6
				}
				if bad {
					t.Fatalf("seed %d ff=%v: constraint %d violated by warm X=%v", seed, ff, ci, warm.X)
				}
			}
			for v, isBin := range p.Binary {
				if isBin && warm.X[v] != 0 && warm.X[v] != 1 {
					t.Fatalf("seed %d ff=%v: x[%d]=%v not integral", seed, ff, v, warm.X[v])
				}
			}
		}
	}
}

// TestWarmSolvesCounted ensures the incremental path actually reuses
// bases instead of silently re-solving cold: on a dive-friendly
// feasibility problem most node solves must be warm.
func TestWarmSolvesCounted(t *testing.T) {
	n := 12
	p := &Problem{LP: lp.Problem{NumVars: n}, Binary: make([]bool, n)}
	for v := 0; v < n; v++ {
		p.Binary[v] = true
	}
	// Three overlapping cover rows and one capacity row force a few
	// levels of branching before an integral point appears.
	p.LP.AddConstraint(lp.GE, 2, lp.Term{Var: 0, Coef: 1}, lp.Term{Var: 1, Coef: 1}, lp.Term{Var: 2, Coef: 1}, lp.Term{Var: 3, Coef: 1})
	p.LP.AddConstraint(lp.GE, 2, lp.Term{Var: 4, Coef: 1}, lp.Term{Var: 5, Coef: 1}, lp.Term{Var: 6, Coef: 1}, lp.Term{Var: 7, Coef: 1})
	p.LP.AddConstraint(lp.GE, 2, lp.Term{Var: 8, Coef: 1}, lp.Term{Var: 9, Coef: 1}, lp.Term{Var: 10, Coef: 1}, lp.Term{Var: 11, Coef: 1})
	terms := make([]lp.Term, n)
	for v := 0; v < n; v++ {
		terms[v] = lp.Term{Var: v, Coef: 1}
	}
	p.LP.AddConstraint(lp.LE, 6, terms...)
	s, err := Solve(p, Options{FirstFeasible: true})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != lp.Optimal {
		t.Fatalf("status %v, want feasible", s.Status)
	}
	if s.Nodes > 1 && s.WarmSolves == 0 {
		t.Fatalf("explored %d nodes with zero warm solves (warm path inert)", s.Nodes)
	}
	// Nodes can be popped and pruned without an LP solve, so warm+cold
	// ≤ nodes is the invariant, not equality.
	if s.WarmSolves+s.ColdSolves > int64(s.Nodes) {
		t.Fatalf("solve counts warm=%d cold=%d exceed nodes=%d", s.WarmSolves, s.ColdSolves, s.Nodes)
	}
}

// TestRoundBinariesRejectsViolation is the regression test for the
// blind-rounding bug: a near-integral point whose rounded image
// violates a constraint far beyond rounding tolerance must be rejected
// and an implicated branch variable suggested — previously it was
// returned as a valid integral solution.
func TestRoundBinariesRejectsViolation(t *testing.T) {
	p := &Problem{LP: lp.Problem{NumVars: 2}, Binary: []bool{true, true}}
	p.LP.AddConstraint(lp.LE, 1, lp.Term{Var: 0, Coef: 1}, lp.Term{Var: 1, Coef: 1})

	// A (corrupted) relaxation point: both binaries within intTol of 1,
	// so the search would deem it integral, but rounding yields (1,1)
	// with row value 2 > 1 — a violation no honest rounding of a
	// feasible LP point can produce.
	x := []float64{1 - 1e-7, 1 - 1e-7}
	rounded, ok, bv := roundBinaries(p, x)
	if ok {
		t.Fatalf("accepted rounded point %v violating x0+x1<=1", rounded)
	}
	if bv != 0 && bv != 1 {
		t.Fatalf("branch variable %d, want an implicated binary (0 or 1)", bv)
	}

	// The benign case: rounding within tolerance of a feasible point is
	// accepted and snaps exactly to integers.
	x = []float64{1 - 1e-7, 1e-7}
	rounded, ok, bv = roundBinaries(p, x)
	if !ok || bv != -1 {
		t.Fatalf("rejected a legitimately roundable point (ok=%v bv=%d)", ok, bv)
	}
	if rounded[0] != 1 || rounded[1] != 0 {
		t.Fatalf("rounded = %v, want [1 0]", rounded)
	}
}

// TestRoundBinariesEquality covers the EQ sense: a rounded point
// drifting off an equality row by more than the rounding budget is
// rejected.
func TestRoundBinariesEquality(t *testing.T) {
	p := &Problem{LP: lp.Problem{NumVars: 3}, Binary: []bool{true, true, true}}
	p.LP.AddConstraint(lp.EQ, 2, lp.Term{Var: 0, Coef: 1}, lp.Term{Var: 1, Coef: 1}, lp.Term{Var: 2, Coef: 1})
	if _, ok, _ := roundBinaries(p, []float64{1 - 1e-7, 1 - 1e-7, 1 - 1e-7}); ok {
		t.Fatal("accepted rounding to (1,1,1) on x0+x1+x2=2")
	}
	if _, ok, _ := roundBinaries(p, []float64{1 - 1e-7, 1 - 1e-7, 1e-7}); !ok {
		t.Fatal("rejected exact-cardinality rounding on x0+x1+x2=2")
	}
}
