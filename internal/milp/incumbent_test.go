package milp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/lp"
)

// bruteBest brute-forces the optimal objective of a small pure-binary
// MILP (the test problems have ≤ ~10 binaries).
func bruteBest(p *Problem) (float64, []float64, bool) {
	n := p.LP.NumVars
	bestObj := math.Inf(1)
	var bestX []float64
	x := make([]float64, n)
	var found bool
	for mask := 0; mask < 1<<n; mask++ {
		for v := 0; v < n; v++ {
			x[v] = float64((mask >> v) & 1)
		}
		feasible := true
		for _, c := range p.LP.Constraints {
			var lhs float64
			for _, tm := range c.Terms {
				lhs += tm.Coef * x[tm.Var]
			}
			switch c.Sense {
			case lp.LE:
				feasible = feasible && lhs <= c.RHS+1e-9
			case lp.GE:
				feasible = feasible && lhs >= c.RHS-1e-9
			case lp.EQ:
				feasible = feasible && math.Abs(lhs-c.RHS) <= 1e-9
			}
			if !feasible {
				break
			}
		}
		if !feasible {
			continue
		}
		var obj float64
		for v, c := range p.LP.Objective {
			obj += c * x[v]
		}
		if !found || obj < bestObj {
			bestObj = obj
			bestX = append([]float64(nil), x...)
			found = true
		}
	}
	return bestObj, bestX, found
}

// TestIncumbentSeedingExactObjective seeds random solves with their own
// brute-forced optimum and solves them unseeded, and checks the
// reported objective stays exactly the optimum either way.
func TestIncumbentSeedingExactObjective(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := randomMILP(rng)
		if p.LP.Objective == nil {
			continue
		}
		wantObj, wantX, feasible := bruteBest(p)
		if !feasible {
			continue
		}
		for _, inc := range [][]float64{wantX, nil} {
			sol, err := Solve(p, Options{Incumbent: inc})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if sol.Status != lp.Optimal {
				t.Fatalf("seed %d: status %v on feasible problem", seed, sol.Status)
			}
			if math.Abs(sol.Objective-wantObj) > 1e-6 {
				t.Fatalf("seed %d inc=%v: objective %v, want %v",
					seed, inc != nil, sol.Objective, wantObj)
			}
			if inc != nil && !sol.Seeded {
				t.Fatalf("seed %d: valid incumbent not reported as seeded", seed)
			}
		}
	}
}

// TestIncumbentRejected pins the never-trust contract: mis-sized and
// constraint-violating incumbents are ignored, and the solve proceeds
// as if unseeded.
func TestIncumbentRejected(t *testing.T) {
	n := 4
	p := &Problem{LP: lp.Problem{NumVars: n}, Binary: []bool{true, true, true, true}}
	p.LP.Objective = []float64{1, 1, 1, 1}
	p.LP.AddConstraint(lp.GE, 2,
		lp.Term{Var: 0, Coef: 1}, lp.Term{Var: 1, Coef: 1},
		lp.Term{Var: 2, Coef: 1}, lp.Term{Var: 3, Coef: 1})

	for name, inc := range map[string][]float64{
		"mis-sized":  {1, 1},
		"violating":  {0, 0, 0, 0},         // sum 0 < 2
		"fractional": {0.5, 0.5, 0.5, 0.5}, // integral to tolerance it is not
	} {
		sol, err := Solve(p, Options{Incumbent: inc})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sol.Seeded {
			t.Fatalf("%s incumbent was accepted", name)
		}
		if sol.Status != lp.Optimal || math.Abs(sol.Objective-2) > 1e-6 {
			t.Fatalf("%s: status %v objective %v, want optimal 2", name, sol.Status, sol.Objective)
		}
	}
}

// TestIncumbentFirstFeasibleShortCircuits checks a valid incumbent ends
// a feasibility solve with zero nodes explored.
func TestIncumbentFirstFeasibleShortCircuits(t *testing.T) {
	n := 4
	p := &Problem{LP: lp.Problem{NumVars: n}, Binary: []bool{true, true, true, true}}
	p.LP.AddConstraint(lp.GE, 2,
		lp.Term{Var: 0, Coef: 1}, lp.Term{Var: 1, Coef: 1},
		lp.Term{Var: 2, Coef: 1}, lp.Term{Var: 3, Coef: 1})
	sol, err := Solve(p, Options{FirstFeasible: true, Incumbent: []float64{1, 1, 0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Seeded || sol.Nodes != 0 {
		t.Fatalf("seeded=%v nodes=%d, want seeded with 0 nodes", sol.Seeded, sol.Nodes)
	}
	if sol.Status != lp.Optimal || sol.X[0] != 1 || sol.X[1] != 1 {
		t.Fatalf("unexpected solution: %+v", sol)
	}
}
