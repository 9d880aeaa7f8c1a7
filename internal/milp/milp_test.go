package milp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/lp"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestKnapsack(t *testing.T) {
	// max 5a+4b+3c s.t. 2a+3b+c <= 5, binary.
	// Optimum: a=1, c=1 (weight 3) + b? weight 2+3+1=6 > 5, so a,c and
	// value 8; a,b = 9 weight 5 feasible -> best is a=b=1, value 9.
	p := &Problem{
		LP: lp.Problem{
			NumVars:   3,
			Objective: []float64{-5, -4, -3},
		},
		Binary: []bool{true, true, true},
	}
	p.LP.AddConstraint(lp.LE, 5, lp.Term{Var: 0, Coef: 2}, lp.Term{Var: 1, Coef: 3}, lp.Term{Var: 2, Coef: 1})
	s, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != lp.Optimal || !approx(s.Objective, -9) {
		t.Fatalf("got %v obj=%f X=%v, want optimal -9", s.Status, s.Objective, s.X)
	}
	if !approx(s.X[0], 1) || !approx(s.X[1], 1) || !approx(s.X[2], 0) {
		t.Errorf("X = %v, want [1 1 0]", s.X)
	}
}

func TestInfeasibleBinary(t *testing.T) {
	// x + y = 1.5 with x, y binary has no integral solution, though the
	// LP relaxation is feasible.
	p := &Problem{
		LP:     lp.Problem{NumVars: 2},
		Binary: []bool{true, true},
	}
	p.LP.AddConstraint(lp.EQ, 1.5, lp.Term{Var: 0, Coef: 1}, lp.Term{Var: 1, Coef: 1})
	s, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != lp.Infeasible {
		t.Fatalf("status = %v, want infeasible", s.Status)
	}
}

func TestFirstFeasibleStopsEarly(t *testing.T) {
	// Pure feasibility: any assignment with x0+x1 >= 1.
	p := &Problem{
		LP:     lp.Problem{NumVars: 2},
		Binary: []bool{true, true},
	}
	p.LP.AddConstraint(lp.GE, 1, lp.Term{Var: 0, Coef: 1}, lp.Term{Var: 1, Coef: 1})
	s, err := Solve(p, Options{FirstFeasible: true})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != lp.Optimal {
		t.Fatalf("status = %v, want optimal (feasible)", s.Status)
	}
	if s.X[0]+s.X[1] < 1-1e-6 {
		t.Errorf("X = %v violates constraint", s.X)
	}
}

func TestMixedContinuousBinary(t *testing.T) {
	// min t s.t. t >= 3x, t >= 5(1-x), x binary, t continuous.
	// x=1 -> t=3; x=0 -> t=5. Optimum t=3.
	p := &Problem{
		LP: lp.Problem{
			NumVars:   2, // 0: x (binary), 1: t
			Objective: []float64{0, 1},
		},
		Binary: []bool{true, false},
	}
	p.LP.AddConstraint(lp.GE, 0, lp.Term{Var: 1, Coef: 1}, lp.Term{Var: 0, Coef: -3})
	p.LP.AddConstraint(lp.GE, 5, lp.Term{Var: 1, Coef: 1}, lp.Term{Var: 0, Coef: 5})
	s, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != lp.Optimal || !approx(s.Objective, 3) {
		t.Fatalf("got %v obj=%f X=%v, want optimal 3", s.Status, s.Objective, s.X)
	}
	if !approx(s.X[0], 1) {
		t.Errorf("x = %f, want 1", s.X[0])
	}
}

func TestNodeLimit(t *testing.T) {
	// A problem engineered to need several nodes with a tiny budget.
	n := 8
	p := &Problem{
		LP:     lp.Problem{NumVars: n, Objective: make([]float64, n)},
		Binary: make([]bool, n),
	}
	terms := make([]lp.Term, n)
	for i := 0; i < n; i++ {
		p.Binary[i] = true
		p.LP.Objective[i] = -1
		terms[i] = lp.Term{Var: i, Coef: float64(2*i + 1)}
	}
	p.LP.AddConstraint(lp.LE, 17.5, terms...)
	if _, err := Solve(p, Options{MaxNodes: 1}); err != ErrNodeLimit {
		t.Fatalf("err = %v, want ErrNodeLimit", err)
	}
}

func TestBinaryLengthMismatch(t *testing.T) {
	p := &Problem{LP: lp.Problem{NumVars: 2}, Binary: []bool{true}}
	if _, err := Solve(p, Options{}); err == nil {
		t.Error("mismatched Binary length accepted")
	}
}

// Property: branch and bound agrees with exhaustive enumeration on
// random small pure-binary problems.
func TestQuickAgainstExhaustive(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		p := &Problem{
			LP:     lp.Problem{NumVars: n, Objective: make([]float64, n)},
			Binary: make([]bool, n),
		}
		for v := 0; v < n; v++ {
			p.Binary[v] = true
			p.LP.Objective[v] = float64(rng.Intn(21) - 10)
		}
		for r := 0; r < 1+rng.Intn(3); r++ {
			var terms []lp.Term
			for v := 0; v < n; v++ {
				if rng.Intn(2) == 0 {
					terms = append(terms, lp.Term{Var: v, Coef: float64(rng.Intn(7) - 3)})
				}
			}
			if len(terms) == 0 {
				continue
			}
			sense := []lp.Sense{lp.LE, lp.GE}[rng.Intn(2)]
			p.LP.AddConstraint(sense, float64(rng.Intn(9)-4), terms...)
		}
		want, _, feasible := bruteBest(p)
		got, err := Solve(p, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !feasible {
			if got.Status != lp.Infeasible {
				t.Errorf("seed %d: got %v, want infeasible", seed, got.Status)
			}
			continue
		}
		if got.Status != lp.Optimal {
			t.Errorf("seed %d: got %v, want optimal", seed, got.Status)
			continue
		}
		if !approx(got.Objective, want) {
			t.Errorf("seed %d: objective %f, want %f", seed, got.Objective, want)
		}
	}
}
