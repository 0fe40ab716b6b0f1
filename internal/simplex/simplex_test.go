package simplex

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/exact"
)

func rat(n, d int64) *big.Rat { return big.NewRat(n, d) }

// solveFeasible solves p, requires a feasible verdict and checks the
// witness exactly against the big.Rat reference.
func solveFeasible(t *testing.T, p *Problem) exact.Vec {
	t.Helper()
	res := Solve(p)
	if res.Status != Optimal {
		t.Fatalf("status %v, want feasible", res.Status)
	}
	if !checkPointBig(p, res.X) {
		t.Fatalf("witness %v violates the problem", res.X)
	}
	return res.X
}

// levelSet returns p with the row c·x rel v appended.
func levelSet(p *Problem, c exact.Vec, rel Rel, v *big.Rat) *Problem {
	q := NewProblem(p.NumVars)
	for _, con := range p.Constraints {
		q.AddConstraint(con.Coeffs, con.Rel, con.RHS)
	}
	q.AddConstraint(c, rel, v)
	return q
}

func TestMaximizeBasic(t *testing.T) {
	// max 3x + 2y s.t. x + y <= 4, x + 3y <= 6 is 12 (at x=4, y=0): the
	// level set 3x + 2y >= 12 is feasible and 3x + 2y >= 12+1/100 is not.
	p := NewProblem(2)
	p.AddConstraint(exact.VecFromInts(1, 1), LE, rat(4, 1))
	p.AddConstraint(exact.VecFromInts(1, 3), LE, rat(6, 1))
	obj := exact.VecFromInts(3, 2)
	x := solveFeasible(t, levelSet(p, obj, GE, rat(12, 1)))
	if obj.Dot(x).Cmp(rat(12, 1)) != 0 {
		t.Fatalf("witness %v off the optimal face", x)
	}
	if res := Solve(levelSet(p, obj, GE, rat(1201, 100))); res.Status != Infeasible {
		t.Fatalf("status %v above the optimum, want infeasible", res.Status)
	}
}

func TestMinimizeWithGE(t *testing.T) {
	// min x + y s.t. x + 2y >= 4, 3x + y >= 6 is 14/5, at (8/5, 6/5).
	p := NewProblem(2)
	p.AddConstraint(exact.VecFromInts(1, 2), GE, rat(4, 1))
	p.AddConstraint(exact.VecFromInts(3, 1), GE, rat(6, 1))
	obj := exact.VecFromInts(1, 1)
	x := solveFeasible(t, levelSet(p, obj, LE, rat(14, 5)))
	if !x.Equal(exact.Vec{rat(8, 5), rat(6, 5)}) {
		t.Fatalf("witness %v, want the unique point (8/5, 6/5)", x)
	}
	if res := Solve(levelSet(p, obj, LE, rat(139, 50))); res.Status != Infeasible {
		t.Fatalf("status %v below the optimum, want infeasible", res.Status)
	}
}

func TestInfeasible(t *testing.T) {
	// x <= 1 and x >= 2 cannot both hold.
	p := NewProblem(1)
	p.AddConstraint(exact.VecFromInts(1), LE, rat(1, 1))
	p.AddConstraint(exact.VecFromInts(1), GE, rat(2, 1))
	if res := Solve(p); res.Status != Infeasible {
		t.Fatalf("status %v, want infeasible", res.Status)
	}
}

func TestUnbounded(t *testing.T) {
	// An unbounded feasible set (x - y >= 1 over x, y >= 0) is feasible.
	p := NewProblem(2)
	p.AddConstraint(exact.VecFromInts(1, -1), GE, rat(1, 1))
	solveFeasible(t, p)
}

func TestFreeVariable(t *testing.T) {
	// Every variable is non-negative; a sign-free x is written as
	// x⁺ − x⁻. min x s.t. x >= -5 is -5: the level set x⁺ − x⁻ <= -5 is
	// feasible (x⁻ carries it) and x⁺ − x⁻ <= -5-1/100 is not.
	p := NewProblem(2)
	p.AddConstraint(exact.VecFromInts(1, -1), GE, rat(-5, 1))
	x := exact.VecFromInts(1, -1)
	w := solveFeasible(t, levelSet(p, x, LE, rat(-5, 1)))
	if x.Dot(w).Cmp(rat(-5, 1)) != 0 {
		t.Fatalf("witness %v: x = %v, want -5", w, x.Dot(w))
	}
	if res := Solve(levelSet(p, x, LE, rat(-501, 100))); res.Status != Infeasible {
		t.Fatalf("status %v below the minimum, want infeasible", res.Status)
	}
}

func TestEqualityConstraint(t *testing.T) {
	// x + y = 3, x <= 2: feasible.
	p := NewProblem(2)
	p.AddConstraint(exact.VecFromInts(1, 1), EQ, rat(3, 1))
	p.AddConstraint(exact.VecFromInts(1, 0), LE, rat(2, 1))
	solveFeasible(t, p)
}

func TestFeasibilityOnly(t *testing.T) {
	// Decide feasibility of x + y = 2, x,y >= 0.
	p := NewProblem(2)
	p.AddConstraint(exact.VecFromInts(1, 1), EQ, rat(2, 1))
	res := Solve(p)
	if res.Status != Optimal {
		t.Fatalf("status %v", res.Status)
	}
	sum := new(big.Rat).Add(res.X[0], res.X[1])
	if sum.Cmp(rat(2, 1)) != 0 {
		t.Fatalf("solution violates constraint: %v", res.X)
	}
}

func TestNegativeRHS(t *testing.T) {
	// -x <= -3 means x >= 3: phase 1 enters x at exactly 3. With x <= 2
	// as well it is infeasible.
	p := NewProblem(1)
	p.AddConstraint(exact.VecFromInts(-1), LE, rat(-3, 1))
	if x := solveFeasible(t, p); x[0].Cmp(rat(3, 1)) != 0 {
		t.Fatalf("x = %v, want 3", x)
	}
	p.AddConstraint(exact.VecFromInts(1), LE, rat(2, 1))
	if res := Solve(p); res.Status != Infeasible {
		t.Fatalf("status %v, want infeasible", res.Status)
	}
}

func TestDegenerateCycleGuard(t *testing.T) {
	// The classic Beale cycling example, min c·x = −1/20 at a degenerate
	// vertex. Its level set c·x <= −1/20 has a negative right-hand side,
	// so phase 1 must pivot through the degenerate vertex; Bland's rule
	// must terminate there, and one step past the optimum is infeasible.
	p := NewProblem(4)
	p.AddConstraint(exact.Vec{rat(1, 4), rat(-60, 1), rat(-1, 25), rat(9, 1)}, LE, rat(0, 1))
	p.AddConstraint(exact.Vec{rat(1, 2), rat(-90, 1), rat(-1, 50), rat(3, 1)}, LE, rat(0, 1))
	p.AddConstraint(exact.Vec{rat(0, 1), rat(0, 1), rat(1, 1), rat(0, 1)}, LE, rat(1, 1))
	obj := exact.Vec{rat(-3, 4), rat(150, 1), rat(-1, 50), rat(6, 1)}
	x := solveFeasible(t, levelSet(p, obj, LE, rat(-1, 20)))
	if obj.Dot(x).Cmp(rat(-1, 20)) != 0 {
		t.Fatalf("witness %v off the optimal face", x)
	}
	if res := Solve(levelSet(p, obj, LE, rat(-51, 1000))); res.Status != Infeasible {
		t.Fatalf("status %v below the optimum, want infeasible", res.Status)
	}
}

func TestRedundantEquality(t *testing.T) {
	// Duplicate equality rows leave an artificial basic at zero after
	// phase 1; the witness must still satisfy both rows.
	p := NewProblem(2)
	p.AddConstraint(exact.VecFromInts(1, 1), EQ, rat(2, 1))
	p.AddConstraint(exact.VecFromInts(2, 2), EQ, rat(4, 1))
	solveFeasible(t, p)
}

func TestSolutionSatisfiesConstraintsRandom(t *testing.T) {
	// Property: whenever Solve reports Optimal, the returned witness
	// satisfies every constraint exactly.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		nv := rng.Intn(4) + 1
		nc := rng.Intn(5) + 1
		p := NewProblem(nv)
		for c := 0; c < nc; c++ {
			coeffs := exact.NewVec(nv)
			for i := range coeffs {
				coeffs[i].SetInt64(int64(rng.Intn(7) - 3))
			}
			rel := Rel(rng.Intn(3))
			p.AddConstraint(coeffs, rel, rat(int64(rng.Intn(11)-5), 1))
		}
		res := Solve(p)
		if res.Status != Optimal {
			continue
		}
		for ci, con := range p.Constraints {
			lhs := con.Coeffs.Dot(res.X)
			cmp := lhs.Cmp(con.RHS)
			bad := false
			switch con.Rel {
			case LE:
				bad = cmp > 0
			case GE:
				bad = cmp < 0
			case EQ:
				bad = cmp != 0
			}
			if bad {
				t.Fatalf("trial %d: constraint %d violated: %s %s %s",
					trial, ci, lhs.RatString(), con.Rel, con.RHS.RatString())
			}
		}
		for i, x := range res.X {
			if x.Sign() < 0 {
				t.Fatalf("trial %d: x[%d]=%s negative", trial, i, x.RatString())
			}
		}
	}
}
