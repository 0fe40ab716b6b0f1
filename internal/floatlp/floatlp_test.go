package floatlp

import (
	"math/big"
	"testing"

	"repro/internal/exact"
	"repro/internal/simplex"
)

func TestFeasibilityBox(t *testing.T) {
	p := simplex.NewProblem(2)
	p.AddConstraint(exact.VecFromInts(1, 1), simplex.LE, big.NewRat(3, 1))
	p.AddConstraint(exact.VecFromInts(1, 1), simplex.GE, big.NewRat(1, 1))
	w := NewWorkspace()
	out := w.Feasibility(p)
	if out.Status != Feasible {
		t.Fatalf("status %v, want feasible", out.Status)
	}
	if !simplex.CertifyPoint(p, out.Point) {
		t.Fatalf("point certificate %v failed exact verification", out.Point)
	}
}

func TestFeasibilityInfeasible(t *testing.T) {
	p := simplex.NewProblem(1)
	p.AddConstraint(exact.VecFromInts(1), simplex.GE, big.NewRat(2, 1))
	p.AddConstraint(exact.VecFromInts(1), simplex.LE, big.NewRat(1, 1))
	w := NewWorkspace()
	out := w.Feasibility(p)
	if out.Status != Infeasible {
		t.Fatalf("status %v, want infeasible", out.Status)
	}
	if len(out.Basis.Cols) != len(p.Constraints) {
		t.Fatalf("basis %v does not cover the %d rows", out.Basis.Cols, len(p.Constraints))
	}
	var c simplex.Certifier
	if !c.CertifyFarkasBasis(p, out.Basis) {
		t.Fatalf("Farkas basis certificate %+v failed exact verification", out.Basis)
	}
}

func TestFeasibilityEmptyProblem(t *testing.T) {
	p := simplex.NewProblem(3)
	w := NewWorkspace()
	out := w.Feasibility(p)
	if out.Status != Feasible {
		t.Fatalf("unconstrained problem: status %v", out.Status)
	}
	if !simplex.CertifyPoint(p, out.Point) {
		t.Fatal("origin certificate rejected")
	}
}

func TestFeasibilityEqualityRows(t *testing.T) {
	// x + y = 4, x − y = 2 with x,y ≥ 0: unique solution (3, 1). The
	// simplest-rational rounding recovers the integer vertex, so even
	// equality-constrained problems can certify through the filter.
	p := simplex.NewProblem(2)
	p.AddConstraint(exact.VecFromInts(1, 1), simplex.EQ, big.NewRat(4, 1))
	p.AddConstraint(exact.VecFromInts(1, -1), simplex.EQ, big.NewRat(2, 1))
	w := NewWorkspace()
	out := w.Feasibility(p)
	if out.Status == Feasible && !simplex.CertifyPoint(p, out.Point) {
		t.Fatalf("feasible claim with uncertifiable point %v", out.Point)
	}
	// x + y = 1 and x + y = 2: infeasible.
	q := simplex.NewProblem(2)
	q.AddConstraint(exact.VecFromInts(1, 1), simplex.EQ, big.NewRat(1, 1))
	q.AddConstraint(exact.VecFromInts(1, 1), simplex.EQ, big.NewRat(2, 1))
	out = w.Feasibility(q)
	if out.Status == Feasible {
		t.Fatal("contradictory equalities claimed feasible")
	}
	if out.Status == Infeasible && !new(simplex.Certifier).CertifyFarkasBasis(q, out.Basis) {
		t.Logf("infeasible claim not certified (acceptable: falls back to exact)")
	}
}

func TestFeasibilityFreeVariables(t *testing.T) {
	// x free with x ≤ −5: feasible only because x may go negative.
	p := simplex.NewProblem(1)
	p.MarkFree(0)
	p.AddConstraint(exact.VecFromInts(1), simplex.LE, big.NewRat(-5, 1))
	w := NewWorkspace()
	out := w.Feasibility(p)
	if out.Status != Feasible {
		t.Fatalf("status %v, want feasible (free variable)", out.Status)
	}
	if !simplex.CertifyPoint(p, out.Point) {
		t.Fatalf("free-variable point %v failed certification", out.Point)
	}
	// Same constraint without freedom: infeasible.
	q := simplex.NewProblem(1)
	q.AddConstraint(exact.VecFromInts(1), simplex.LE, big.NewRat(-5, 1))
	out = w.Feasibility(q)
	if out.Status == Feasible {
		t.Fatal("x ≤ −5 with x ≥ 0 claimed feasible")
	}
}

func TestWorkspaceReuseAcrossShapes(t *testing.T) {
	w := NewWorkspace()
	ws := simplex.NewWorkspace()
	shapes := []struct{ vars, rows int }{{2, 2}, {8, 6}, {1, 1}, {5, 10}, {3, 0}}
	for _, s := range shapes {
		p := simplex.NewProblem(s.vars)
		for i := 0; i < s.rows; i++ {
			c := exact.NewVec(s.vars)
			for j := range c {
				c[j].SetInt64(int64((i+j)%3 - 1))
			}
			p.AddConstraint(c, simplex.LE, big.NewRat(int64(i+1), 1))
		}
		out := w.Feasibility(p)
		exactFeasible := ws.SolveStatus(p) == simplex.Optimal
		switch out.Status {
		case Feasible:
			if !exactFeasible {
				t.Fatalf("shape %+v: filter feasible, exact infeasible", s)
			}
		case Infeasible:
			if exactFeasible {
				t.Fatalf("shape %+v: filter infeasible, exact feasible", s)
			}
		}
	}
}
