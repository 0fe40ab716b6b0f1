package simplex

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/exact"
)

// randomFeasibilityProblem builds a small box-intersection LP like the ones
// core generates: random coefficient rows with paired <=/>= bounds.
func randomFeasibilityProblem(rng *rand.Rand, vars, rows int) *Problem {
	p := NewProblem(vars)
	for i := 0; i < rows; i++ {
		coeffs := exact.NewVec(vars)
		for j := range coeffs {
			coeffs[j].SetFrac64(int64(rng.Intn(21)-10), 4)
		}
		center := int64(rng.Intn(200) - 100)
		p.AddConstraint(coeffs, LE, big.NewRat(center+8, 1))
		p.AddConstraint(coeffs, GE, big.NewRat(center-8, 1))
	}
	return p
}

// TestWorkspaceMatchesFreshSolve reuses one workspace across many problems
// of varying shapes and checks every verdict against a fresh solve.
func TestWorkspaceMatchesFreshSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w := NewWorkspace()
	for trial := 0; trial < 60; trial++ {
		vars := 1 + rng.Intn(6)
		rows := 1 + rng.Intn(5)
		p := randomFeasibilityProblem(rng, vars, rows)
		got := w.Solve(p)
		want := Solve(p)
		if got.Status != want.Status {
			t.Fatalf("trial %d: workspace status %v, fresh status %v", trial, got.Status, want.Status)
		}
		if got.Status == Optimal && !got.X.Equal(want.X) {
			t.Fatalf("trial %d: workspace witness %v, fresh %v", trial, got.X, want.X)
		}
	}
}

// TestWorkspaceResultSurvivesReuse checks that a Result extracted from one
// solve is not clobbered when the workspace is reused.
func TestWorkspaceResultSurvivesReuse(t *testing.T) {
	w := NewWorkspace()
	p1 := NewProblem(2)
	p1.AddConstraint(exact.VecFromInts(1, 1), GE, big.NewRat(4, 1))
	p1.AddConstraint(exact.VecFromInts(1, 3), LE, big.NewRat(6, 1))
	r1 := w.Solve(p1)
	if r1.Status != Optimal {
		t.Fatalf("p1 status %v", r1.Status)
	}
	if r1.X.IsZero() {
		t.Fatal("p1 witness is zero: the reuse check needs a non-zero one")
	}
	xBefore := r1.X.Clone()

	p2 := randomFeasibilityProblem(rand.New(rand.NewSource(1)), 5, 4)
	_ = w.Solve(p2)

	if !r1.X.Equal(xBefore) {
		t.Fatalf("solution clobbered by reuse: %v -> %v", xBefore, r1.X)
	}
}

// TestProblemResetAndGrowConstraint checks the in-place rebuild path reuses
// storage without leaking stale coefficients into the next LP.
func TestProblemResetAndGrowConstraint(t *testing.T) {
	w := NewWorkspace()
	p := w.Prepare(2)
	c, rhs := p.GrowConstraint(LE)
	c[0].SetInt64(1)
	c[1].SetInt64(1)
	rhs.SetInt64(-1) // x+y <= -1 with x,y >= 0: infeasible
	if got := w.Solve(p).Status; got != Infeasible {
		t.Fatalf("infeasible problem solved as %v", got)
	}

	// Rebuild with a feasible constraint; the stale coefficients and RHS
	// must be fully overwritten by GrowConstraint.
	p = w.Prepare(2)
	c, rhs = p.GrowConstraint(LE)
	if c[0].Sign() != 0 || c[1].Sign() != 0 || rhs.Sign() != 0 {
		t.Fatalf("GrowConstraint returned dirty storage: %v %v %v", c[0], c[1], rhs)
	}
	c[0].SetInt64(1)
	rhs.SetInt64(5)
	if got := w.Solve(p).Status; got != Optimal {
		t.Fatalf("feasible problem solved as %v", got)
	}

	// Shrinking the variable count must trim reused coefficient vectors.
	p = w.Prepare(1)
	c, _ = p.GrowConstraint(LE)
	if len(c) != 1 {
		t.Fatalf("GrowConstraint width %d after Reset(1)", len(c))
	}
}

// BenchmarkSolveFresh and BenchmarkSolveWorkspace record the allocation win
// of tableau reuse on a core-shaped feasibility LP.
func BenchmarkSolveFresh(b *testing.B) {
	p := randomFeasibilityProblem(rand.New(rand.NewSource(2)), 8, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Solve(p)
	}
}

func BenchmarkSolveWorkspace(b *testing.B) {
	p := randomFeasibilityProblem(rand.New(rand.NewSource(2)), 8, 8)
	w := NewWorkspace()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Solve(p)
	}
}
