package simplex

import (
	"math/big"
	"math/rand"
	"slices"
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
		if got.Status == Optimal && got.X.Key() != want.X.Key() {
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

	if r1.X.Key() != xBefore.Key() {
		t.Fatalf("solution clobbered by reuse: %v -> %v", xBefore, r1.X)
	}
}

// TestProblemResetReusesStorage checks that rebuilding a problem through
// Reset leaks no stale row, coefficient or width into the next LP, and
// that a warm float-row rebuild reuses the row storage, allocating
// nothing.
func TestProblemResetReusesStorage(t *testing.T) {
	w := NewWorkspace()
	p := w.Prepare(2)
	p.AddConstraint(exact.VecFromInts(1, 1), LE, big.NewRat(-1, 1)) // x+y <= -1 with x,y >= 0: infeasible
	if got := w.Solve(p).Status; got != Infeasible {
		t.Fatalf("infeasible problem solved as %v", got)
	}

	// Rebuild with a feasible constraint in the same slot; its view and
	// its integer form must be the new row's.
	p = w.Prepare(2)
	p.AddConstraint(exact.VecFromInts(1, 0), LE, big.NewRat(5, 1))
	if c := p.Constraints[0]; c.Coeffs[0].Cmp(big.NewRat(1, 1)) != 0 || c.Coeffs[1].Sign() != 0 || c.RHS.Cmp(big.NewRat(5, 1)) != 0 {
		t.Fatalf("rebuilt row's rational view %v ≤ %v", c.Coeffs, c.RHS)
	}
	if a, _, ok := p.IntRow(0); !ok || !slices.Equal(a, []int64{1, 0, 5}) {
		t.Fatalf("rebuilt row's integer form %v (%v)", a, ok)
	}
	if got := w.Solve(p).Status; got != Optimal {
		t.Fatalf("feasible problem solved as %v", got)
	}

	// Shrinking the variable count must trim reused coefficient vectors.
	p = w.Prepare(1)
	if err := p.AddFloatRow(LE, []float64{1}, 1); err != nil {
		t.Fatal(err)
	}
	if n := len(p.RatConstraints()[0].Coeffs); n != 1 {
		t.Fatalf("row width %d after Reset(1)", n)
	}

	// Once warm, a float-row rebuild reuses every slice it needs.
	row := []float64{0.5, 3}
	rebuild := func() {
		p = w.Prepare(2)
		for range 4 {
			if err := p.AddFloatRow(LE, row, 7); err != nil {
				t.Fatal(err)
			}
		}
	}
	if allocs := testing.AllocsPerRun(20, rebuild); allocs != 0 {
		t.Fatalf("float-row rebuild allocates %v times", allocs)
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
