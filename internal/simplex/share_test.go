package simplex

import (
	"math/big"
	"sync"
	"testing"

	"repro/internal/exact"
)

// TestSharedProblemConcurrentReaders pins the sharing contract of a built
// Problem: rows are immutable once added, so one Problem holding both
// AddFloatRow and AddConstraint rows may be solved from several
// workspaces and certified from several certifiers while RatConstraints
// fills in the hidden rational views. Run it under -race.
func TestSharedProblemConcurrentReaders(t *testing.T) {
	// The rows of twoArtificialLP, alternating float and rational rows;
	// the feasible copy adds a rational row no float holds, x/3 ≤ 20/9.
	build := func(xyBound float64) *Problem {
		p := NewProblem(2)
		if err := p.AddFloatRow(GE, []float64{1, 0}, 2); err != nil {
			t.Fatal(err)
		}
		p.AddConstraint(exact.VecFromInts(0, 3), GE, big.NewRat(6, 1))
		if err := p.AddFloatRow(LE, []float64{1, 1}, xyBound); err != nil {
			t.Fatal(err)
		}
		return p
	}
	infeasible, b := build(1), FarkasBasis{Cols: []int{5, 6, 0}, Sign: []float64{1, 1, 1}, Scale: []float64{1, 3, 1}}
	feasible := build(10)
	feasible.AddConstraint(exact.Vec{big.NewRat(1, 3), new(big.Rat)}, LE, big.NewRat(20, 9))
	want := [][]*big.Rat{ // feasible's rows, coefficients then right-hand side
		{big.NewRat(1, 1), new(big.Rat), big.NewRat(2, 1)},
		{new(big.Rat), big.NewRat(3, 1), big.NewRat(6, 1)},
		{big.NewRat(1, 1), big.NewRat(1, 1), big.NewRat(10, 1)},
		{big.NewRat(1, 3), new(big.Rat), big.NewRat(20, 9)},
	}

	const workers, rounds = 4, 20
	start := make(chan struct{})
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws, c := NewWorkspace(), NewCertifier()
			<-start
			for range rounds {
				if st := ws.SolveStatus(infeasible); st != Infeasible {
					t.Errorf("infeasible problem solved as %v", st)
				}
				if r := ws.Solve(feasible); r.Status != Optimal {
					t.Errorf("feasible problem solved as %v", r.Status)
				}
				if !c.CertifyFarkasBasis(infeasible, b) {
					t.Error("genuine basis rejected")
				}
				if !c.CertifyPoint(feasible, []float64{2, 2}) {
					t.Error("feasible point rejected")
				}
			}
		}()
	}
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i, c := range feasible.RatConstraints() {
				for j, v := range append(append([]*big.Rat(nil), c.Coeffs...), c.RHS) {
					if v.Cmp(want[i][j]) != 0 {
						t.Errorf("row %d entry %d: rational view %v, want %v", i, j, v, want[i][j])
					}
				}
			}
			if rat := infeasible.RatConstraints(); rat[2].RHS.Cmp(big.NewRat(1, 1)) != 0 {
				t.Errorf("infeasible row 2's right-hand side %v, want 1", rat[2].RHS)
			}
		}()
	}
	close(start)
	wg.Wait()
}
