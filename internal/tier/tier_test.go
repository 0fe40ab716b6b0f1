package tier

import (
	"math/big"
	"testing"

	"repro/internal/exact"
	"repro/internal/floatlp"
	"repro/internal/simplex"
)

// basisClaim is an infeasible filter claim on x ≥ 2, 3y ≥ 6, x + y ≤ 1
// (x, y ≥ 0) certified by its phase-1 basis {art₀, art₁, x} — row scales
// 1, 3, 1.
func basisClaim() (*simplex.Problem, floatlp.Outcome) {
	p := simplex.NewProblem(2)
	p.AddConstraint(exact.VecFromInts(1, 0), simplex.GE, big.NewRat(2, 1))
	p.AddConstraint(exact.VecFromInts(0, 3), simplex.GE, big.NewRat(6, 1))
	p.AddConstraint(exact.VecFromInts(1, 1), simplex.LE, big.NewRat(1, 1))
	return p, floatlp.Outcome{
		Status: floatlp.Infeasible,
		Basis: simplex.FarkasBasis{
			Cols:  []int{2 + 3 + 0, 2 + 3 + 1, 0},
			Sign:  []float64{1, 1, 1},
			Scale: []float64{1, 3, 1},
		},
	}
}

// TestVerifyClaimBasisTier pins the certificate of an infeasible claim:
// the basis certificate's success counts as a filter refutation certified
// by the basis; a tampered basis
// (swapped column, unit artificial weights, flipped row sign) is rejected
// and the claim falls back to the exact tier as a certification failure.
func TestVerifyClaimBasisTier(t *testing.T) {
	p, out := basisClaim()
	st := &Stats{}
	s := NewSolver(st)
	feasible, ok := s.verifyClaim(p, out)
	if !ok || feasible {
		t.Fatalf("genuine basis claim: feasible=%v ok=%v, want a certified refutation", feasible, ok)
	}
	c := st.Snapshot()
	if c.FilterInfeasible != 1 || c.FilterInfeasibleBasis != 1 || c.CertFailures != 0 {
		t.Fatalf("telemetry after a basis-certified refutation: %+v", c)
	}

	tampers := map[string]func(*simplex.FarkasBasis){
		"swapped column": func(b *simplex.FarkasBasis) { b.Cols[2] = 2 + 2 }, // x out, row 2's slack in
		"unit weights":   func(b *simplex.FarkasBasis) { b.Scale = []float64{1, 1, 1} },
		"flipped sign":   func(b *simplex.FarkasBasis) { b.Sign[1] = -1 },
	}
	for name, tamper := range tampers {
		_, bad := basisClaim()
		tamper(&bad.Basis)
		before := st.Snapshot()
		if _, ok := s.verifyClaim(p, bad); ok {
			t.Fatalf("%s: tampered basis certified", name)
		}
		after := st.Snapshot()
		if after.CertFailures != before.CertFailures+1 || after.FilterInfeasible != before.FilterInfeasible {
			t.Fatalf("%s: telemetry %+v after %+v", name, after, before)
		}
	}
	// The fallback decides the claim exactly: the problem is infeasible.
	if s.Feasible(p) {
		t.Fatal("exact fallback reported the infeasible problem feasible")
	}
}
