package simplex

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/exact"
)

// randomProblem builds a random LP with small integer coefficients, every
// relation and right-hand sides of either sign.
func randomProblem(rng *rand.Rand) *Problem {
	nv := rng.Intn(4) + 1
	p := NewProblem(nv)
	nc := rng.Intn(4) + 2
	for c := 0; c < nc; c++ {
		coeffs := exact.NewVec(nv)
		for i := range coeffs {
			coeffs[i].SetInt64(int64(rng.Intn(7) - 3))
		}
		p.AddConstraint(coeffs, Rel(rng.Intn(3)), big.NewRat(int64(rng.Intn(15)-3), 1))
	}
	return p
}

// TestKernelMatchesBigRat is the differential property pinning the int64
// kernel tableau against the pure big.Rat reference: same status and the
// same witness, on randomized LPs that include equalities and negative
// right-hand sides.
func TestKernelMatchesBigRat(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	kernel := NewWorkspace()
	ref := NewWorkspace()
	ref.ForceBigRat = true
	feasible := 0
	for trial := 0; trial < 300; trial++ {
		p := randomProblem(rng)
		rk := kernel.Solve(p)
		if got, _ := kernel.LastSolveKernel(); !got {
			t.Fatal("default workspace must solve on the kernel tableau")
		}
		rb := ref.Solve(p)
		if got, _ := ref.LastSolveKernel(); got {
			t.Fatal("ForceBigRat workspace must solve on the reference tableau")
		}
		if rk.Status != rb.Status {
			t.Fatalf("trial %d: kernel status %v, reference status %v", trial, rk.Status, rb.Status)
		}
		if rk.Status != Optimal {
			continue
		}
		if !rk.X.Equal(rb.X) {
			t.Fatalf("trial %d: kernel X %v, reference X %v", trial, rk.X, rb.X)
		}
		if !checkPointBig(p, rk.X) {
			t.Fatalf("trial %d: witness %v violates the problem", trial, rk.X)
		}
		feasible++
	}
	if feasible < 30 {
		t.Fatalf("only %d feasible LPs: witness coverage too thin", feasible)
	}
}

// TestKernelWideCoefficients drives the kernel into big.Rat territory: a
// coefficient wider than int64 must route that element through the
// promoted representation and still produce the reference verdict and
// witness.
func TestKernelWideCoefficients(t *testing.T) {
	huge := new(big.Rat).SetFrac(new(big.Int).Lsh(big.NewInt(1), 70), big.NewInt(3))
	build := func() *Problem {
		p := NewProblem(2)
		coeffs := exact.NewVec(2)
		coeffs[0].Set(huge)
		coeffs[1].SetFrac64(7, 1<<50)
		p.AddConstraint(coeffs, LE, big.NewRat(1, 1))
		c2 := exact.NewVec(2)
		c2[0].SetInt64(1)
		c2[1].SetInt64(1)
		p.AddConstraint(c2, GE, big.NewRat(1, 1))
		return p
	}
	kernel := NewWorkspace()
	ref := NewWorkspace()
	ref.ForceBigRat = true
	p := build()
	rk := kernel.Solve(p)
	rb := ref.Solve(p)
	if rk.Status != rb.Status {
		t.Fatalf("status: kernel %v, reference %v", rk.Status, rb.Status)
	}
	if rk.Status != Optimal {
		t.Fatalf("status %v, want feasible", rk.Status)
	}
	if !rk.X.Equal(rb.X) {
		t.Fatalf("X: kernel %v, reference %v", rk.X, rb.X)
	}
	if !checkPointBig(p, rk.X) {
		t.Fatalf("witness %v violates the problem", rk.X)
	}
}

// TestElementPromotionAndDemotion exercises the adaptive integer element
// directly: a rank-one update whose exact result leaves int64 promotes
// (and is counted), and a later result that fits demotes back to the
// machine-word representation.
func TestElementPromotionAndDemotion(t *testing.T) {
	var k ktab
	k.initScratch()
	k.delta.setInt(1)
	var x, p, y, z, dst ient
	x.setInt(math.MaxInt64)
	p.setInt(2)
	y.setInt(0)
	z.setInt(0)
	// dst = (MaxInt64·2 − 0·0)/1: must promote.
	k.pivotUpdate(&dst, &x, &p, &y, &z)
	if k.promotions != 1 {
		t.Fatalf("promotions = %d, want 1", k.promotions)
	}
	if !dst.wide {
		t.Fatal("2·MaxInt64 must be wide")
	}
	want := new(big.Int).SetInt64(math.MaxInt64)
	want.Mul(want, big.NewInt(2))
	if dst.view(k.t1).Cmp(want) != 0 {
		t.Fatalf("wide value %s, want %s", dst.view(k.t1), want)
	}
	// dst = (dst·1 − MaxInt64·1)/1 = MaxInt64: fits again, must demote.
	one := ient{v: 1}
	k.pivotUpdate(&dst, &dst, &one, &x, &one)
	if dst.wide {
		t.Fatal("result fitting int64 must demote")
	}
	if dst.v != math.MaxInt64 {
		t.Fatalf("demoted value %d", dst.v)
	}
	// The scaled update divides exactly: (MaxInt64·6)/3 with Δ = 3.
	k.delta.setInt(3)
	p.setInt(6)
	k.scaleUpdate(&dst, &p)
	want.SetInt64(math.MaxInt64)
	want.Mul(want, big.NewInt(2))
	if dst.view(k.t1).Cmp(want) != 0 {
		t.Fatalf("scaled value %s, want %s", dst.view(k.t1), want)
	}
}

// TestPromotedDivisionAsserted pins the exactness assert of the promoted
// (big.Int) path: like the int64 path, an inexact fraction-free division
// panics instead of truncating, and an exact one lands in dst with no
// leftover state in the retained quotient/remainder registers.
func TestPromotedDivisionAsserted(t *testing.T) {
	var k ktab
	k.initScratch()
	k.delta.setInt(3)
	var x, p, zero, dst ient
	x.setInt(math.MaxInt64)
	p.setInt(4) // 4·(2⁶³−1) = 2⁶⁵−4 ≡ 1 (mod 3): inexact
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("inexact promoted division did not panic")
		}
	}()
	p2 := ient{v: 6} // 6·(2⁶³−1)/3 exact, promoted
	k.pivotUpdate(&dst, &x, &p2, &zero, &zero)
	want := new(big.Int).Mul(big.NewInt(math.MaxInt64), big.NewInt(2))
	if dst.view(k.t1).Cmp(want) != 0 || k.rem.Sign() != 0 {
		t.Fatalf("exact promoted division: %s, want %s", dst.view(k.t1), want)
	}
	k.pivotUpdate(&dst, &x, &p, &zero, &zero)
}

// TestIntFormInvalidation pins the generation-counter contract: rebuilding
// a problem through Reset/GrowConstraint must refresh the kernel snapshot.
func TestIntFormInvalidation(t *testing.T) {
	w := NewWorkspace()
	p := w.Prepare(1)
	row, rhs := p.GrowConstraint(GE)
	row[0].SetInt64(1)
	rhs.SetInt64(5)
	if st := w.SolveStatus(p); st != Optimal {
		t.Fatalf("first solve: %v", st)
	}
	// Rebuild with a contradictory system; a stale snapshot would keep the
	// old feasible row.
	p.Reset(1)
	row, rhs = p.GrowConstraint(GE)
	row[0].SetInt64(-1) // -x ≥ 1 ⇒ x ≤ -1, impossible for x ≥ 0
	rhs.SetInt64(1)
	if st := w.SolveStatus(p); st != Infeasible {
		t.Fatalf("after Reset: %v, want infeasible", st)
	}
	// Direct mutation plus Invalidate.
	p.Constraints[0].RHS.SetInt64(-1) // -x ≥ -1 ⇒ x ≤ 1, feasible
	p.Invalidate()
	if st := w.SolveStatus(p); st != Optimal {
		t.Fatalf("after Invalidate: %v, want optimal", st)
	}
}
