package simplex

import (
	"math"
	"math/big"
	"testing"

	"repro/internal/exact"
)

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

// TestResetRebuildsRows pins the rebuild contract: rows are written in
// integer form when added, so a problem rebuilt through Reset on the same
// storage must solve as its new rows, never as stale ones.
func TestResetRebuildsRows(t *testing.T) {
	w := NewWorkspace()
	p := w.Prepare(1)
	p.AddConstraint(exact.VecFromInts(1), GE, big.NewRat(5, 1))
	if st := w.SolveStatus(p); st != Optimal {
		t.Fatalf("first solve: %v", st)
	}
	// Rebuild with a contradictory system; a stale integer form would
	// keep the old feasible row.
	p.Reset(1)
	p.AddConstraint(exact.VecFromInts(-1), GE, big.NewRat(1, 1)) // -x ≥ 1 ⇒ x ≤ -1, impossible for x ≥ 0
	if st := w.SolveStatus(p); st != Infeasible {
		t.Fatalf("after Reset: %v, want infeasible", st)
	}
	// Rebuild again from float rows: -x ≥ -1 ⇒ x ≤ 1, feasible.
	p.Reset(1)
	if err := p.AddFloatRow(GE, []float64{-1}, -1); err != nil {
		t.Fatal(err)
	}
	if st := w.SolveStatus(p); st != Optimal {
		t.Fatalf("after a float rebuild: %v, want optimal", st)
	}
}
