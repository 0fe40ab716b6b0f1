package simplex

import (
	"math/big"
	"testing"

	"repro/internal/exact"
)

// twoArtificialLP builds x ≥ 2, 3y ≥ 6, x + y rel xyBound over x, y ≥ 0
// (rel is LE everywhere but one tampering case). The basis
// {art₀, art₁, x} has the exact dual q = (1, 1/3, −1) once the second
// row's artificial carries its equilibration weight 1/3: the combination
// is 0·x + 0·y ≥ 3. With unit weights the dual is (1, 1, −1), whose
// y-component is positive — not a certificate.
func twoArtificialLP(xyBound int64, rel Rel) (*Problem, FarkasBasis) {
	p := NewProblem(2)
	p.AddConstraint(exact.VecFromInts(1, 0), GE, big.NewRat(2, 1))
	p.AddConstraint(exact.VecFromInts(0, 3), GE, big.NewRat(6, 1))
	p.AddConstraint(exact.VecFromInts(1, 1), rel, big.NewRat(xyBound, 1))
	n, m := 2, 3
	return p, FarkasBasis{
		Cols:  []int{n + m + 0, n + m + 1, 0},
		Sign:  []float64{1, 1, 1},
		Scale: []float64{1, 3, 1},
	}
}

func TestCertifyFarkasBasis(t *testing.T) {
	p, b := twoArtificialLP(1, LE)
	var c Certifier
	if !c.CertifyFarkasBasis(p, b) {
		t.Fatal("genuine basis dual rejected")
	}
	q, ok := c.solveBasisDual(p, b)
	if !ok {
		t.Fatal("basis solve declined")
	}
	// Multipliers of the primitive integer rows (1 0 | 2), (0 1 | 2) and
	// (1 1 | 1) — the second constraint's scale 3 folds its 1/3 in — scaled
	// by a positive constant and divided by the gcd: (1, 1, −1).
	for i, want := range []int64{1, 1, -1} {
		if q[i].wide || q[i].v != want {
			t.Fatalf("q[%d] = %v, want %d", i, q[i].view(new(big.Int)), want)
		}
	}
	// The same basis against a feasible relaxation must never verify.
	feasible, fb := twoArtificialLP(10, LE)
	if c.CertifyFarkasBasis(feasible, fb) {
		t.Fatal("basis certified a feasible problem")
	}
	// Reusing the certifier across shapes must not leak state.
	if !c.CertifyFarkasBasis(p, b) {
		t.Fatal("genuine basis rejected after reuse")
	}

	// Written as −x − y ≥ −1, the third row puts a negative pivot in the
	// elimination; the dual is the same certificate, (1, 1, 1).
	p = NewProblem(2)
	p.AddConstraint(exact.VecFromInts(1, 0), GE, big.NewRat(2, 1))
	p.AddConstraint(exact.VecFromInts(0, 3), GE, big.NewRat(6, 1))
	p.AddConstraint(exact.VecFromInts(-1, -1), GE, big.NewRat(-1, 1))
	if q, ok = c.solveBasisDual(p, b); !ok {
		t.Fatal("basis solve declined on a negative pivot")
	}
	for i, want := range []int64{1, 1, 1} {
		if q[i].wide || q[i].v != want {
			t.Fatalf("negative pivot: q[%d] = %v, want %d", i, q[i].view(new(big.Int)), want)
		}
	}
	if !c.CertifyFarkasBasis(p, b) {
		t.Fatal("genuine basis with a negative pivot rejected")
	}
}

// TestCertifyFarkasBasisTampered: a swapped basis column, unit artificial
// weights and a flipped row sign each turn the genuine basis into one
// whose dual is not a certificate; each must be rejected. Malformed and
// singular bases decline before any arithmetic.
func TestCertifyFarkasBasisTampered(t *testing.T) {
	p, b := twoArtificialLP(1, LE)
	n, m := 2, 3
	eq, _ := twoArtificialLP(1, EQ)
	tamper := func(name string, q *Problem, f func(*FarkasBasis)) {
		t.Helper()
		tb := FarkasBasis{
			Cols:  append([]int(nil), b.Cols...),
			Sign:  append([]float64(nil), b.Sign...),
			Scale: append([]float64(nil), b.Scale...),
		}
		f(&tb)
		var c Certifier
		if c.CertifyFarkasBasis(q, tb) {
			t.Errorf("%s: tampered basis certified", name)
		}
	}
	tamper("swapped column", p, func(tb *FarkasBasis) { tb.Cols[2] = n + 2 }) // x out, row 2's slack in
	tamper("unit weights", p, func(tb *FarkasBasis) { tb.Scale = []float64{1, 1, 1} })
	tamper("flipped sign", p, func(tb *FarkasBasis) { tb.Sign[0] = -1 })
	tamper("duplicate column", p, func(tb *FarkasBasis) { tb.Cols[1] = tb.Cols[0] })
	tamper("slack and artificial of one row", p, func(tb *FarkasBasis) { tb.Cols[2] = n + 0 })
	tamper("slack of an equality row", eq, func(tb *FarkasBasis) { tb.Cols[2] = n + 2 })
	tamper("no artificial", p, func(tb *FarkasBasis) { tb.Cols = []int{0, 1, n + 2} })
	tamper("column out of range", p, func(tb *FarkasBasis) { tb.Cols[2] = n + 2*m })
	tamper("short basis", p, func(tb *FarkasBasis) { tb.Cols = tb.Cols[:2] })
	tamper("zero scale", p, func(tb *FarkasBasis) { tb.Scale[1] = 0 })
	tamper("non-unit sign", p, func(tb *FarkasBasis) { tb.Sign[1] = 0.5 })
}

// TestCertifyFarkasBasisDyadicScales pins the exact dyadic reading of the
// row scales: a row equilibrated by a non-integer float must enter with
// exactly that float's value.
func TestCertifyFarkasBasisDyadicScales(t *testing.T) {
	// x ≥ 2 and (1/3)·x ≤ 1/3 with basis {art₀, x}: q₀ = 1/w₀ and the x
	// equation fixes q₁ = −3·q₀, so the artificial row's weight only scales
	// the certificate and every positive finite float — non-integer, tiny
	// or huge — must verify once read exactly.
	p := NewProblem(1)
	p.AddConstraint(exact.VecFromInts(1), GE, big.NewRat(2, 1))
	p.AddConstraint(exact.Vec{big.NewRat(1, 3)}, LE, big.NewRat(1, 3))
	for _, w := range []float64{1, 1.0 / 3, 0.1, 1e-300, 1e300, 6004799503160661} {
		var c Certifier
		if !c.CertifyFarkasBasis(p, FarkasBasis{Cols: []int{1 + 2 + 0, 0}, Sign: []float64{1, 1}, Scale: []float64{w, 1.0 / 3}}) {
			t.Errorf("scale %g: genuine basis rejected", w)
		}
	}
	for _, w := range []float64{1, 1.0 / 3, 1e-300, 1e300} {
		mant, e := dyadic(w)
		got := new(big.Rat).SetInt64(mant)
		pow := new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), uint(max(e, -e))))
		if e >= 0 {
			got.Mul(got, pow)
		} else {
			got.Quo(got, pow)
		}
		if want := new(big.Rat).SetFloat64(w); got.Cmp(want) != 0 || mant&1 == 0 {
			t.Errorf("dyadic(%g) = %d·2^%d, want %v with an odd mantissa", w, mant, e, want)
		}
	}
}
