package simplex

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/exact"
)

// twoArtificialLP builds x ≥ 2, 3y ≥ 6, x + y ≤ 1 over x, y ≥ 0. The basis
// {art₀, art₁, x} has the exact dual q = (1, 1/3, −1) once the second
// row's artificial carries its equilibration weight 1/3: the combination
// is 0·x + 0·y ≥ 3. With unit weights the dual is (1, 1, −1), whose
// y-component is positive — not a certificate.
func twoArtificialLP(xyBound int64) (*Problem, FarkasBasis) {
	p := NewProblem(2)
	p.AddConstraint(exact.VecFromInts(1, 0), GE, big.NewRat(2, 1))
	p.AddConstraint(exact.VecFromInts(0, 3), GE, big.NewRat(6, 1))
	p.AddConstraint(exact.VecFromInts(1, 1), LE, big.NewRat(xyBound, 1))
	n, m := 2, 3
	return p, FarkasBasis{
		Cols:  []int{n + m + 0, n + m + 1, 0},
		Sign:  []float64{1, 1, 1},
		Scale: []float64{1, 3, 1},
	}
}

func TestCertifyFarkasBasis(t *testing.T) {
	p, b := twoArtificialLP(1)
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
	feasible, fb := twoArtificialLP(10)
	if c.CertifyFarkasBasis(feasible, fb) {
		t.Fatal("basis certified a feasible problem")
	}
	// Reusing the certifier across shapes must not leak state.
	if !c.CertifyFarkasBasis(p, b) {
		t.Fatal("genuine basis rejected after reuse")
	}

	// Written as −x − y ≥ −1, the third row puts a negative pivot in the
	// elimination; the dual is the same certificate, (1, 1, 1).
	p.Constraints[2] = Constraint{Coeffs: exact.VecFromInts(-1, -1), Rel: GE, RHS: big.NewRat(-1, 1)}
	p.Invalidate()
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
	p, b := twoArtificialLP(1)
	n, m := 2, 3
	tamper := func(name string, f func(*FarkasBasis)) {
		t.Helper()
		tb := FarkasBasis{
			Cols:  append([]int(nil), b.Cols...),
			Sign:  append([]float64(nil), b.Sign...),
			Scale: append([]float64(nil), b.Scale...),
		}
		f(&tb)
		var c Certifier
		if c.CertifyFarkasBasis(p, tb) {
			t.Errorf("%s: tampered basis certified", name)
		}
	}
	tamper("swapped column", func(tb *FarkasBasis) { tb.Cols[2] = n + 2 }) // x out, row 2's slack in
	tamper("unit weights", func(tb *FarkasBasis) { tb.Scale = []float64{1, 1, 1} })
	tamper("flipped sign", func(tb *FarkasBasis) { tb.Sign[0] = -1 })
	tamper("duplicate column", func(tb *FarkasBasis) { tb.Cols[1] = tb.Cols[0] })
	tamper("slack and artificial of one row", func(tb *FarkasBasis) { tb.Cols[2] = n + 0 })
	tamper("slack of an equality row", func(tb *FarkasBasis) {
		p.Constraints[2].Rel = EQ
		tb.Cols[2] = n + 2
	})
	p.Constraints[2].Rel = LE
	tamper("no artificial", func(tb *FarkasBasis) { tb.Cols = []int{0, 1, n + 2} })
	tamper("column out of range", func(tb *FarkasBasis) { tb.Cols[2] = n + 2*m })
	tamper("short basis", func(tb *FarkasBasis) { tb.Cols = tb.Cols[:2] })
	tamper("zero scale", func(tb *FarkasBasis) { tb.Scale[1] = 0 })
	tamper("non-unit sign", func(tb *FarkasBasis) { tb.Sign[1] = 0.5 })
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

// TestCheckFarkasIntMatchesBig is the differential test of the gcd-free
// integer Farkas check against the big.Rat reference, on constructed
// certificates (valid, with a zero or negative right-hand side, with a
// positive combination entry) scaled by random positive factors.
func TestCheckFarkasIntMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var c Certifier
	var valid int
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(5)
		m := 2 + rng.Intn(5)
		p := NewProblem(n)
		ray := make(exact.Vec, m)
		d := exact.NewVec(n)
		rhs := new(big.Rat)
		randRat := func(span int64) *big.Rat {
			return big.NewRat(rng.Int63n(2*span+1)-span, 1+rng.Int63n(1<<uint(rng.Intn(20))))
		}
		for i := 0; i < m-1; i++ {
			coeffs := exact.NewVec(n)
			for j := range coeffs {
				coeffs[j] = randRat(20)
			}
			rel := []Rel{LE, GE, EQ}[rng.Intn(3)]
			q := randRat(9)
			if (rel == LE && q.Sign() > 0) || (rel == GE && q.Sign() < 0) {
				q.Neg(q)
			}
			b := randRat(50)
			p.AddConstraint(coeffs, rel, b)
			ray[i] = q
			d.AddScaled(q, coeffs)
			rhs.Add(rhs, new(big.Rat).Mul(q, b))
		}
		// The last row (multiplier 1, a ≥ row) closes the combination to
		// −s with s ≥ 0, occasionally breaking one entry; its right-hand
		// side sets the sign of Σ qᵢbᵢ.
		last := exact.NewVec(n)
		for j := range last {
			s := big.NewRat(rng.Int63n(3), 1)
			if rng.Intn(8) == 0 {
				s.SetInt64(-1)
			}
			last[j].Neg(d[j])
			last[j].Sub(last[j], s)
		}
		target := big.NewRat(int64(rng.Intn(3)-1), int64(1+rng.Intn(7)))
		bLast := new(big.Rat).Sub(target, rhs)
		p.AddConstraint(last, GE, bLast)
		ray[m-1] = big.NewRat(1, 1)
		if rng.Intn(6) == 0 {
			ray[rng.Intn(m)].SetInt64(0)
		}
		scale := big.NewRat(1+rng.Int63n(1<<40), 1+rng.Int63n(1<<30))
		for i := range ray {
			ray[i].Mul(ray[i], scale)
		}
		want := checkFarkasBig(p, ray)
		if got := c.checkFarkasRat(p, ray); got != want {
			t.Fatalf("trial %d: integer check %v, big.Rat reference %v", trial, got, want)
		}
		if want {
			valid++
		}
	}
	if valid < 50 {
		t.Fatalf("only %d valid certificates: differential coverage too thin", valid)
	}
}
