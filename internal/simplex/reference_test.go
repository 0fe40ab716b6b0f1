package simplex_test

// Differentials against the big.Rat reference (package simplexref): the
// int64 kernel tableau's verdicts and witnesses, and the gcd-free Farkas
// check.

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/exact"
	"repro/internal/simplex"
	"repro/internal/simplex/simplexref"
)

// randomProblem builds a random LP with small integer coefficients, every
// relation and right-hand sides of either sign.
func randomProblem(rng *rand.Rand) *simplex.Problem {
	nv := rng.Intn(4) + 1
	p := simplex.NewProblem(nv)
	nc := rng.Intn(4) + 2
	for c := 0; c < nc; c++ {
		coeffs := exact.NewVec(nv)
		for i := range coeffs {
			coeffs[i].SetInt64(int64(rng.Intn(7) - 3))
		}
		p.AddConstraint(coeffs, simplex.Rel(rng.Intn(3)), big.NewRat(int64(rng.Intn(15)-3), 1))
	}
	return p
}

// TestKernelMatchesBigRat is the differential property pinning the int64
// kernel tableau against the pure big.Rat reference: same status and the
// same witness, on randomized LPs that include equalities and negative
// right-hand sides.
func TestKernelMatchesBigRat(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	kernel := simplex.NewWorkspace()
	feasible := 0
	for trial := 0; trial < 300; trial++ {
		p := randomProblem(rng)
		rk := kernel.Solve(p)
		rb := simplexref.Solve(p)
		if rk.Status != rb.Status {
			t.Fatalf("trial %d: kernel status %v, reference status %v", trial, rk.Status, rb.Status)
		}
		if rk.Status != simplex.Optimal {
			continue
		}
		if rk.X.Key() != rb.X.Key() {
			t.Fatalf("trial %d: kernel X %v, reference X %v", trial, rk.X, rb.X)
		}
		if !simplexref.CheckPoint(p, rk.X) {
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
	build := func() *simplex.Problem {
		p := simplex.NewProblem(2)
		coeffs := exact.NewVec(2)
		coeffs[0].Set(huge)
		coeffs[1].SetFrac64(7, 1<<50)
		p.AddConstraint(coeffs, simplex.LE, big.NewRat(1, 1))
		c2 := exact.NewVec(2)
		c2[0].SetInt64(1)
		c2[1].SetInt64(1)
		p.AddConstraint(c2, simplex.GE, big.NewRat(1, 1))
		return p
	}
	p := build()
	rk := simplex.Solve(p)
	rb := simplexref.Solve(p)
	if rk.Status != rb.Status {
		t.Fatalf("status: kernel %v, reference %v", rk.Status, rb.Status)
	}
	if rk.Status != simplex.Optimal {
		t.Fatalf("status %v, want feasible", rk.Status)
	}
	if rk.X.Key() != rb.X.Key() {
		t.Fatalf("X: kernel %v, reference %v", rk.X, rb.X)
	}
	if !simplexref.CheckPoint(p, rk.X) {
		t.Fatalf("witness %v violates the problem", rk.X)
	}
}

// TestCheckFarkasIntMatchesBig is the differential test of the gcd-free
// integer Farkas check against the big.Rat reference, on constructed
// certificates (valid, with a zero or negative right-hand side, with a
// positive combination entry) scaled by random positive factors.
func TestCheckFarkasIntMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var c simplex.Certifier
	var valid int
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(5)
		m := 2 + rng.Intn(5)
		p := simplex.NewProblem(n)
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
			rel := []simplex.Rel{simplex.LE, simplex.GE, simplex.EQ}[rng.Intn(3)]
			q := randRat(9)
			if (rel == simplex.LE && q.Sign() > 0) || (rel == simplex.GE && q.Sign() < 0) {
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
		p.AddConstraint(last, simplex.GE, bLast)
		ray[m-1] = big.NewRat(1, 1)
		if rng.Intn(6) == 0 {
			ray[rng.Intn(m)].SetInt64(0)
		}
		scale := big.NewRat(1+rng.Int63n(1<<40), 1+rng.Int63n(1<<30))
		for i := range ray {
			ray[i].Mul(ray[i], scale)
		}
		want := simplexref.CheckFarkas(p, ray)
		if got := c.CheckFarkasRat(p, ray); got != want {
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
