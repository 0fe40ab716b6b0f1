package simplex

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/exact"
)

// boxProblem builds 1 ≤ x+y ≤ 3, 0 ≤ x−y ≤ 1 over x,y ≥ 0.
func boxProblem() *Problem {
	p := NewProblem(2)
	p.AddConstraint(exact.VecFromInts(1, 1), LE, big.NewRat(3, 1))
	p.AddConstraint(exact.VecFromInts(1, 1), GE, big.NewRat(1, 1))
	p.AddConstraint(exact.VecFromInts(1, -1), LE, big.NewRat(1, 1))
	p.AddConstraint(exact.VecFromInts(1, -1), GE, big.NewRat(0, 1))
	return p
}

func TestCheckPoint(t *testing.T) {
	p := boxProblem()
	in := exact.Vec{big.NewRat(3, 2), big.NewRat(1, 2)} // x−y=1 boundary, inside box
	if !CheckPoint(p, in) {
		t.Error("interior point rejected")
	}
	out := exact.Vec{big.NewRat(3, 1), big.NewRat(3, 1)} // x+y=6 > 3
	if CheckPoint(p, out) {
		t.Error("exterior point accepted")
	}
	neg := exact.Vec{big.NewRat(-1, 1), big.NewRat(2, 1)} // x < 0
	if CheckPoint(p, neg) {
		t.Error("negative coordinate accepted")
	}
	if CheckPoint(p, exact.Vec{big.NewRat(1, 1)}) {
		t.Error("wrong-length point accepted")
	}
}

func TestCheckPointFreeAndEquality(t *testing.T) {
	// x free, written x⁺ − x⁻ over columns (x⁺, x⁻, y): x + y = 1.
	p := NewProblem(3)
	p.AddConstraint(exact.VecFromInts(1, -1, 1), EQ, big.NewRat(1, 1))
	ok := exact.Vec{big.NewRat(0, 1), big.NewRat(1, 1), big.NewRat(2, 1)} // x = −1
	if !CheckPoint(p, ok) {
		t.Error("free negative coordinate rejected")
	}
	near := exact.Vec{big.NewRat(0, 1), big.NewRat(1, 1), new(big.Rat).SetFloat64(2.0000001)}
	if CheckPoint(p, near) {
		t.Error("approximate equality accepted — the checker must be exact")
	}
	neg := exact.Vec{big.NewRat(-1, 1), big.NewRat(0, 1), big.NewRat(2, 1)}
	if CheckPoint(p, neg) {
		t.Error("negative coordinate accepted on a satisfied equality")
	}
}

func TestCheckFarkasFreeVariable(t *testing.T) {
	// x free, written x⁺ − x⁻ over columns (x⁺, x⁻, y): a certificate
	// whose combination leaves a nonzero coefficient on x puts a positive
	// one on x⁺ or x⁻ and proves nothing.
	p := NewProblem(3)
	p.AddConstraint(exact.VecFromInts(1, -1, 1), GE, big.NewRat(2, 1))
	p.AddConstraint(exact.VecFromInts(0, 0, 1), LE, big.NewRat(1, 1))
	ray := exact.Vec{big.NewRat(1, 1), big.NewRat(-1, 1)} // d = (1, −1, 0)
	if CheckFarkas(p, ray) {
		t.Error("ray with nonzero free-variable coefficient accepted")
	}
}

func TestCheckFarkas(t *testing.T) {
	// x ≥ 2 and x ≤ 1 is infeasible; certificate q = (1, -1):
	// combination gives 0·x ≥ 1.
	p := NewProblem(1)
	p.AddConstraint(exact.VecFromInts(1), GE, big.NewRat(2, 1))
	p.AddConstraint(exact.VecFromInts(1), LE, big.NewRat(1, 1))
	good := exact.Vec{big.NewRat(1, 1), big.NewRat(-1, 1)}
	if !CheckFarkas(p, good) {
		t.Error("valid Farkas ray rejected")
	}
	// Corruptions must all be rejected.
	wrongSign := exact.Vec{big.NewRat(-1, 1), big.NewRat(-1, 1)}
	if CheckFarkas(p, wrongSign) {
		t.Error("sign-violating ray accepted")
	}
	zero := exact.Vec{new(big.Rat), new(big.Rat)}
	if CheckFarkas(p, zero) {
		t.Error("zero ray accepted")
	}
	unbalanced := exact.Vec{big.NewRat(1, 1), big.NewRat(-2, 1)} // d = -1 ≤ 0 but rhs = 0
	if CheckFarkas(p, unbalanced) {
		t.Error("ray with non-positive combined RHS accepted")
	}
	if CheckFarkas(p, exact.Vec{big.NewRat(1, 1)}) {
		t.Error("wrong-length ray accepted")
	}

	// On a feasible problem no ray may verify.
	feasible := boxProblem()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		ray := make(exact.Vec, len(feasible.Constraints))
		for j := range ray {
			ray[j] = big.NewRat(int64(rng.Intn(11)-5), int64(1+rng.Intn(4)))
		}
		if CheckFarkas(feasible, ray) {
			t.Fatalf("trial %d: Farkas ray %v verified against a feasible problem", i, ray)
		}
	}
}

func TestCertifyPointRoundsFloatNoise(t *testing.T) {
	p := boxProblem()
	// A strictly interior point carrying float error well inside the
	// rounding tolerance must certify.
	if !CertifyPoint(p, []float64{1.0 + 1e-14, 0.75 - 1e-14}) {
		t.Error("noisy interior point failed certification")
	}
	// Tiny negative coordinates are solver zeros.
	p2 := NewProblem(2)
	p2.AddConstraint(exact.VecFromInts(1, 1), LE, big.NewRat(1, 1))
	if !CertifyPoint(p2, []float64{-1e-15, 0.5}) {
		t.Error("clamped near-zero coordinate failed certification")
	}
	// A clearly exterior point must not certify.
	if CertifyPoint(p, []float64{10, 10}) {
		t.Error("exterior float point certified")
	}
}

// TestCertifyFarkasDeclinesRays: infeasibility is certified from a phase-1
// basis alone. On x ≥ 2, x ≤ 1 the basis {art₀, x} certifies where the
// ray (1, −1) used to, the deprecated ray check declines even that valid
// ray, and no basis certifies a feasible problem.
func TestCertifyFarkasDeclinesRays(t *testing.T) {
	p := NewProblem(1)
	p.AddConstraint(exact.VecFromInts(1), GE, big.NewRat(2, 1))
	p.AddConstraint(exact.VecFromInts(1), LE, big.NewRat(1, 1))
	var c Certifier
	b := FarkasBasis{Cols: []int{1 + 2 + 0, 0}, Sign: []float64{1, 1}, Scale: []float64{1, 1}}
	if !c.CertifyFarkasBasis(p, b) {
		t.Error("phase-1 basis of a slab conflict failed certification")
	}
	if c.CertifyFarkas(p, []float64{1, -1}) {
		t.Error("deprecated ray check certified a ray")
	}
	feasible := boxProblem()
	fb := FarkasBasis{Cols: []int{2 + 4 + 1, 2 + 4 + 3, 0, 1}, Sign: []float64{1, 1, 1, 1}, Scale: []float64{1, 1, 1, 1}}
	if c.CertifyFarkasBasis(feasible, fb) {
		t.Error("basis certified a feasible problem")
	}
}

// TestCheckPointRatMatchesBig pins the gcd-free point comparison (the
// path of points whose rounding leaves int64, and of rows whose int64 dot
// overflows) against the big.Rat reference, on integer-native and
// rational problems, with coordinates on and off the int64 range.
func TestCheckPointRatMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	huge := new(big.Int).Lsh(big.NewInt(1), 70)
	coord := func() *big.Rat {
		switch rng.Intn(4) {
		case 0:
			return new(big.Rat)
		case 1:
			return new(big.Rat).SetFrac(big.NewInt(rng.Int63n(7)+1), huge)
		}
		return big.NewRat(rng.Int63n(400)-20, rng.Int63n(1<<uint(rng.Intn(40)))+1)
	}
	var c Certifier
	feasible := 0
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(4)
		p := NewProblem(n)
		for i := 0; i < 1+rng.Intn(5); i++ {
			row := make([]float64, n)
			for j := range row {
				row[j] = math.Ldexp(float64(rng.Intn(41)-20), rng.Intn(12)-8)
			}
			if err := p.AddFloatRow(Rel(rng.Intn(2)), row, math.Ldexp(float64(rng.Intn(801)-100), -rng.Intn(9))); err != nil {
				t.Fatal(err)
			}
		}
		x := make(exact.Vec, n)
		for j := range x {
			x[j] = coord()
		}
		want := checkPointBig(p, x)
		if got := c.checkPointRat(p, x); got != want {
			t.Fatalf("trial %d: gcd-free check %v, big.Rat reference %v", trial, got, want)
		}
		if got := CheckPoint(p, x); got != want {
			t.Fatalf("trial %d: CheckPoint %v, big.Rat reference %v", trial, got, want)
		}
		if want {
			feasible++
		}
	}
	if feasible < 20 {
		t.Fatalf("only %d feasible points: coverage too thin", feasible)
	}
}
