package exact

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

func TestSimplestRatWithinRecoversSimpleFractions(t *testing.T) {
	cases := []struct {
		num, den int64
	}{
		{0, 1}, {1, 1}, {-1, 1}, {1, 2}, {-1, 2}, {2, 3}, {-2, 3},
		{7, 16}, {355, 113}, {-355, 113}, {1, 1000}, {999, 1000},
		{123456, 7}, {5, 4096},
	}
	for _, c := range cases {
		want := big.NewRat(c.num, c.den)
		f, _ := want.Float64()
		got, err := SimplestRatWithin(f, 1e-9*(1+math.Abs(f)))
		if err != nil {
			t.Fatalf("%d/%d: %v", c.num, c.den, err)
		}
		if got.Cmp(want) != 0 {
			t.Errorf("SimplestRatWithin(%d/%d) = %v, want %v", c.num, c.den, got, want)
		}
	}
}

func TestSimplestRatWithinStaysInInterval(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		f := (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(13)-6))
		tol := math.Pow(10, float64(-3-rng.Intn(10))) * (1 + math.Abs(f))
		r, err := SimplestRatWithin(f, tol)
		if err != nil {
			t.Fatal(err)
		}
		v, _ := r.Float64()
		if math.Abs(v-f) > tol*(1+1e-12) {
			t.Fatalf("trial %d: SimplestRatWithin(%g, %g) = %v (%g), off by %g",
				i, f, tol, r, v, math.Abs(v-f))
		}
	}
}

func TestSimplestRatWithinIsSimplest(t *testing.T) {
	// The result must have the smallest denominator of any rational in the
	// interval: verify against a brute-force scan for small denominators.
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 300; i++ {
		f := (rng.Float64() - 0.5) * 20
		tol := 0.05 * rng.Float64()
		r, err := SimplestRatWithin(f, tol)
		if err != nil {
			t.Fatal(err)
		}
		for den := int64(1); den < r.Denom().Int64(); den++ {
			lo := int64(math.Ceil((f - tol) * float64(den)))
			hi := int64(math.Floor((f + tol) * float64(den)))
			// Exclude boundary effects of the float ceil/floor: only flag a
			// strictly interior simpler candidate.
			for num := lo; num <= hi; num++ {
				cand := float64(num) / float64(den)
				if math.Abs(cand-f) < tol*(1-1e-9) {
					t.Fatalf("trial %d: SimplestRatWithin(%g, %g) = %v but %d/%d is simpler",
						i, f, tol, r, num, den)
				}
			}
		}
	}
}

func TestSimplestRatWithinEdgeCases(t *testing.T) {
	if _, err := SimplestRatWithin(math.NaN(), 1e-9); err == nil {
		t.Error("NaN accepted")
	}
	if _, err := SimplestRatWithin(math.Inf(1), 1e-9); err == nil {
		t.Error("+Inf accepted")
	}
	// tol <= 0 degenerates to exact conversion.
	r, err := SimplestRatWithin(0.1, 0)
	if err != nil {
		t.Fatal(err)
	}
	exact := new(big.Rat).SetFloat64(0.1)
	if r.Cmp(exact) != 0 {
		t.Errorf("tol=0: got %v, want exact %v", r, exact)
	}
	// Huge tolerance snaps to zero.
	r, _ = SimplestRatWithin(0.3, 1)
	if r.Sign() != 0 {
		t.Errorf("tol covering zero: got %v, want 0", r)
	}
}

// TestSimplestRat64WithinStraddlesZero pins the int64 rounding on values
// within the certifier's point tolerance of zero: the interval [v−tol,
// v+tol] contains 0, so the answer is 0 — even though an endpoint's exact
// value needs a denominator far beyond int64 — and it agrees with the
// big.Rat path. Values just outside the tolerance must still agree with
// the big path whenever the int64 path answers.
func TestSimplestRat64WithinStraddlesZero(t *testing.T) {
	tolOf := func(v float64) float64 { return math.Ldexp(1, -40) * (1 + math.Abs(v)) }
	for _, v := range []float64{1e-20, 3e-13, -4e-13, 9e-13, -9e-13, 5e-324, -1e-300, 0} {
		got, ok := SimplestRat64Within(v, tolOf(v))
		if !ok || got.Sign() != 0 {
			t.Errorf("SimplestRat64Within(%g) = %s, %v; want 0, true", v, got, ok)
		}
		if want, err := SimplestRatWithin(v, tolOf(v)); err != nil || want.Sign() != 0 {
			t.Errorf("SimplestRatWithin(%g) = %v, %v; want 0", v, want, err)
		}
	}
	for _, v := range []float64{1e-12, -2e-12, 1e-9, 0.5} {
		got, ok := SimplestRat64Within(v, tolOf(v))
		want, err := SimplestRatWithin(v, tolOf(v))
		if err != nil {
			t.Fatal(err)
		}
		if ok && got.Rat(nil).Cmp(want) != 0 {
			t.Errorf("SimplestRat64Within(%g) = %s, big path %s", v, got, want.RatString())
		}
	}
}
