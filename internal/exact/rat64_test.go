package exact

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// ratOf builds the big.Rat reference value n/d.
func ratOf(n, d int64) *big.Rat { return new(big.Rat).SetFrac64(n, d) }

// checkAgainstBig verifies that a kernel result, when ok, equals the
// big.Rat reference exactly.
func checkAgainstBig(t *testing.T, op string, got Rat64, ok bool, want *big.Rat) {
	t.Helper()
	if !ok {
		// Promotion: the big path takes over; nothing to compare. The
		// correctness property is only "ok ⇒ exact".
		return
	}
	if got.Den() <= 0 {
		t.Fatalf("%s: non-positive denominator %d", op, got.Den())
	}
	if g := GCD64(AbsU64(got.Num()), uint64(got.Den())); got.Num() != 0 && g != 1 {
		t.Fatalf("%s: result %s not in lowest terms (gcd %d)", op, got, g)
	}
	if got.Rat(nil).Cmp(want) != 0 {
		t.Fatalf("%s: kernel %s != big %s", op, got, want.RatString())
	}
}

func TestRat64Ops(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := []int64{0, 1, -1, 2, 3, -3, 7, 256, -255, 65536,
		math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1,
		1 << 31, -(1 << 31), (1 << 62) - 3}
	draw := func() int64 {
		if rng.Intn(3) == 0 {
			return vals[rng.Intn(len(vals))]
		}
		return rng.Int63n(1<<20) - 1<<19
	}
	for trial := 0; trial < 20000; trial++ {
		an, ad, bn, bd := draw(), draw(), draw(), draw()
		if ad == 0 || bd == 0 {
			continue
		}
		a, okA := MakeRat64(an, ad)
		b, okB := MakeRat64(bn, bd)
		if !okA || !okB {
			continue
		}
		ra, rb := ratOf(an, ad), ratOf(bn, bd)
		if a.Rat(nil).Cmp(ra) != 0 || b.Rat(nil).Cmp(rb) != 0 {
			t.Fatalf("MakeRat64 mismatch: %d/%d -> %s", an, ad, a)
		}
		sum, ok := a.Add(b)
		checkAgainstBig(t, "add", sum, ok, new(big.Rat).Add(ra, rb))
		diff, ok := a.Sub(b)
		checkAgainstBig(t, "sub", diff, ok, new(big.Rat).Sub(ra, rb))
		prod, ok := a.Mul(b)
		checkAgainstBig(t, "mul", prod, ok, new(big.Rat).Mul(ra, rb))
		if b.Sign() != 0 {
			quo, ok := a.Quo(b)
			checkAgainstBig(t, "quo", quo, ok, new(big.Rat).Quo(ra, rb))
		}
		if got, want := a.Cmp(b), ra.Cmp(rb); got != want {
			t.Fatalf("cmp(%s, %s) = %d, big says %d", a, b, got, want)
		}
		neg, ok := a.Neg()
		checkAgainstBig(t, "neg", neg, ok, new(big.Rat).Neg(ra))
	}
}

// TestRat64OverflowBoundaries pins behaviour at the int64 edges: results
// that fit must be produced, results that cannot fit must promote.
func TestRat64OverflowBoundaries(t *testing.T) {
	big1 := Rat64FromInt64(math.MaxInt64)
	if _, ok := big1.Add(Rat64FromInt64(1)); ok {
		t.Fatal("MaxInt64 + 1 must overflow")
	}
	if _, ok := big1.Mul(Rat64FromInt64(2)); ok {
		t.Fatal("MaxInt64 * 2 must overflow")
	}
	if s, ok := big1.Sub(Rat64FromInt64(1)); !ok || s.Num() != math.MaxInt64-1 {
		t.Fatalf("MaxInt64 - 1 = %v, ok=%v", s, ok)
	}
	// Cross-GCD reduction must keep representable results representable:
	// (2^62/3) · (3/2^61) = 2.
	a, _ := MakeRat64(1<<62, 3)
	b, _ := MakeRat64(3, 1<<61)
	p, ok := a.Mul(b)
	if !ok || p.Num() != 2 || p.Den() != 1 {
		t.Fatalf("cross-gcd mul failed: %v ok=%v", p, ok)
	}
	// Denominator overflow in add.
	c, _ := MakeRat64(1, math.MaxInt64)
	d, _ := MakeRat64(1, math.MaxInt64-1)
	if _, ok := c.Add(d); ok {
		t.Fatal("adding 1/(2^63-1) + 1/(2^63-2) must overflow the denominator")
	}
	// Cmp never overflows, even at the extremes.
	e, _ := MakeRat64(math.MaxInt64, math.MaxInt64-1)
	f, _ := MakeRat64(math.MaxInt64-1, math.MaxInt64-2)
	if e.Cmp(f) != -1 {
		t.Fatalf("Cmp at extremes wrong: %s vs %s", e, f)
	}
	if Rat64FromInt64(math.MinInt64).Sign() != -1 {
		t.Fatal("MinInt64 sign")
	}
	if _, ok := Rat64FromInt64(math.MinInt64).Neg(); ok {
		t.Fatal("negating MinInt64 must report overflow")
	}
}

func TestRat64FromFloat(t *testing.T) {
	cases := []float64{0, 1, -1, 0.5, -0.25, 1.0 / 65536, 3.75, 1e15,
		0.1, 1.0 / 3, math.Pi, 123456789.125, -1e-9}
	for _, f := range cases {
		r, ok := Rat64FromFloat(f)
		want := new(big.Rat).SetFloat64(f)
		if !ok {
			// Must only happen when the exact value genuinely does not fit.
			if want.Num().IsInt64() && want.Denom().IsInt64() {
				t.Fatalf("Rat64FromFloat(%v) refused a representable value %s", f, want.RatString())
			}
			continue
		}
		if r.Rat(nil).Cmp(want) != 0 {
			t.Fatalf("Rat64FromFloat(%v) = %s, want %s", f, r, want.RatString())
		}
	}
	if _, ok := Rat64FromFloat(math.NaN()); ok {
		t.Fatal("NaN must not convert")
	}
	if _, ok := Rat64FromFloat(math.Inf(1)); ok {
		t.Fatal("+Inf must not convert")
	}
	if _, ok := Rat64FromFloat(1e300); ok {
		t.Fatal("1e300 must not fit int64")
	}
	if _, ok := Rat64FromFloat(5e-324); ok {
		t.Fatal("subnormal must not fit int64")
	}
}

func TestSimplestRat64WithinMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 5000; trial++ {
		f := (rng.Float64() - 0.5) * math.Ldexp(1, rng.Intn(30))
		tol := math.Ldexp(1, -40) * (1 + math.Abs(f))
		if trial%3 == 0 {
			tol = 1e-9 * (1 + math.Abs(f))
		}
		got, ok := SimplestRat64Within(f, tol)
		if !ok {
			continue // promotion; the big path takes over
		}
		want, err := SimplestRatWithin(f, tol)
		if err != nil {
			t.Fatal(err)
		}
		if got.Rat(nil).Cmp(want) != 0 {
			t.Fatalf("SimplestRat64Within(%v, %v) = %s, big path %s", f, tol, got, want.RatString())
		}
	}
}

// FuzzRat64VsBigRat is the differential fuzz target of the kernel: for any
// operand pair — the fuzzer drives it straight at the int64 overflow
// boundaries — the promote-on-overflow composition (Rat64 op, else big.Rat
// op) must agree with pure big.Rat arithmetic.
func FuzzRat64VsBigRat(f *testing.F) {
	f.Add(int64(1), int64(2), int64(-3), int64(4), uint8(0))
	f.Add(int64(math.MaxInt64), int64(1), int64(1), int64(1), uint8(0))
	f.Add(int64(math.MaxInt64), int64(math.MaxInt64-1), int64(math.MaxInt64-1), int64(math.MaxInt64-2), uint8(2))
	f.Add(int64(math.MinInt64), int64(3), int64(5), int64(7), uint8(1))
	f.Add(int64(1), int64(math.MaxInt64), int64(1), int64(math.MaxInt64-1), uint8(0))
	f.Add(int64(1<<62), int64(3), int64(3), int64(1<<61), uint8(2))
	// Rounding seeds (op 4): values within the certifier's point tolerance
	// of zero, whose rounding interval straddles 0 but whose endpoints need
	// denominators beyond int64, and small values just outside it.
	f.Add(int64(1), int64(1<<62), int64(4), int64(0), uint8(4))
	f.Add(int64(3), int64(10000000000000), int64(0), int64(0), uint8(4))
	f.Add(int64(-4), int64(10000000000000), int64(0), int64(0), uint8(4))
	f.Add(int64(1), int64(1000000000000), int64(0), int64(0), uint8(4))
	f.Add(int64(-7), int64(3), int64(70), int64(1), uint8(4))
	f.Fuzz(func(t *testing.T, an, ad, bn, bd int64, op uint8) {
		if op%5 == 4 {
			fuzzSimplestRat64(t, an, ad, bn, bd)
			return
		}
		if ad == 0 || bd == 0 {
			return
		}
		a, okA := MakeRat64(an, ad)
		b, okB := MakeRat64(bn, bd)
		ra, rb := ratOf(an, ad), ratOf(bn, bd)
		if okA && a.Rat(nil).Cmp(ra) != 0 {
			t.Fatalf("MakeRat64(%d, %d) = %s != %s", an, ad, a, ra.RatString())
		}
		if !okA || !okB {
			return
		}
		var (
			got  Rat64
			ok   bool
			want = new(big.Rat)
			name string
		)
		switch op % 5 {
		case 0:
			name = "add"
			got, ok = a.Add(b)
			want.Add(ra, rb)
		case 1:
			name = "sub"
			got, ok = a.Sub(b)
			want.Sub(ra, rb)
		case 2:
			name = "mul"
			got, ok = a.Mul(b)
			want.Mul(ra, rb)
		case 3:
			if b.Sign() == 0 {
				return
			}
			name = "quo"
			got, ok = a.Quo(b)
			want.Quo(ra, rb)
		}
		// Promote on overflow: the composed result is always `want`; when
		// the kernel answered, it must BE `want`.
		if ok && got.Rat(nil).Cmp(want) != 0 {
			t.Fatalf("%s(%s, %s): kernel %s != big %s", name, a, b, got, want.RatString())
		}
		if got, want := a.Cmp(b), ra.Cmp(rb); got != want {
			t.Fatalf("cmp(%s, %s) = %d, big says %d", a, b, got, want)
		}
	})
}

// fuzzSimplestRat64 checks SimplestRat64Within against SimplestRatWithin
// on f = an/ad·2^−(bn mod 80), with the certifier's point tolerance
// 2⁻⁴⁰·(1+|f|) (bd even) or the Farkas tolerance 1e-9·(1+|f|) (bd odd):
// when the int64 path answers it must agree, and an interval that
// straddles zero must always be answered.
func fuzzSimplestRat64(t *testing.T, an, ad, bn, bd int64) {
	if ad == 0 {
		return
	}
	f := math.Ldexp(float64(an)/float64(ad), -int(uint64(bn)%80))
	tol := math.Ldexp(1, -40) * (1 + math.Abs(f))
	if bd%2 != 0 {
		tol = 1e-9 * (1 + math.Abs(f))
	}
	got, ok := SimplestRat64Within(f, tol)
	want, err := SimplestRatWithin(f, tol)
	if err != nil {
		if ok {
			t.Fatalf("SimplestRat64Within(%g, %g) = %s, big path failed: %v", f, tol, got, err)
		}
		return
	}
	if ok && got.Rat(nil).Cmp(want) != 0 {
		t.Fatalf("SimplestRat64Within(%g, %g) = %s, big path %s", f, tol, got, want.RatString())
	}
	if !ok && f-tol <= 0 && f+tol >= 0 {
		t.Fatalf("SimplestRat64Within(%g, %g) gave up on an interval straddling zero", f, tol)
	}
}

// TestQuantizeFloatMatchesQuantizeInto pins the float64 quantiser to the
// exact one across power-of-two denominators and magnitudes, including
// the range where f·denom is already an integer and the one where it
// overflows float64.
func TestQuantizeFloatMatchesQuantizeInto(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vals := []float64{0, math.Copysign(0, -1), 1.0 / 512, -1.0 / 512, 1e15, -3e45, 1e300, -math.MaxFloat64, 5e-324}
	for i := 0; i < 5000; i++ {
		vals = append(vals, (rng.Float64()-0.5)*math.Ldexp(1, rng.Intn(60)))
	}
	want := new(big.Rat)
	for _, f := range vals {
		for _, denom := range []int64{1, 2, 256, 65536} {
			ceil := rng.Intn(2) == 0
			got, err := QuantizeFloat(f, ceil, denom)
			if err != nil {
				t.Fatal(err)
			}
			if err := QuantizeInto(want, f, ceil, denom); err != nil {
				t.Fatal(err)
			}
			if new(big.Rat).SetFloat64(got).Cmp(want) != 0 {
				t.Fatalf("QuantizeFloat(%g, %v, %d) = %g, QuantizeInto %s", f, ceil, denom, got, want.RatString())
			}
		}
	}
	if _, err := QuantizeFloat(math.NaN(), true, 256); err == nil {
		t.Fatal("NaN quantised")
	}
}
