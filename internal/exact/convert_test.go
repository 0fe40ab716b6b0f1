package exact

import (
	"math"
	"math/big"
	"testing"
)

func TestRatFromFloat(t *testing.T) {
	r, err := RatFromFloat(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cmp(big.NewRat(1, 2)) != 0 {
		t.Fatalf("0.5 -> %v", r)
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := RatFromFloat(f); err == nil {
			t.Fatalf("RatFromFloat(%v) should fail", f)
		}
	}
}

func TestQuantizeGrid(t *testing.T) {
	cases := []struct {
		f    float64
		ceil bool
		want *big.Rat
	}{
		{1.0, true, big.NewRat(1, 1)},
		{1.0, false, big.NewRat(1, 1)},
		{1.001, true, big.NewRat(257, 256)}, // next 1/256 step up
		{1.001, false, big.NewRat(256, 256)},
		{-1.001, true, big.NewRat(-256, 256)},
		{-1.001, false, big.NewRat(-257, 256)},
		{0, true, big.NewRat(0, 1)},
		{0, false, big.NewRat(0, 1)},
	}
	for _, c := range cases {
		got, err := Quantize(c.f, c.ceil, 256)
		if err != nil {
			t.Fatalf("Quantize(%v, %v): %v", c.f, c.ceil, err)
		}
		if got.Cmp(c.want) != 0 {
			t.Fatalf("Quantize(%v, %v) = %v, want %v", c.f, c.ceil, got, c.want)
		}
	}
}

// TestQuantizeOutward checks the contract the downstream LP depends on: the
// quantized bound never moves inward (ceil result ≥ f, floor result ≤ f),
// for power-of-two and non-power-of-two denominators alike.
func TestQuantizeOutward(t *testing.T) {
	for _, denom := range []int64{1, 10, 256, 1000} {
		for _, f := range []float64{0, 1e-9, 0.1, 0.3, 123.456, 1e6 + 0.1, -7.77, -1e5} {
			hi, err := Quantize(f, true, denom)
			if err != nil {
				t.Fatal(err)
			}
			lo, err := Quantize(f, false, denom)
			if err != nil {
				t.Fatal(err)
			}
			fr := new(big.Rat).SetFloat64(f)
			if hi.Cmp(fr) < 0 {
				t.Fatalf("ceil quantize moved inward: Quantize(%v, true, %d) = %v < %v", f, denom, hi, fr)
			}
			if lo.Cmp(fr) > 0 {
				t.Fatalf("floor quantize moved inward: Quantize(%v, false, %d) = %v > %v", f, denom, lo, fr)
			}
		}
	}
	// The regression pinning the fast-path guard: 0.1·10 rounds to exactly
	// 1.0 in float64 although the true product is above 1, so a naive
	// Ceil-based fast path would return 1/10 < 0.1 — an upper bound below
	// the value. The exact path must land one grid step higher.
	hi, err := Quantize(0.1, true, 10)
	if err != nil {
		t.Fatal(err)
	}
	if fr := new(big.Rat).SetFloat64(0.1); hi.Cmp(fr) < 0 {
		t.Fatalf("Quantize(0.1, true, 10) = %v moved inward", hi)
	}
	if hi.Cmp(big.NewRat(2, 10)) != 0 {
		t.Fatalf("Quantize(0.1, true, 10) = %v, want 2/10", hi)
	}
}

// TestQuantizeLargeMagnitude is the regression test for the seed bug: the
// old int64(math.Ceil(f*256)) silently overflowed for means beyond ~2⁵⁵,
// producing garbage LP bounds. The big.Int slow path must stay exact.
func TestQuantizeLargeMagnitude(t *testing.T) {
	for _, f := range []float64{1e17, 1e18, 1e30, 1e300, -1e30, math.MaxFloat64, -math.MaxFloat64} {
		for _, ceil := range []bool{true, false} {
			got, err := Quantize(f, ceil, 256)
			if err != nil {
				t.Fatalf("Quantize(%v, %v): %v", f, ceil, err)
			}
			// Huge float64s are integral multiples of large powers of two, so
			// they lie exactly on the 1/256 grid: the result must equal f.
			want := new(big.Rat).SetFloat64(f)
			if got.Cmp(want) != 0 {
				t.Fatalf("Quantize(%v, %v) = %v, want exact %v", f, ceil, got.RatString(), want.RatString())
			}
		}
	}
	// A huge value just off the grid: 2^60 + 1/3 is not representable, but
	// the nearest float64 above 2^60 still exercises the slow path and must
	// round outward, not overflow.
	f := math.Nextafter(1<<60, math.Inf(1))
	hi, err := Quantize(f, true, 256)
	if err != nil {
		t.Fatal(err)
	}
	fr := new(big.Rat).SetFloat64(f)
	if hi.Cmp(fr) < 0 {
		t.Fatalf("slow-path ceil moved inward: %v < %v", hi, fr)
	}
	diff := new(big.Rat).Sub(hi, fr)
	if diff.Cmp(big.NewRat(1, 256)) > 0 {
		t.Fatalf("slow-path ceil overshot the grid: %v - %v = %v", hi, fr, diff)
	}
}

func TestQuantizeNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := Quantize(f, true, 256); err == nil {
			t.Fatalf("Quantize(%v) should fail", f)
		}
		if _, err := Quantize(f, false, 256); err == nil {
			t.Fatalf("Quantize(%v) should fail", f)
		}
	}
}

func TestQuantizeIntoReusesStorage(t *testing.T) {
	r := new(big.Rat)
	if err := QuantizeInto(r, 3.14, true, 256); err != nil {
		t.Fatal(err)
	}
	first := new(big.Rat).Set(r)
	if err := QuantizeInto(r, 2.71, false, 256); err != nil {
		t.Fatal(err)
	}
	if r.Cmp(first) == 0 {
		t.Fatal("QuantizeInto did not overwrite dst")
	}
	want, _ := Quantize(2.71, false, 256)
	if r.Cmp(want) != 0 {
		t.Fatalf("reused dst = %v, want %v", r, want)
	}
}

// Quantize rounds f outward onto the dyadic grid of spacing 1/denom: up to
// the next multiple of 1/denom when ceil is true, down otherwise. See
// QuantizeInto for the error contract.
func Quantize(f float64, ceil bool, denom int64) (*big.Rat, error) {
	r := new(big.Rat)
	if err := QuantizeInto(r, f, ceil, denom); err != nil {
		return nil, err
	}
	return r, nil
}
