package exact

import (
	"fmt"
	"math"
	"math/big"
)

// This file is the single home for float64 → ℚ conversion. Every layer that
// feeds floating-point data into the exact pipeline (confidence-region slab
// bounds, LP coefficient rows) must come through here so that NaN, ±Inf and
// magnitude overflow are handled in exactly one place.

// RatFromFloat converts a finite float64 exactly to a rational. NaN and ±Inf
// are rejected with an error rather than producing a nil or garbage value.
func RatFromFloat(f float64) (*big.Rat, error) {
	r := new(big.Rat)
	if err := SetRatFromFloat(r, f); err != nil {
		return nil, err
	}
	return r, nil
}

// SetRatFromFloat sets dst to the exact rational value of f, reusing dst's
// storage. It fails on NaN and ±Inf, which have no rational value.
func SetRatFromFloat(dst *big.Rat, f float64) error {
	if dst.SetFloat64(f) == nil {
		return fmt.Errorf("exact: cannot convert non-finite float %v to a rational", f)
	}
	return nil
}

// SimplestRatWithin returns the rational with the smallest denominator in
// the closed interval [f−tol, f+tol] (ties broken toward the smaller
// numerator). It is the rounding step of the two-tier solver's certificate
// checkers: a float64 candidate produced by the revised-simplex filter is
// snapped to the simplest nearby rational before being verified exactly, so
// certificates whose true values are small rationals (vertex coordinates of
// integer cones, dyadic slab bounds, sparse Farkas multipliers) are
// recovered exactly rather than dragged through a 2⁻⁵² denominator. A tol
// of 0 (or less) degenerates to the exact conversion. NaN and ±Inf are
// rejected.
func SimplestRatWithin(f, tol float64) (*big.Rat, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return nil, fmt.Errorf("exact: cannot round non-finite float %v to a rational", f)
	}
	if tol <= 0 {
		return RatFromFloat(f)
	}
	// Interval endpoints are computed in float64 and converted exactly; the
	// float rounding can only shrink the interval, never exclude f itself,
	// so the result is always within tol of f.
	lo, hi := new(big.Rat), new(big.Rat)
	if lo.SetFloat64(f-tol) == nil || hi.SetFloat64(f+tol) == nil {
		return RatFromFloat(f)
	}
	return simplestInInterval(lo, hi), nil
}

// simplestInInterval returns the smallest-denominator rational in [lo, hi]
// (lo ≤ hi), by the classic continued-fraction walk: descend the integer
// parts shared by both endpoints, and stop as soon as an integer lies
// between them.
func simplestInInterval(lo, hi *big.Rat) *big.Rat {
	if lo.Sign() <= 0 && hi.Sign() >= 0 {
		return new(big.Rat)
	}
	if hi.Sign() < 0 {
		r := simplestInInterval(new(big.Rat).Neg(hi), new(big.Rat).Neg(lo))
		return r.Neg(r)
	}
	// 0 < lo ≤ hi. If an integer lies in the interval, ⌈lo⌉ is the simplest
	// element (denominator 1, smallest magnitude). lo > 0, so truncating
	// division is floor division.
	floor, rem := new(big.Int).QuoRem(lo.Num(), lo.Denom(), new(big.Int))
	ceil := new(big.Int).Set(floor)
	if rem.Sign() != 0 {
		ceil.Add(ceil, big.NewInt(1))
	}
	c := new(big.Rat).SetInt(ceil)
	if c.Cmp(hi) <= 0 {
		return c
	}
	// Same integer part a = ⌊lo⌋ = ⌊hi⌋; recurse on the reciprocal of the
	// fractional parts: x = a + 1/y with y ∈ [1/(hi−a), 1/(lo−a)].
	ar := new(big.Rat).SetInt(floor)
	loF := new(big.Rat).Sub(lo, ar)
	hiF := new(big.Rat).Sub(hi, ar)
	y := simplestInInterval(hiF.Inv(hiF), loF.Inv(loF))
	return ar.Add(ar, y.Inv(y))
}

// QuantizeInto sets dst to f rounded outward onto the grid of multiples of
// 1/denom, reusing dst's storage.
//
// Unlike the int64(math.Ceil(f*denom)) idiom it replaces, the conversion is
// exact for every finite float64: magnitudes beyond 2⁵³/denom take a big.Int
// slow path instead of silently overflowing int64 (the seed bug this fixes).
// NaN and ±Inf return an error — a confidence-region bound that is not a
// finite number cannot be turned into an LP constraint.
func QuantizeInto(dst *big.Rat, f float64, ceil bool, denom int64) error {
	if denom <= 0 {
		panic(fmt.Sprintf("exact: quantize denominator must be positive, got %d", denom))
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return fmt.Errorf("exact: cannot quantize non-finite value %v", f)
	}
	scaled := f * float64(denom)
	if denom&(denom-1) == 0 && math.Abs(scaled) < 1<<53 {
		// Fast path: scaling by a power of two is exact (overflow lands in
		// the slow-path branch), so Ceil/Floor round the true value. For
		// other denominators f·denom itself rounds, which could pull an
		// "outward" bound inward — those take the exact path below.
		var n int64
		if ceil {
			n = int64(math.Ceil(scaled))
		} else {
			n = int64(math.Floor(scaled))
		}
		dst.SetFrac64(n, denom)
		return nil
	}
	// Slow path: f*denom exceeds the exactly-representable integer range, so
	// compute ⌈f·denom⌉ (or ⌊·⌋) with integer arithmetic on the exact
	// rational value of f.
	if dst.SetFloat64(f) == nil {
		return fmt.Errorf("exact: cannot quantize non-finite value %v", f)
	}
	num := new(big.Int).Mul(dst.Num(), big.NewInt(denom))
	den := new(big.Int).Set(dst.Denom())
	q, m := new(big.Int).DivMod(num, den, new(big.Int))
	// big.Int.DivMod is Euclidean: for den > 0, q = ⌊num/den⌋ and 0 ≤ m < den.
	if ceil && m.Sign() != 0 {
		q.Add(q, big.NewInt(1))
	}
	dst.SetFrac(q, big.NewInt(denom))
	return nil
}
