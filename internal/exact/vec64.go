package exact

// Vec64 is the dense-vector side of the int64 rational kernel: a vector of
// rationals in common-denominator form. Together with Rat64 it carries the
// hot loops of the simplex certifiers (constraint-row dot products), the
// double-description method (GCD-normalised integer rays) and the LP row
// materialisation in internal/core.

import (
	"math/big"
)

// Vec64 is a dense rational vector with one shared positive denominator:
// component i has the exact value Num[i]/Den. GCD-normalised integer
// vectors (cone generators, DD rays) have Den == 1. The zero value (nil
// Num, Den 0) is not a valid vector; construct with Vec64FromVec, or
// fill Num and set Den explicitly (Den must be > 0 and entries must not
// be MinInt64 — magnitude 2⁶³ is outside the kernel's domain, so every
// value stays negatable; the checked constructor enforces this).
type Vec64 struct {
	Num []int64
	Den int64
}

// Vec64FromVec converts v into common-denominator form. ok is false when
// any component does not fit int64, when the denominators' LCM overflows,
// or when a scaled numerator overflows — the caller keeps the big.Rat form.
func Vec64FromVec(v Vec) (Vec64, bool) {
	lcm := int64(1)
	for _, x := range v {
		den := x.Denom()
		if !den.IsInt64() || !x.Num().IsInt64() {
			return Vec64{}, false
		}
		d := den.Int64()
		g := int64(GCD64(uint64(lcm), uint64(d)))
		m, ok := MulInt64(lcm, d/g)
		if !ok {
			return Vec64{}, false
		}
		lcm = m
	}
	out := Vec64{Num: make([]int64, len(v)), Den: lcm}
	for i, x := range v {
		n, ok := MulInt64(x.Num().Int64(), lcm/x.Denom().Int64())
		if !ok {
			return Vec64{}, false
		}
		out.Num[i] = n
	}
	return out, true
}

// Len returns the number of components.
func (v Vec64) Len() int { return len(v.Num) }

// Vec materialises v as a big.Rat vector.
func (v Vec64) Vec() Vec {
	out := make(Vec, len(v.Num))
	for i, n := range v.Num {
		out[i] = new(big.Rat).SetFrac64(n, v.Den)
	}
	return out
}

// DotRat64s returns Σᵢ (Num[i]/Den)·xs[i] as a reduced rational, ok=false
// on overflow. This is the certificate-checking dot product: an LP
// constraint row (common-denominator form) against a candidate point whose
// coordinates are individually reduced rationals.
func (v Vec64) DotRat64s(xs []Rat64) (Rat64, bool) {
	if len(v.Num) != len(xs) {
		panic("exact: dot length mismatch")
	}
	sum := Rat64{0, 1}
	for i, a := range v.Num {
		if a == 0 || xs[i].n == 0 {
			continue
		}
		term, ok := Rat64{a, 1}.Mul(xs[i])
		if !ok {
			return Rat64{}, false
		}
		sum, ok = sum.Add(term)
		if !ok {
			return Rat64{}, false
		}
	}
	return sum.Quo(Rat64{v.Den, 1})
}

// IntDotSign returns the sign of Σᵢ Num[i]·w[i] — the sign of the dot
// product of v with the integer vector w scaled by the (positive) common
// denominators, which is all the cone membership/implication tests need.
// ok=false on overflow.
func (v Vec64) IntDotSign(w []int64) (int, bool) {
	if len(v.Num) != len(w) {
		panic("exact: dot length mismatch")
	}
	sum := int64(0)
	for i, a := range v.Num {
		if a == 0 || w[i] == 0 {
			continue
		}
		t, ok := MulInt64(a, w[i])
		if !ok {
			return 0, false
		}
		sum, ok = AddInt64(sum, t)
		if !ok {
			return 0, false
		}
	}
	switch {
	case sum > 0:
		return 1, true
	case sum < 0:
		return -1, true
	}
	return 0, true
}

// NormalizeIntegral scales v to coprime integers (Den 1), the kernel
// counterpart of Vec.NormalizeIntegral: the positive common denominator
// cannot change the integer content of Num, so dividing Num by its GCD is
// exact regardless of Den. Zero vectors normalise to themselves.
func (v Vec64) NormalizeIntegral() Vec64 {
	g := uint64(0)
	for _, n := range v.Num {
		if n != 0 {
			g = GCD64(g, AbsU64(n))
		}
	}
	out := Vec64{Num: make([]int64, len(v.Num)), Den: 1}
	if g == 0 {
		return out
	}
	for i, n := range v.Num {
		if n < 0 {
			out.Num[i] = -int64(AbsU64(n) / g)
		} else {
			out.Num[i] = int64(uint64(n) / g)
		}
	}
	return out
}
