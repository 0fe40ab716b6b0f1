package exact

// Vec64 is the dense-vector side of the int64 rational kernel: a vector of
// rationals in common-denominator form. Together with Rat64 it carries the
// hot loops of the simplex certifiers (constraint-row dot products), the
// double-description method (GCD-normalised integer rays) and the LP row
// materialisation in internal/core.

import (
	"math/big"
	"strconv"
	"strings"
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

// At returns component i in lowest terms. It panics on a vector outside
// the documented domain (Den ≤ 0, or a MinInt64 entry that reduction
// cannot shrink below magnitude 2⁶³).
func (v Vec64) At(i int) Rat64 {
	r, ok := MakeRat64(v.Num[i], v.Den)
	if !ok {
		panic("exact: invalid Vec64")
	}
	return r
}

// Clone returns a deep copy.
func (v Vec64) Clone() Vec64 {
	num := make([]int64, len(v.Num))
	copy(num, v.Num)
	return Vec64{Num: num, Den: v.Den}
}

// IsZero reports whether every component is zero.
func (v Vec64) IsZero() bool {
	for _, n := range v.Num {
		if n != 0 {
			return false
		}
	}
	return true
}

// Vec materialises v as a big.Rat vector.
func (v Vec64) Vec() Vec {
	out := make(Vec, len(v.Num))
	for i, n := range v.Num {
		out[i] = new(big.Rat).SetFrac64(n, v.Den)
	}
	return out
}

// Dot returns the inner product v·w as a reduced rational. ok is false on
// int64 overflow anywhere in the accumulation.
func (v Vec64) Dot(w Vec64) (Rat64, bool) {
	if len(v.Num) != len(w.Num) {
		panic("exact: dot length mismatch")
	}
	sum := int64(0)
	for i, a := range v.Num {
		b := w.Num[i]
		if a == 0 || b == 0 {
			continue
		}
		t, ok := MulInt64(a, b)
		if !ok {
			return Rat64{}, false
		}
		sum, ok = AddInt64(sum, t)
		if !ok {
			return Rat64{}, false
		}
	}
	den, ok := MulInt64(v.Den, w.Den)
	if !ok {
		return Rat64{}, false
	}
	return MakeRat64(sum, den)
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

// Key returns the canonical deduplication key. For normalised integral
// vectors it matches Vec.Key() on the same values, so int64 and big.Rat
// rays deduplicate against each other.
func (v Vec64) Key() string {
	var sb strings.Builder
	for i, n := range v.Num {
		if i > 0 {
			sb.WriteByte('|')
		}
		if v.Den == 1 {
			sb.WriteString(strconv.FormatInt(n, 10))
		} else {
			r, ok := MakeRat64(n, v.Den)
			if !ok {
				panic("exact: invalid Vec64")
			}
			sb.WriteString(r.String())
		}
	}
	return sb.String()
}
