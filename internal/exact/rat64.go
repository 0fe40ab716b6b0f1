package exact

// The int64 rational kernel. Rat64 is a machine-word rational scalar whose
// every operation is overflow-checked with math/bits: an operation either
// returns the exact reduced result, or reports ok=false, and the caller
// promotes to the big.Rat path. The kernel is therefore never wrong, only
// sometimes slow — the hot loops of the simplex solver, the certificate
// checkers and the double-description method run on Rat64/Vec64 and fall
// back to *big.Rat per element, per row or per ray on the first overflow.
//
// Values flowing through those loops are small by construction: μpath
// counter signatures are small integers, DD rays are GCD-normalised, region
// axes are snapped to a dyadic grid (stats.axisQuantum) and slab bounds to
// the lpQuantum grid, so in practice the overwhelming majority of
// operations complete in int64 (the promotion rate is surfaced through
// core.SolverStats and counterpointd's /stats).

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"strconv"
)

// Rat64 is an exact rational with an int64 numerator and a positive int64
// denominator, kept in lowest terms. Construct values with MakeRat64,
// Rat64FromInt64 or Rat64FromFloat; the zero value of the struct is NOT a
// valid rational (its denominator is zero) — use Rat64FromInt64(0) for
// zero.
type Rat64 struct {
	n int64 // numerator, carries the sign
	d int64 // denominator, always > 0
}

// Num returns the numerator.
func (a Rat64) Num() int64 { return a.n }

// Den returns the (positive) denominator.
func (a Rat64) Den() int64 { return a.d }

// Sign returns -1, 0 or +1.
func (a Rat64) Sign() int {
	switch {
	case a.n > 0:
		return 1
	case a.n < 0:
		return -1
	}
	return 0
}

// IsZero reports whether a is zero.
func (a Rat64) IsZero() bool { return a.n == 0 }

// String renders a as "n/d" (or just "n" for integers).
func (a Rat64) String() string {
	if a.d == 1 {
		return strconv.FormatInt(a.n, 10)
	}
	return strconv.FormatInt(a.n, 10) + "/" + strconv.FormatInt(a.d, 10)
}

// Rat writes a's value into dst (allocating when dst is nil) and returns it.
func (a Rat64) Rat(dst *big.Rat) *big.Rat {
	if dst == nil {
		dst = new(big.Rat)
	}
	return dst.SetFrac64(a.n, a.d)
}

// RatInto writes a into dst without re-normalising: a is already in lowest
// terms with a positive denominator, so the GCD pass of big.Rat.SetFrac64 —
// the dominant cost of materialising kernel values for mixed-representation
// operations — is skipped. It detects (and survives) a zero-value dst,
// whose denominator reference is detached, by falling back to SetFrac64.
func (a Rat64) RatInto(dst *big.Rat) *big.Rat {
	if a.d == 1 {
		return dst.SetInt64(a.n) // no GCD in SetInt64
	}
	den := dst.Denom()
	den.SetInt64(a.d)
	if dst.Denom().Cmp(den) != 0 {
		// dst was an uninitialised big.Rat: Denom() handed out a detached
		// copy and the write above did not stick.
		return dst.SetFrac64(a.n, a.d)
	}
	dst.Num().SetInt64(a.n)
	return dst
}

// GCD64 returns the greatest common divisor of a and b (GCD64(x, 0) = x).
func GCD64(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// AbsU64 returns |x| as a uint64. The conversion is exact even for
// MinInt64, whose magnitude does not fit int64.
func AbsU64(x int64) uint64 {
	if x < 0 {
		return uint64(-x) // two's-complement wrap yields the magnitude
	}
	return uint64(x)
}

// AddInt64 returns a+b, reporting signed overflow. Exported so every
// kernel consumer (simplex, cone) shares one overflow-checked arithmetic
// implementation instead of drifting copies.
func AddInt64(a, b int64) (int64, bool) {
	s := a + b
	if ((a ^ s) & (b ^ s)) < 0 {
		return 0, false
	}
	return s, true
}

// SubInt64 returns a−b, reporting signed overflow.
func SubInt64(a, b int64) (int64, bool) {
	d := a - b
	if ((a ^ b) & (a ^ d)) < 0 {
		return 0, false
	}
	return d, true
}

// MulInt64 returns a·b, reporting overflow. Results of magnitude 2⁶³
// (MinInt64) are conservatively reported as overflow so every kernel value
// stays negatable. Exported for the same single-implementation reason as
// AddInt64.
func MulInt64(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	hi, lo := bits.Mul64(AbsU64(a), AbsU64(b))
	if hi != 0 || lo > math.MaxInt64 {
		return 0, false
	}
	if (a < 0) != (b < 0) {
		return -int64(lo), true
	}
	return int64(lo), true
}

// MakeRat64 returns n/d in lowest terms. ok is false when d is zero or the
// reduced numerator or denominator cannot be represented (magnitude 2⁶³).
func MakeRat64(n, d int64) (Rat64, bool) {
	if d == 0 {
		return Rat64{}, false
	}
	if n == 0 {
		return Rat64{0, 1}, true
	}
	g := GCD64(AbsU64(n), AbsU64(d))
	un, ud := AbsU64(n)/g, AbsU64(d)/g
	if un > math.MaxInt64 || ud > math.MaxInt64 {
		return Rat64{}, false
	}
	num := int64(un)
	if (n < 0) != (d < 0) {
		num = -num
	}
	return Rat64{num, int64(ud)}, true
}

// Rat64FromInt64 returns the integer n as a rational.
func Rat64FromInt64(n int64) Rat64 { return Rat64{n, 1} }

// Rat64FromFloat converts a finite float64 exactly. ok is false for NaN,
// ±Inf, and magnitudes or precisions outside the int64 range (the caller
// falls back to SetRatFromFloat).
func Rat64FromFloat(f float64) (Rat64, bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return Rat64{}, false
	}
	if f == 0 {
		return Rat64{0, 1}, true
	}
	fr, exp := math.Frexp(f) // f = fr·2^exp with |fr| ∈ [0.5, 1)
	m := int64(fr * (1 << 53))
	e := exp - 53
	tz := bits.TrailingZeros64(AbsU64(m))
	m >>= uint(tz)
	e += tz
	switch {
	case e >= 0:
		if e > 62 || AbsU64(m) > uint64(math.MaxInt64)>>uint(e) {
			return Rat64{}, false
		}
		return Rat64{m << uint(e), 1}, true
	case e >= -62:
		// m is odd after the shift, so m / 2^-e is already reduced.
		return Rat64{m, int64(1) << uint(-e)}, true
	}
	return Rat64{}, false
}

// Neg returns -a. ok is false only for numerator MinInt64, which the kernel
// never produces itself.
func (a Rat64) Neg() (Rat64, bool) {
	if a.n == math.MinInt64 {
		return Rat64{}, false
	}
	return Rat64{-a.n, a.d}, true
}

// Inv returns 1/a. ok is false when a is zero or its numerator is MinInt64.
func (a Rat64) Inv() (Rat64, bool) {
	if a.n == 0 || a.n == math.MinInt64 {
		return Rat64{}, false
	}
	if a.n < 0 {
		return Rat64{-a.d, -a.n}, true
	}
	return Rat64{a.d, a.n}, true
}

// Mul returns a·b with cross-GCD reduction before the checked multiply, so
// overflow is reported only when the reduced result itself does not fit.
func (a Rat64) Mul(b Rat64) (Rat64, bool) {
	if a.n == 0 || b.n == 0 {
		return Rat64{0, 1}, true
	}
	g1 := GCD64(AbsU64(a.n), uint64(b.d))
	g2 := GCD64(AbsU64(b.n), uint64(a.d))
	// Divide magnitudes to survive MinInt64 numerators.
	n1 := int64(AbsU64(a.n) / g1)
	n2 := int64(AbsU64(b.n) / g2)
	d1 := a.d / int64(g2)
	d2 := b.d / int64(g1)
	n, ok := MulInt64(n1, n2)
	if !ok {
		return Rat64{}, false
	}
	d, ok := MulInt64(d1, d2)
	if !ok {
		return Rat64{}, false
	}
	if (a.n < 0) != (b.n < 0) {
		n = -n
	}
	return Rat64{n, d}, true
}

// MulInt returns a·n with cross-GCD reduction (the certificate checkers'
// row-entry × multiplier product).
func (a Rat64) MulInt(n int64) (Rat64, bool) {
	if a.n == 0 || n == 0 {
		return Rat64{0, 1}, true
	}
	g := int64(GCD64(AbsU64(n), uint64(a.d)))
	nn, ok := MulInt64(a.n, n/g)
	if !ok {
		return Rat64{}, false
	}
	return Rat64{nn, a.d / g}, true
}

// Quo returns a/b (b non-zero).
func (a Rat64) Quo(b Rat64) (Rat64, bool) {
	inv, ok := b.Inv()
	if !ok {
		return Rat64{}, false
	}
	return a.Mul(inv)
}

// Add returns a+b using Knuth's GCD-aware scheme (TAOCP 4.5.1), which keeps
// intermediates minimal so overflow is reported only when the true reduced
// result is near the int64 boundary.
func (a Rat64) Add(b Rat64) (Rat64, bool) {
	if a.n == 0 {
		return b, true
	}
	if b.n == 0 {
		return a, true
	}
	g := int64(GCD64(uint64(a.d), uint64(b.d)))
	if g == 1 {
		t1, ok := MulInt64(a.n, b.d)
		if !ok {
			return Rat64{}, false
		}
		t2, ok := MulInt64(b.n, a.d)
		if !ok {
			return Rat64{}, false
		}
		n, ok := AddInt64(t1, t2)
		if !ok {
			return Rat64{}, false
		}
		d, ok := MulInt64(a.d, b.d)
		if !ok {
			return Rat64{}, false
		}
		return Rat64{n, d}, true // coprime denominators ⇒ already reduced
	}
	ad, bd := a.d/g, b.d/g
	t1, ok := MulInt64(a.n, bd)
	if !ok {
		return Rat64{}, false
	}
	t2, ok := MulInt64(b.n, ad)
	if !ok {
		return Rat64{}, false
	}
	t, ok := AddInt64(t1, t2)
	if !ok {
		return Rat64{}, false
	}
	if t == 0 {
		return Rat64{0, 1}, true
	}
	g2 := int64(GCD64(AbsU64(t), uint64(g)))
	d, ok := MulInt64(ad, b.d/g2)
	if !ok {
		return Rat64{}, false
	}
	return Rat64{t / g2, d}, true
}

// Sub returns a−b.
func (a Rat64) Sub(b Rat64) (Rat64, bool) {
	nb, ok := b.Neg()
	if !ok {
		return Rat64{}, false
	}
	return a.Add(nb)
}

// Cmp compares a and b exactly. It cannot overflow: the cross products are
// compared in 128 bits.
func (a Rat64) Cmp(b Rat64) int {
	sa, sb := a.Sign(), b.Sign()
	if sa != sb {
		if sa < sb {
			return -1
		}
		return 1
	}
	if sa == 0 {
		return 0
	}
	lh, ll := bits.Mul64(AbsU64(a.n), uint64(b.d))
	rh, rl := bits.Mul64(AbsU64(b.n), uint64(a.d))
	c := 0
	switch {
	case lh != rh:
		if lh > rh {
			c = 1
		} else {
			c = -1
		}
	case ll != rl:
		if ll > rl {
			c = 1
		} else {
			c = -1
		}
	}
	if sa < 0 {
		c = -c
	}
	return c
}

// QuantizeFloat is QuantizeInto for a power-of-two denominator with the
// result as a float64: f rounded outward onto the grid of multiples of
// 1/denom, a value float64 represents exactly. Where |f·denom| < 2⁵³ the
// scaling and rounding are exact in float64; beyond it f·denom is already
// an integer, so f lies on the grid and is its own quantisation. Either
// way the result equals QuantizeInto's. It fails on a non-finite f and
// panics on a denominator that is not a positive power of two.
func QuantizeFloat(f float64, ceil bool, denom int64) (float64, error) {
	if denom <= 0 || denom&(denom-1) != 0 {
		panic(fmt.Sprintf("exact: quantize denominator must be a positive power of two, got %d", denom))
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, fmt.Errorf("exact: cannot quantize non-finite value %v", f)
	}
	scaled := f * float64(denom)
	if math.Abs(scaled) >= 1<<53 {
		return f, nil
	}
	if ceil {
		return math.Ceil(scaled) / float64(denom), nil
	}
	return math.Floor(scaled) / float64(denom), nil
}

// SimplestRat64Within is the int64 fast path of SimplestRatWithin: the
// smallest-denominator rational in [f−tol, f+tol], computed by the same
// continued-fraction walk over Rat64 endpoints. ok=false (non-finite input,
// endpoints outside int64 precision, or overflow during the walk) sends the
// caller to the big.Rat implementation; when ok, the result is identical.
func SimplestRat64Within(f, tol float64) (Rat64, bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return Rat64{}, false
	}
	if tol <= 0 {
		return Rat64FromFloat(f)
	}
	fl, fh := f-tol, f+tol
	if fl <= 0 && fh >= 0 && !math.IsInf(fl, 0) && !math.IsInf(fh, 0) {
		// The interval straddles zero, so 0 is its simplest element. This is
		// decided on the same float endpoints SimplestRatWithin converts, so
		// the answer is identical even when an endpoint's exact value needs
		// a denominator beyond int64 (|f| ≲ tol ≈ 2⁻⁴⁰ for the certifier's
		// point rounding).
		return Rat64{0, 1}, true
	}
	lo, okLo := Rat64FromFloat(fl)
	hi, okHi := Rat64FromFloat(fh)
	if !okLo || !okHi {
		return Rat64{}, false
	}
	return simplestInInterval64(lo, hi)
}

// simplestInInterval64 mirrors simplestInInterval over Rat64, reporting
// ok=false on any overflow so the caller can retry over big.Rat.
func simplestInInterval64(lo, hi Rat64) (Rat64, bool) {
	if lo.Sign() <= 0 && hi.Sign() >= 0 {
		return Rat64{0, 1}, true
	}
	if hi.Sign() < 0 {
		nhi, ok1 := hi.Neg()
		nlo, ok2 := lo.Neg()
		if !ok1 || !ok2 {
			return Rat64{}, false
		}
		r, ok := simplestInInterval64(nhi, nlo)
		if !ok {
			return Rat64{}, false
		}
		return r.Neg()
	}
	// 0 < lo ≤ hi. lo > 0, so truncating division is floor division.
	floor := lo.n / lo.d
	rem := lo.n % lo.d
	ceil := floor
	if rem != 0 {
		var ok bool
		ceil, ok = AddInt64(ceil, 1)
		if !ok {
			return Rat64{}, false
		}
	}
	if Rat64FromInt64(ceil).Cmp(hi) <= 0 {
		return Rat64{ceil, 1}, true
	}
	// Same integer part; recurse on the reciprocal of the fractional parts.
	ar := Rat64FromInt64(floor)
	loF, ok := lo.Sub(ar)
	if !ok {
		return Rat64{}, false
	}
	hiF, ok := hi.Sub(ar)
	if !ok {
		return Rat64{}, false
	}
	loInv, ok1 := hiF.Inv()
	hiInv, ok2 := loF.Inv()
	if !ok1 || !ok2 {
		return Rat64{}, false
	}
	y, ok := simplestInInterval64(loInv, hiInv)
	if !ok {
		return Rat64{}, false
	}
	yInv, ok := y.Inv()
	if !ok {
		return Rat64{}, false
	}
	return ar.Add(yInv)
}
