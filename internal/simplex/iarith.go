package simplex

// iarith is the shared arithmetic core of the fraction-free integer
// tableaux: the common denominator Δ, the promotion counter, the big.Int
// scratch registers and every elementary operation on adaptive ient
// elements. Both the primal kernel tableau (ktab) and the warm-start dual
// solver (WarmSolver) embed one, so the overflow-checked fast paths and
// their exact-division asserts exist exactly once.

import (
	"math"
	"math/big"

	"repro/internal/exact"
)

type iarith struct {
	delta ient // Δ, the previous pivot element; always > 0

	// promotions counts element promotions (small operands whose exact
	// result left the int64 range) in the current solve.
	promotions uint64

	t1, t2, t3, t4 *big.Int // scratch for mixed-representation operations
	quo, rem       *big.Int // retained quotient and remainder of exact divisions
}

func (k *iarith) initScratch() {
	if k.t1 == nil {
		k.t1 = new(big.Int)
		k.t2 = new(big.Int)
		k.t3 = new(big.Int)
		k.t4 = new(big.Int)
		k.quo = new(big.Int)
		k.rem = new(big.Int)
	}
}

// settle stores the value of dst.b into dst, demoting to the int64
// representation when it fits.
func (k *iarith) settle(dst *ient) {
	if dst.b.IsInt64() {
		dst.v = dst.b.Int64()
		dst.wide = false
		return
	}
	dst.wide = true
}

func (k *iarith) ensureBig(dst *ient) *big.Int {
	if dst.b == nil {
		dst.b = new(big.Int)
	}
	return dst.b
}

// set copies src's value into dst.
func (k *iarith) set(dst, src *ient) {
	if !src.wide {
		dst.v = src.v
		dst.wide = false
		return
	}
	k.ensureBig(dst).Set(src.b)
	dst.wide = true
}

// setBig stores an arbitrary big.Int value.
func (k *iarith) setBig(dst *ient, v *big.Int) {
	if v.IsInt64() {
		dst.v = v.Int64()
		dst.wide = false
		return
	}
	k.ensureBig(dst).Set(v)
	dst.wide = true
}

// neg sets dst = −dst.
func (k *iarith) neg(dst *ient) {
	if !dst.wide {
		if dst.v != math.MinInt64 {
			dst.v = -dst.v
			return
		}
		k.promotions++
		k.ensureBig(dst).SetInt64(dst.v)
		dst.wide = true
	}
	dst.b.Neg(dst.b)
	k.settle(dst)
}

// pivotUpdate sets dst = (x·p − y·z)/Δ, the fraction-free rank-one update.
// The division is exact by construction (Edmonds); the int64 path asserts
// it, so a bookkeeping bug can never silently corrupt a verdict. dst may
// alias any operand.
func (k *iarith) pivotUpdate(dst, x, p, y, z *ient) {
	if !x.wide && !p.wide && !y.wide && !z.wide && !k.delta.wide {
		m1, ok1 := exact.MulInt64(x.v, p.v)
		m2, ok2 := exact.MulInt64(y.v, z.v)
		if ok1 && ok2 {
			d, ok := exact.SubInt64(m1, m2)
			if ok {
				q, rem := d/k.delta.v, d%k.delta.v
				if rem != 0 {
					panic("simplex: fraction-free pivot division not exact")
				}
				dst.v = q
				dst.wide = false
				return
			}
		}
		k.promotions++
	}
	m1 := k.t1.Mul(x.view(k.t1), p.view(k.t2))
	m2 := k.t3.Mul(y.view(k.t3), z.view(k.t4))
	m1.Sub(m1, m2)
	k.setBig(dst, k.divExact(m1, k.delta.view(k.t2)))
}

// scaleUpdate sets dst = dst·p/Δ — the degenerate rank-one update for rows
// whose pivot-column entry is zero, which must still move onto the new
// common denominator.
func (k *iarith) scaleUpdate(dst, p *ient) {
	if !dst.wide && !p.wide && !k.delta.wide {
		m, ok := exact.MulInt64(dst.v, p.v)
		if ok {
			q, rem := m/k.delta.v, m%k.delta.v
			if rem != 0 {
				panic("simplex: fraction-free pivot division not exact")
			}
			dst.v = q
			dst.wide = false
			return
		}
		k.promotions++
	}
	m := k.t1.Mul(dst.view(k.t1), p.view(k.t2))
	k.setBig(dst, k.divExact(m, k.delta.view(k.t2)))
}

// divExact returns x/d for a division known to be exact, in the retained
// quotient register (valid until the next divExact). It panics on a
// non-zero remainder, like the int64 paths: a bookkeeping bug must never
// silently corrupt a verdict.
func (k *iarith) divExact(x, d *big.Int) *big.Int {
	k.quo.QuoRem(x, d, k.rem)
	if k.rem.Sign() != 0 {
		panic("simplex: fraction-free pivot division not exact")
	}
	return k.quo
}

// quoExact sets dst = dst/d for a division known to be exact.
func (k *iarith) quoExact(dst *ient, d *big.Int) {
	k.setBig(dst, k.divExact(dst.view(k.t1), d))
}

// mulAcc adds x·y into the big.Int accumulator acc.
func (k *iarith) mulAcc(acc *big.Int, x, y *ient) {
	k.t1.Mul(x.view(k.t1), y.view(k.t2))
	acc.Add(acc, k.t1)
}

// mulSetInt sets dst = x·m for an int64 multiplier.
func (k *iarith) mulSetInt(dst, x *ient, m int64) {
	if !x.wide {
		if v, ok := exact.MulInt64(x.v, m); ok {
			dst.v = v
			dst.wide = false
			return
		}
		k.promotions++
	}
	k.t1.SetInt64(m)
	k.t1.Mul(x.view(k.t2), k.t1)
	k.setBig(dst, k.t1)
}

// addMulInt adds x·m into dst for an int64 multiplier. dst may alias x.
func (k *iarith) addMulInt(dst, x *ient, m int64) {
	if !dst.wide && !x.wide {
		if p, ok := exact.MulInt64(x.v, m); ok {
			if s, ok2 := exact.AddInt64(dst.v, p); ok2 {
				dst.v = s
				dst.wide = false
				return
			}
		}
		k.promotions++
	}
	k.t1.SetInt64(m)
	k.t1.Mul(x.view(k.t2), k.t1)
	k.t3.Add(dst.view(k.t4), k.t1)
	k.setBig(dst, k.t3)
}

// cmpProducts compares a·b with c·d exactly (the cross-multiplied
// minimum-ratio test; all ratio denominators are positive).
func (k *iarith) cmpProducts(a, b, c, d *ient) int {
	if !a.wide && !b.wide && !c.wide && !d.wide {
		if cmp, ok := cmpMulInt64(a.v, b.v, c.v, d.v); ok {
			return cmp
		}
	}
	k.t1.Mul(a.view(k.t1), b.view(k.t2))
	k.t3.Mul(c.view(k.t3), d.view(k.t4))
	return k.t1.Cmp(k.t3)
}
