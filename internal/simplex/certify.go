package simplex

// Exact certificate checking for the two-tier feasibility solver.
//
// The float64 revised simplex in internal/floatlp is fast but inexact: its
// verdicts are treated as *claims*, each backed by a certificate that this
// file verifies over ℚ using dot products only — no pivoting, no
// elimination. A FEASIBLE claim carries a candidate point, an INFEASIBLE
// claim a Farkas dual ray. Certificates are rounded from float64 onto
// nearby small rationals (exact.SimplestRatWithin and its int64 twin)
// before checking, so candidates whose true values are simple rationals
// survive verification; anything that does not check out exactly is
// rejected, and the caller falls back to the exact solver. Verdicts
// therefore remain bit-exact by construction regardless of floating-point
// behaviour.
//
// The hot path runs on the int64 kernel: candidate coordinates round
// through exact.SimplestRat64Within, constraint rows come from the
// Problem's cached Vec64 snapshot (intForm), and every dot product is an
// overflow-checked exact.Rat64 accumulation. On the first overflow — or a
// row whose coefficients do not fit int64 — the certification falls back
// to big-number arithmetic wholesale, with identical results (all paths
// compute the same exact rationals): the big.Rat implementation for
// points, and for Farkas multipliers the gcd-free big.Int check of
// basis.go, which keeps big.Rat (checkFarkasBig) for rows outside the
// int64 snapshot. A Certifier carries the scratch buffers; pool one per
// worker (the engine's evalScratch does). basis.go also adds a third
// certificate: the exact dual of the float filter's final phase-1 basis.

import (
	"math"
	"math/big"

	"repro/internal/exact"
)

// pointRoundTol is the relative rounding tolerance applied to candidate
// feasible points: each coordinate is snapped to the simplest rational
// within 2⁻⁴⁰·(1+|xⱼ|). The float filter solves a tightened problem whose
// margin dwarfs this perturbation, so rounding does not push a genuinely
// interior point across a constraint.
var pointRoundTol = math.Ldexp(1, -40)

// farkasRoundTol is the relative rounding tolerance for Farkas multipliers
// (after normalising the ray to unit max-magnitude). It is looser than the
// point tolerance: the ray's exact counterpart often has small rational
// entries (sparse combinations of few rows), and a wider interval lets the
// continued-fraction rounding find them through the float solve's error.
const farkasRoundTol = 1e-9

// farkasSnapTol is the threshold, relative to the largest multiplier, below
// which a ray entry is snapped to zero before rounding.
const farkasSnapTol = 1e-9

// Certifier verifies float-tier certificates over the int64 kernel,
// holding the rounded-candidate and accumulator scratch — including the
// retained big.Rat storage of the per-row fallback — so a pooled instance
// certifies without allocating. Not safe for concurrent use.
type Certifier struct {
	xs []exact.Rat64 // rounded candidate point / ray multipliers
	d  []exact.Rat64 // Farkas combination accumulator

	bigX     exact.Vec // retained big.Rat image of xs (built on demand)
	bsum, bt *big.Rat  // retained dot-product scratch

	// Retained big.Int scratch of the gcd-free row comparison (the
	// second-tier fallback for int64 rows whose dot accumulator overflows).
	sn, sd, bt1, bt2 *big.Int

	// basis is the scratch of CertifyFarkasBasis's exact basis solve.
	basis basisSolve

	// lastKernel reports whether the previous certification ran fully on
	// the int64 kernel (telemetry; see core.SolverStats).
	lastKernel bool
}

// NewCertifier returns an empty certifier.
func NewCertifier() *Certifier { return &Certifier{} }

// LastKernel reports whether the previous Certify call completed without
// falling back to big.Rat arithmetic.
func (c *Certifier) LastKernel() bool { return c.lastKernel }

func (c *Certifier) scratch(n int) []exact.Rat64 {
	if cap(c.xs) < n {
		c.xs = make([]exact.Rat64, n)
	}
	c.xs = c.xs[:n]
	return c.xs
}

func (c *Certifier) accum(n int) []exact.Rat64 {
	if cap(c.d) < n {
		c.d = make([]exact.Rat64, n)
	}
	c.d = c.d[:n]
	zero := exact.Rat64FromInt64(0)
	for i := range c.d {
		c.d[i] = zero
	}
	return c.d
}

// materializeBigX writes xs into the retained big.Rat vector and returns it.
func (c *Certifier) materializeBigX(xs []exact.Rat64) exact.Vec {
	for len(c.bigX) < len(xs) {
		c.bigX = append(c.bigX, new(big.Rat))
	}
	bx := c.bigX[:len(xs)]
	for j := range xs {
		xs[j].RatInto(bx[j])
	}
	return bx
}

// rowCmpBig compares (Σⱼ Numⱼ·xsⱼ)/Den with the row's right-hand side for
// an int64 row whose dot overflowed the Rat64 accumulator. The sum is
// accumulated gcd-free over big.Int (sn/sd with sd = product of the
// multipliers' denominators) in retained scratch, and the comparison
// cross-multiplies — no big.Rat normalisation, no steady-state allocation.
func (c *Certifier) rowCmpBig(ir *intRow, xs []exact.Rat64) int {
	if c.sn == nil {
		c.sn = new(big.Int)
		c.sd = new(big.Int)
		c.bt1 = new(big.Int)
		c.bt2 = new(big.Int)
	}
	c.sn.SetInt64(0)
	c.sd.SetInt64(1)
	for j, num := range ir.coeffs.Num {
		x := xs[j]
		if num == 0 || x.Num() == 0 {
			continue
		}
		// sn/sd += num·x  ⇒  sn = sn·xd + num·xn·sd, sd = sd·xd.
		c.bt1.SetInt64(num)
		c.bt2.SetInt64(x.Num())
		c.bt1.Mul(c.bt1, c.bt2)
		c.bt1.Mul(c.bt1, c.sd)
		c.bt2.SetInt64(x.Den())
		c.sn.Mul(c.sn, c.bt2)
		c.sn.Add(c.sn, c.bt1)
		c.sd.Mul(c.sd, c.bt2)
	}
	// sn/(sd·Den) vs rhsN/rhsD  ⇔  sn·rhsD vs rhsN·sd·Den (denominators
	// positive throughout).
	c.bt1.SetInt64(ir.coeffs.Den)
	c.bt1.Mul(c.bt1, c.sd)
	c.bt2.SetInt64(ir.rhs.Num())
	c.bt1.Mul(c.bt1, c.bt2)
	c.bt2.SetInt64(ir.rhs.Den())
	c.bt2.Mul(c.bt2, c.sn)
	return c.bt2.Cmp(c.bt1)
}

// bigDot computes coeffs·x into the retained scratch and returns it.
func (c *Certifier) bigDot(coeffs, x exact.Vec) *big.Rat {
	if c.bsum == nil {
		c.bsum = new(big.Rat)
		c.bt = new(big.Rat)
	}
	c.bsum.SetInt64(0)
	for i := range coeffs {
		if coeffs[i].Sign() == 0 || x[i].Sign() == 0 {
			continue
		}
		c.bt.Mul(coeffs[i], x[i])
		c.bsum.Add(c.bsum, c.bt)
	}
	return c.bsum
}

// checkPointKernel checks the rounded candidate xs against p: int64 dot
// products on the intForm rows, with a per-row big.Rat fallback (retained
// scratch, identical exact values) for rows too wide for the kernel.
func (c *Certifier) checkPointKernel(p *Problem, xs []exact.Rat64) bool {
	for j := range xs {
		if (p.Free == nil || !p.Free[j]) && xs[j].Sign() < 0 {
			return false
		}
	}
	iform := p.intForm()
	var bx exact.Vec
	for i := range p.Constraints {
		ir := &iform.rows[i]
		var cmp int
		switch {
		case ir.ok:
			if dot, ok := ir.coeffs.DotRat64s(xs); ok {
				cmp = dot.Cmp(ir.rhs)
			} else {
				// int64 row, overflowing accumulator: gcd-free big.Int
				// comparison in retained scratch.
				c.lastKernel = false
				cmp = c.rowCmpBig(ir, xs)
			}
		default:
			if bx == nil {
				bx = c.materializeBigX(xs)
			}
			c.lastKernel = false
			con := &p.Constraints[i]
			cmp = c.bigDot(con.Coeffs, bx).Cmp(con.RHS)
		}
		switch p.Constraints[i].Rel {
		case LE:
			if cmp > 0 {
				return false
			}
		case GE:
			if cmp < 0 {
				return false
			}
		case EQ:
			if cmp != 0 {
				return false
			}
		}
	}
	return true
}

// kernelCheckFarkas checks the rounded multipliers rq against p on the
// int64 kernel; decided=false sends the caller to the big.Rat path.
func (c *Certifier) kernelCheckFarkas(p *Problem, rq []exact.Rat64) (verdict, decided bool) {
	if len(rq) != len(p.Constraints) || len(rq) == 0 {
		return false, true
	}
	for i := range p.Constraints {
		s := rq[i].Sign()
		switch p.Constraints[i].Rel {
		case LE:
			if s > 0 {
				return false, true
			}
		case GE:
			if s < 0 {
				return false, true
			}
		}
	}
	iform := p.intForm()
	d := c.accum(p.NumVars)
	rhs := exact.Rat64FromInt64(0)
	for i := range p.Constraints {
		if rq[i].Sign() == 0 {
			continue
		}
		ir := &iform.rows[i]
		if !ir.ok {
			return false, false
		}
		qd, ok := rq[i].Quo(exact.Rat64FromInt64(ir.coeffs.Den))
		if !ok {
			return false, false
		}
		for j, num := range ir.coeffs.Num {
			if num == 0 {
				continue
			}
			t, ok := qd.MulInt(num)
			if !ok {
				return false, false
			}
			d[j], ok = d[j].Add(t)
			if !ok {
				return false, false
			}
		}
		t, ok := rq[i].Mul(ir.rhs)
		if !ok {
			return false, false
		}
		rhs, ok = rhs.Add(t)
		if !ok {
			return false, false
		}
	}
	if rhs.Sign() <= 0 {
		return false, true
	}
	for j := range d {
		if p.Free != nil && p.Free[j] {
			if d[j].Sign() != 0 {
				return false, true
			}
		} else if d[j].Sign() > 0 {
			return false, true
		}
	}
	return true, true
}

// CheckPoint reports whether x is an exact feasibility witness for p: it
// has length p.NumVars, respects the non-negativity of every non-free
// variable, and satisfies every constraint exactly. Dot products only; p
// is not mutated. Runs on the int64 kernel when x and the constraint rows
// fit, with a bit-identical big.Rat fallback otherwise.
func CheckPoint(p *Problem, x exact.Vec) bool {
	if len(x) != p.NumVars {
		return false
	}
	var c Certifier
	xs := c.scratch(len(x))
	for j, v := range x {
		r, ok := exact.Rat64FromRat(v)
		if !ok {
			return checkPointBig(p, x)
		}
		xs[j] = r
	}
	return c.checkPointKernel(p, xs)
}

// checkPointBig is the big.Rat reference implementation of CheckPoint.
func checkPointBig(p *Problem, x exact.Vec) bool {
	for j, v := range x {
		if (p.Free == nil || !p.Free[j]) && v.Sign() < 0 {
			return false
		}
	}
	for i := range p.Constraints {
		con := &p.Constraints[i]
		dot := con.Coeffs.Dot(x)
		switch con.Rel {
		case LE:
			if dot.Cmp(con.RHS) > 0 {
				return false
			}
		case GE:
			if dot.Cmp(con.RHS) < 0 {
				return false
			}
		case EQ:
			if dot.Cmp(con.RHS) != 0 {
				return false
			}
		}
	}
	return true
}

// CheckFarkas reports whether ray (one multiplier qᵢ per constraint) is an
// exact Farkas certificate of p's infeasibility:
//
//	qᵢ ≤ 0 for ≤ rows, qᵢ ≥ 0 for ≥ rows (= rows unrestricted),
//	d := Σᵢ qᵢ·aᵢ has dⱼ ≤ 0 for every non-free variable and dⱼ = 0
//	for every free variable, and Σᵢ qᵢ·bᵢ > 0.
//
// Multiplying each constraint by its qᵢ and summing shows d·x ≥ Σ qᵢbᵢ > 0
// for any x in p's feasible set, while the sign conditions force d·x ≤ 0 —
// a contradiction, so no feasible x exists. Runs on the int64 kernel when
// everything fits, with a bit-identical big.Rat fallback.
func CheckFarkas(p *Problem, ray exact.Vec) bool {
	if len(ray) != len(p.Constraints) || len(ray) == 0 {
		return false
	}
	var c Certifier
	rq := c.scratch(len(ray))
	fits := true
	for i, v := range ray {
		r, ok := exact.Rat64FromRat(v)
		if !ok {
			fits = false
			break
		}
		rq[i] = r
	}
	if fits {
		if verdict, decided := c.kernelCheckFarkas(p, rq); decided {
			return verdict
		}
	}
	return checkFarkasBig(p, ray)
}

// checkFarkasBig is the big.Rat reference implementation of CheckFarkas.
func checkFarkasBig(p *Problem, ray exact.Vec) bool {
	if len(ray) != len(p.Constraints) || len(ray) == 0 {
		return false
	}
	for i := range p.Constraints {
		s := ray[i].Sign()
		switch p.Constraints[i].Rel {
		case LE:
			if s > 0 {
				return false
			}
		case GE:
			if s < 0 {
				return false
			}
		}
	}
	d := exact.NewVec(p.NumVars)
	rhs := new(big.Rat)
	t := new(big.Rat)
	for i := range p.Constraints {
		if ray[i].Sign() == 0 {
			continue
		}
		con := &p.Constraints[i]
		d.AddScaled(ray[i], con.Coeffs)
		t.Mul(ray[i], con.RHS)
		rhs.Add(rhs, t)
	}
	if rhs.Sign() <= 0 {
		return false
	}
	for j, v := range d {
		if p.Free != nil && p.Free[j] {
			if v.Sign() != 0 {
				return false
			}
		} else if v.Sign() > 0 {
			return false
		}
	}
	return true
}

// CertifyPoint rounds a float64 candidate point onto nearby rationals and
// checks it exactly against p. It returns ok=false (never a wrong verdict)
// when the rounded point fails any constraint — the caller's cue to fall
// back to the exact solver.
func (c *Certifier) CertifyPoint(p *Problem, x []float64) bool {
	c.lastKernel = false
	if len(x) != p.NumVars {
		return false
	}
	xs := c.scratch(len(x))
	fits := true
	for j, v := range x {
		if v < 0 && (p.Free == nil || !p.Free[j]) {
			// Float vertices sit on x ≥ 0 bounds up to round-off; a tiny
			// negative is the solver's zero.
			v = 0
		}
		r, ok := exact.SimplestRat64Within(v, pointRoundTol*(1+math.Abs(v)))
		if !ok {
			fits = false
			break
		}
		xs[j] = r
	}
	if fits {
		c.lastKernel = true // checkPointKernel clears it on a row fallback
		return c.checkPointKernel(p, xs)
	}
	return certifyPointBig(p, x)
}

// certifyPointBig is the big.Rat path: identical rounding (the int64
// rounding is a verified twin of SimplestRatWithin) and reference checks.
func certifyPointBig(p *Problem, x []float64) bool {
	rx := make(exact.Vec, len(x))
	for j, v := range x {
		if v < 0 && (p.Free == nil || !p.Free[j]) {
			v = 0
		}
		r, err := exact.SimplestRatWithin(v, pointRoundTol*(1+math.Abs(v)))
		if err != nil {
			return false
		}
		rx[j] = r
	}
	return checkPointBig(p, rx)
}

// CertifyFarkas normalises and rounds a float64 Farkas ray, then checks it
// exactly against p. Entries tiny relative to the largest multiplier, or
// carrying the wrong sign for their row, are snapped to zero first (both
// are float noise; zero multipliers are always sign-admissible).
func (c *Certifier) CertifyFarkas(p *Problem, ray []float64) bool {
	c.lastKernel = false
	if len(ray) != len(p.Constraints) {
		return false
	}
	scale := 0.0
	for _, q := range ray {
		if a := math.Abs(q); a > scale {
			scale = a
		}
	}
	if scale == 0 || math.IsNaN(scale) || math.IsInf(scale, 0) {
		return false
	}
	rq := c.scratch(len(ray))
	fits := true
	for i, q := range ray {
		q = snapFarkasEntry(p, i, q/scale)
		r, ok := exact.SimplestRat64Within(q, farkasRoundTol*(1+math.Abs(q)))
		if !ok {
			fits = false
			break
		}
		rq[i] = r
	}
	if fits {
		if verdict, decided := c.kernelCheckFarkas(p, rq); decided {
			c.lastKernel = true
			return verdict
		}
		return c.checkFarkasRat(p, c.materializeBigX(rq))
	}
	return c.certifyFarkasBig(p, ray, scale)
}

// snapFarkasEntry applies the float-noise snapping shared by both paths.
func snapFarkasEntry(p *Problem, i int, q float64) float64 {
	if math.Abs(q) < farkasSnapTol {
		return 0
	}
	switch p.Constraints[i].Rel {
	case LE:
		if q > 0 {
			return 0
		}
	case GE:
		if q < 0 {
			return 0
		}
	}
	return q
}

// certifyFarkasBig is the big.Rat path of CertifyFarkas.
func (c *Certifier) certifyFarkasBig(p *Problem, ray []float64, scale float64) bool {
	rq := make(exact.Vec, len(ray))
	for i, q := range ray {
		q = snapFarkasEntry(p, i, q/scale)
		r, err := exact.SimplestRatWithin(q, farkasRoundTol*(1+math.Abs(q)))
		if err != nil {
			return false
		}
		rq[i] = r
	}
	return c.checkFarkasRat(p, rq)
}

// CertifyPoints certifies a batch of candidate feasible points against p
// in order, sharing the certifier's rounding scratch and p's cached
// kernel snapshot across the whole batch, and returns the index of the
// first candidate that verifies exactly, or −1 when none does. A
// warm-started walk yields several nearby candidates per basis (the
// previous region's witness often still lies inside the next region's
// box); batching the checks runs the snapshot lookup and scratch sizing
// once instead of per candidate and stops at the first success.
func (c *Certifier) CertifyPoints(p *Problem, xs [][]float64) int {
	for i, x := range xs {
		if c.CertifyPoint(p, x) {
			return i
		}
	}
	return -1
}

// CertifyPoint is the pooled-scratch-free convenience form of
// Certifier.CertifyPoint; hot paths hold a Certifier instead.
func CertifyPoint(p *Problem, x []float64) bool {
	var c Certifier
	return c.CertifyPoint(p, x)
}

// CertifyFarkas is the pooled-scratch-free convenience form of
// Certifier.CertifyFarkas; hot paths hold a Certifier instead.
func CertifyFarkas(p *Problem, ray []float64) bool {
	var c Certifier
	return c.CertifyFarkas(p, ray)
}
