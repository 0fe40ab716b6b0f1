package simplex

// Exact certificate checking for the two-tier feasibility solver.
//
// The float64 revised simplex in internal/floatlp is fast but inexact: its
// verdicts are treated as *claims*, each backed by a certificate that is
// verified over ℚ. A FEASIBLE claim carries a candidate point, checked
// here by dot products only: it is rounded from float64 onto nearby small
// rationals (exact.SimplestRatWithin and its int64 twin), so candidates
// whose true values are simple rationals survive verification. An
// INFEASIBLE claim carries the filter's final phase-1 basis, whose exact
// dual basis.go recomputes and checks as a Farkas certificate. Anything
// that does not check out exactly is rejected, and the caller falls back
// to the exact solver. Verdicts therefore remain bit-exact by construction
// regardless of floating-point behaviour.
//
// The hot path runs on the int64 kernel: candidate coordinates round
// through exact.SimplestRat64Within, constraint rows come from the
// Problem's integer form (introw.go), and every dot product is an
// overflow-checked exact.Rat64 accumulation. On the first overflow — or a
// row too wide for int64 — a check falls back to big-number arithmetic
// that never reduces a fraction, with identical results (all paths
// compute the same exact rationals): a point is compared row by row as
// Σⱼ aⱼ·nⱼ/dⱼ against b by cross-multiplication, and Farkas multipliers
// are scaled onto integers and combined by basis.go's gcd-free check. A
// Certifier carries the scratch buffers; pool one per worker (the
// engine's evalScratch does).

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

// Certifier verifies float-tier certificates over the int64 kernel,
// holding the rounded-candidate and accumulator scratch — including the
// retained big-number storage of the fallbacks — so a pooled instance
// certifies without allocating. Not safe for concurrent use.
type Certifier struct {
	xs []exact.Rat64 // rounded candidate point / basis-dual multipliers
	d  []exact.Rat64 // Farkas combination accumulator

	bigX exact.Vec // retained big image of the rounded candidate (built on demand)

	// Retained big.Int scratch of the gcd-free row comparison.
	sn, sd, bt1, bt2 *big.Int

	// basis is the scratch of CertifyFarkasBasis's exact basis solve and
	// of the gcd-free Farkas check.
	basis basisSolve

	// lastKernel reports whether the previous certification ran fully on
	// the int64 kernel (telemetry; see tier.Stats).
	lastKernel bool
}

// NewCertifier returns an empty certifier.
func NewCertifier() *Certifier { return &Certifier{} }

// LastKernel reports whether the previous Certify call completed without
// falling back to big-number arithmetic.
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

// bigVec returns the retained big.Rat vector resized to n.
func (c *Certifier) bigVec(n int) exact.Vec {
	for len(c.bigX) < n {
		c.bigX = append(c.bigX, new(big.Rat))
	}
	return c.bigX[:n]
}

// materializeBigX writes xs into the retained big.Rat vector and returns it.
func (c *Certifier) materializeBigX(xs []exact.Rat64) exact.Vec {
	bx := c.bigVec(len(xs))
	for j := range xs {
		xs[j].RatInto(bx[j])
	}
	return bx
}

// rowCmpBig compares Σⱼ aⱼ·xⱼ with the right-hand side b of integer row ir.
// The sum is accumulated gcd-free over big.Int (sn/sd, sd the product of
// the coordinates' denominators) in retained scratch and compared by
// cross-multiplication — no fraction is ever reduced, and the steady state
// does not allocate. x holds reduced rationals; only their numerators and
// denominators are read.
func (c *Certifier) rowCmpBig(ir *intRow, x exact.Vec) int {
	if c.sn == nil {
		c.sn = new(big.Int)
		c.sd = new(big.Int)
		c.bt1 = new(big.Int)
		c.bt2 = new(big.Int)
	}
	c.sn.SetInt64(0)
	c.sd.SetInt64(1)
	n := len(x)
	for j := 0; j < n; j++ {
		if x[j].Sign() == 0 {
			continue
		}
		a := ir.elem(j, c.bt2)
		if a.Sign() == 0 {
			continue
		}
		// sn/sd += a·xn/xd  ⇒  sn = sn·xd + a·xn·sd, sd = sd·xd.
		c.bt1.Mul(a, x[j].Num())
		c.bt1.Mul(c.bt1, c.sd)
		if xd := x[j].Denom(); !xd.IsInt64() || xd.Int64() != 1 {
			c.sn.Mul(c.sn, xd)
			c.sd.Mul(c.sd, xd)
		}
		c.sn.Add(c.sn, c.bt1)
	}
	// sn/sd vs b  ⇔  sn vs b·sd (sd > 0).
	c.bt1.Mul(ir.elem(n, c.bt2), c.sd)
	return c.sn.Cmp(c.bt1)
}

// relHolds reports whether cmp (the sign of lhs − rhs) satisfies rel.
func relHolds(rel Rel, cmp int) bool {
	switch rel {
	case LE:
		return cmp <= 0
	case GE:
		return cmp >= 0
	}
	return cmp == 0
}

// checkPointKernel checks the rounded candidate xs against p: int64 dot
// products on the integer rows, with the gcd-free big.Int comparison for
// rows whose accumulator overflows or that are too wide for int64.
func (c *Certifier) checkPointKernel(p *Problem, xs []exact.Rat64) bool {
	for j := range xs {
		if xs[j].Sign() < 0 {
			return false
		}
	}
	iform := p.intForm()
	var bx exact.Vec
	for i := range p.Constraints {
		ir := &iform.rows[i]
		cmp, ok := 0, false
		if ir.wide == nil {
			n := len(ir.a) - 1
			if dot, fits := (exact.Vec64{Num: ir.a[:n], Den: 1}).DotRat64s(xs); fits {
				cmp, ok = dot.Cmp(exact.Rat64FromInt64(ir.a[n])), true
			}
		}
		if !ok {
			if bx == nil {
				bx = c.materializeBigX(xs)
			}
			c.lastKernel = false
			cmp = c.rowCmpBig(ir, bx)
		}
		if !relHolds(p.Constraints[i].Rel, cmp) {
			return false
		}
	}
	return true
}

// checkPointRat checks a candidate of reduced big rationals against p by
// the gcd-free row comparison alone.
func (c *Certifier) checkPointRat(p *Problem, x exact.Vec) bool {
	for _, v := range x {
		if v.Sign() < 0 {
			return false
		}
	}
	iform := p.intForm()
	for i := range p.Constraints {
		if !relHolds(p.Constraints[i].Rel, c.rowCmpBig(&iform.rows[i], x)) {
			return false
		}
	}
	return true
}

// farkasSigns reports whether every multiplier's sign is admissible for
// its row: qᵢ ≤ 0 on ≤ rows, qᵢ ≥ 0 on ≥ rows (= rows unrestricted).
func farkasSigns(p *Problem, sign func(i int) int) bool {
	for i := range p.Constraints {
		s := sign(i)
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
	return true
}

// kernelCheckFarkas checks multipliers on the integer rows — us[i]
// multiplies the primitive row a, not the constraint — on the int64
// kernel; decided=false sends the caller to the gcd-free check.
func (c *Certifier) kernelCheckFarkas(p *Problem, us []exact.Rat64) (verdict, decided bool) {
	if len(us) != len(p.Constraints) || len(us) == 0 {
		return false, true
	}
	if !farkasSigns(p, func(i int) int { return us[i].Sign() }) {
		return false, true
	}
	iform := p.intForm()
	d := c.accum(p.NumVars)
	rhs := exact.Rat64FromInt64(0)
	for i, u := range us {
		if u.Sign() == 0 {
			continue
		}
		ir := &iform.rows[i]
		if ir.wide != nil {
			return false, false
		}
		n := len(ir.a) - 1
		for j, a := range ir.a[:n] {
			if a == 0 {
				continue
			}
			t, ok := u.MulInt(a)
			if !ok {
				return false, false
			}
			if d[j], ok = d[j].Add(t); !ok {
				return false, false
			}
		}
		t, ok := u.MulInt(ir.a[n])
		if !ok {
			return false, false
		}
		if rhs, ok = rhs.Add(t); !ok {
			return false, false
		}
	}
	if rhs.Sign() <= 0 {
		return false, true
	}
	return farkasCombination(p, func(j int) int { return d[j].Sign() }), true
}

// farkasCombination reports whether the combination d = Σᵢ qᵢ·aᵢ has
// dⱼ ≤ 0 for every variable.
func farkasCombination(p *Problem, sign func(j int) int) bool {
	for j := 0; j < p.NumVars; j++ {
		if sign(j) > 0 {
			return false
		}
	}
	return true
}

// rowMultipliers converts multipliers of the constraints (rq) into
// multipliers of their integer rows in place: uᵢ = rqᵢ·scaleᵢ. ok=false
// on overflow or a wide row with a non-zero multiplier.
func rowMultipliers(p *Problem, rq []exact.Rat64) bool {
	iform := p.intForm()
	for i := range rq {
		if rq[i].Sign() == 0 {
			continue
		}
		ir := &iform.rows[i]
		if ir.wide != nil {
			return false
		}
		u, ok := rq[i].Mul(ir.scale)
		if !ok {
			return false
		}
		rq[i] = u
	}
	return true
}

// CheckPoint reports whether x is an exact feasibility witness for p: it
// has length p.NumVars, is non-negative, and satisfies every constraint
// exactly. Dot products only; p is not mutated. Runs on the int64 kernel
// when x and the constraint rows fit, with the gcd-free big-number
// comparison otherwise.
func CheckPoint(p *Problem, x exact.Vec) bool {
	if len(x) != p.NumVars {
		return false
	}
	var c Certifier
	xs := c.scratch(len(x))
	for j, v := range x {
		r, ok := exact.Rat64FromRat(v)
		if !ok {
			return c.checkPointRat(p, x)
		}
		xs[j] = r
	}
	return c.checkPointKernel(p, xs)
}

// CheckFarkas reports whether ray (one multiplier qᵢ per constraint) is an
// exact Farkas certificate of p's infeasibility:
//
//	qᵢ ≤ 0 for ≤ rows, qᵢ ≥ 0 for ≥ rows (= rows unrestricted),
//	d := Σᵢ qᵢ·aᵢ has dⱼ ≤ 0 for every variable, and Σᵢ qᵢ·bᵢ > 0.
//
// Multiplying each constraint by its qᵢ and summing shows d·x ≥ Σ qᵢbᵢ > 0
// for any x in p's feasible set, while the sign conditions force d·x ≤ 0 —
// a contradiction, so no feasible x exists. Runs on the int64 kernel when
// everything fits, with the gcd-free big-number check otherwise.
func CheckFarkas(p *Problem, ray exact.Vec) bool {
	if len(ray) != len(p.Constraints) || len(ray) == 0 {
		return false
	}
	var c Certifier
	rq := c.scratch(len(ray))
	for i, v := range ray {
		r, ok := exact.Rat64FromRat(v)
		if !ok {
			return c.checkFarkasRat(p, ray)
		}
		rq[i] = r
	}
	if rowMultipliers(p, rq) {
		if verdict, decided := c.kernelCheckFarkas(p, rq); decided {
			return verdict
		}
	}
	return c.checkFarkasRat(p, ray)
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
	for j, v := range x {
		v = pointCoord(v)
		r, ok := exact.SimplestRat64Within(v, pointRoundTol*(1+math.Abs(v)))
		if !ok {
			return c.certifyPointBig(p, x, j)
		}
		xs[j] = r
	}
	c.lastKernel = true // checkPointKernel clears it on a row fallback
	return c.checkPointKernel(p, xs)
}

// pointCoord is the candidate coordinate the rounding starts from: float
// vertices sit on x ≥ 0 bounds up to round-off, so a tiny negative is the
// solver's zero.
func pointCoord(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

// certifyPointBig finishes CertifyPoint once coordinate from failed the
// int64 rounding: coordinates before it keep their int64 roundings, the
// rest round through SimplestRatWithin (the int64 rounding is its
// verified twin, so the point is identical), and every row is checked by
// the gcd-free comparison.
func (c *Certifier) certifyPointBig(p *Problem, x []float64, from int) bool {
	bx := c.bigVec(len(x))
	for j := range x {
		if j < from {
			c.xs[j].RatInto(bx[j])
			continue
		}
		v := pointCoord(x[j])
		if r, ok := exact.SimplestRat64Within(v, pointRoundTol*(1+math.Abs(v))); ok {
			r.RatInto(bx[j])
			continue
		}
		r, err := exact.SimplestRatWithin(v, pointRoundTol*(1+math.Abs(v)))
		if err != nil {
			return false
		}
		bx[j].Set(r)
	}
	return c.checkPointRat(p, bx)
}

// CertifyFarkas declines every ray.
//
// Deprecated: infeasibility claims are certified by CertifyFarkasBasis,
// the exact dual of the float filter's phase-1 basis, which certified
// every claim the rounded ray did. The method remains only because the
// bench module (bench/trace.go) still calls it.
func (c *Certifier) CertifyFarkas(*Problem, []float64) bool {
	c.lastKernel = false
	return false
}

// CertifyPoint is the pooled-scratch-free convenience form of
// Certifier.CertifyPoint; hot paths hold a Certifier instead.
func CertifyPoint(p *Problem, x []float64) bool {
	var c Certifier
	return c.CertifyPoint(p, x)
}
