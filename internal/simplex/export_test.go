package simplex

import (
	"math/big"

	"repro/internal/exact"
)

// CheckPointRat exposes the certifier's gcd-free point check, the path of
// candidates whose rounding leaves int64 and of rows whose int64 dot
// overflows.
func (c *Certifier) CheckPointRat(p *Problem, x exact.Vec) bool { return c.checkPointRat(p, x) }

// CheckPointKernel runs the certifier's int64 point check on x, with its
// per-row gcd-free fallback; decided is false when a coordinate does not
// fit a Rat64.
func (c *Certifier) CheckPointKernel(p *Problem, x exact.Vec) (verdict, decided bool) {
	xs := c.scratch(len(x))
	for j, v := range x {
		r, ok := rat64(v)
		if !ok {
			return false, false
		}
		xs[j] = r
	}
	return c.checkPointKernel(p, xs), true
}

// CheckFarkasKernel carries rational multipliers of the constraints onto
// the integer rows (qᵢ·scaleᵢ) and runs the int64 Farkas check; decided
// is false when a multiplier does not fit or the check overflows.
func (c *Certifier) CheckFarkasKernel(p *Problem, ray exact.Vec) (verdict, decided bool) {
	if len(ray) != len(p.Constraints) {
		return false, true
	}
	us := c.scratch(len(ray))
	for i, u := range rowMultipliers(p, ray) {
		r, ok := rat64(u)
		if !ok {
			return false, false
		}
		us[i] = r
	}
	return c.kernelCheckFarkas(p, us)
}

// CheckFarkasRat carries rational multipliers of the constraints onto the
// integer rows, scales them onto integers by the lcm of their
// denominators (which leaves the Farkas conditions unchanged) and runs the
// gcd-free integer Farkas check.
func (c *Certifier) CheckFarkasRat(p *Problem, ray exact.Vec) bool {
	if len(ray) != len(p.Constraints) || len(ray) == 0 {
		return false
	}
	us := rowMultipliers(p, ray)
	lcm := big.NewInt(1)
	for _, u := range us {
		g := new(big.Int).GCD(nil, nil, lcm, u.Denom())
		lcm.Mul(lcm, g.Quo(u.Denom(), g))
	}
	bs := &c.basis
	bs.init()
	bs.q = growIents(bs.q, len(us))
	for i, u := range us {
		q := new(big.Int).Quo(lcm, u.Denom())
		bs.setBig(&bs.q[i], q.Mul(q, u.Num()))
	}
	return bs.checkFarkas(p, bs.q)
}

// rowMultipliers returns the multipliers of p's integer rows equivalent
// to the constraint multipliers ray: uᵢ = rayᵢ·scaleᵢ.
func rowMultipliers(p *Problem, ray exact.Vec) exact.Vec {
	us := make(exact.Vec, len(ray))
	for i := range ray {
		ir := &p.form.rows[i]
		us[i] = new(big.Rat)
		if ir.wide != nil {
			us[i].Set(ir.wide.scale)
		} else {
			us[i].SetFrac64(ir.scale.Num(), ir.scale.Den())
		}
		us[i].Mul(us[i], ray[i])
	}
	return us
}

// rat64 converts r when its numerator and denominator fit int64.
func rat64(r *big.Rat) (exact.Rat64, bool) {
	if !r.Num().IsInt64() || !r.Denom().IsInt64() {
		return exact.Rat64{}, false
	}
	return exact.MakeRat64(r.Num().Int64(), r.Denom().Int64())
}

// Solve solves p through a fresh Workspace and returns its witness.
func Solve(p *Problem) Result {
	return NewWorkspace().Solve(p)
}

// Solve runs SolveStatus's solve and extracts the witness the tests
// compare against the big.Rat reference. Like SolveStatus it never
// mutates the problem.
func (w *Workspace) Solve(p *Problem) Result {
	st := w.run(p)
	if st != Optimal {
		return Result{Status: st}
	}
	// Variable j is column j; non-basic columns are zero. X is built from
	// fresh rationals so the Result survives workspace reuse.
	x := exact.NewVec(p.NumVars)
	kt := &w.kt
	for i, bi := range kt.basis {
		if bi < p.NumVars {
			kt.b[i].rat(x[bi], &kt.delta, kt.t1, kt.t2)
		}
	}
	return Result{Status: Optimal, X: x}
}

// rat writes e's value divided by delta into dst (reduced by SetFrac).
func (e *ient) rat(dst *big.Rat, delta *ient, t1, t2 *big.Int) *big.Rat {
	return dst.SetFrac(e.view(t1), delta.view(t2))
}
