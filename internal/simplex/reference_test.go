package simplex

import (
	"math/big"

	"repro/internal/exact"
)

// checkPointBig is the big.Rat reference of CheckPoint, run on the
// rational view of p's rows.
func checkPointBig(p *Problem, x exact.Vec) bool {
	for _, v := range x {
		if v.Sign() < 0 {
			return false
		}
	}
	for _, con := range p.RatConstraints() {
		if !relHolds(con.Rel, con.Coeffs.Dot(x).Cmp(con.RHS)) {
			return false
		}
	}
	return true
}

// checkFarkasBig is the big.Rat reference of CheckFarkas, run on the
// rational view of p's rows.
func checkFarkasBig(p *Problem, ray exact.Vec) bool {
	if len(ray) != len(p.Constraints) || len(ray) == 0 {
		return false
	}
	if !farkasSigns(p, func(i int) int { return ray[i].Sign() }) {
		return false
	}
	d := exact.NewVec(p.NumVars)
	rhs := new(big.Rat)
	t := new(big.Rat)
	for i, con := range p.RatConstraints() {
		if ray[i].Sign() == 0 {
			continue
		}
		d.AddScaled(ray[i], con.Coeffs)
		t.Mul(ray[i], con.RHS)
		rhs.Add(rhs, t)
	}
	if rhs.Sign() <= 0 {
		return false
	}
	return farkasCombination(p, func(j int) int { return d[j].Sign() })
}
