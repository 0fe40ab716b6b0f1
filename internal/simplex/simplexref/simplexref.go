// Package simplexref is the big.Rat reference of package simplex, for
// tests only: a phase-1 Bland tableau whose every element is a reduced
// big.Rat, and plain big.Rat checkers of feasibility witnesses and Farkas
// certificates. Nothing in it is fast; it is written to be obviously
// right, so the int64 kernel tableau, the certificate checkers and the
// float filter can be pinned against it.
//
// Solve builds the same standard form as simplex.Workspace (variable j is
// column j, then one slack per inequality row and one artificial per row
// the crash basis cannot seed with its slack), prices with the same
// Bland rule and breaks ratio ties the same way, so its witnesses equal
// the kernel's bit for bit.
package simplexref

import (
	"math/big"

	"repro/internal/exact"
	"repro/internal/simplex"
)

// tableau is the standard-form working representation:
// minimise c·y subject to A·y = b, y ≥ 0, b ≥ 0.
type tableau struct {
	a     []exact.Vec // m rows, each of width n
	b     exact.Vec   // m
	c     exact.Vec   // n (phase-1 costs: 1 on artificials)
	basis []int       // m basic variable indices
	n, m  int
}

// Solve decides p on the big.Rat tableau. X, set when the status is
// simplex.Optimal, is the basic solution phase 1 ended on.
func Solve(p *simplex.Problem) simplex.Result {
	cons := p.RatConstraints()
	n, m := p.NumVars, len(cons)
	slackCol := make([]int, m)
	for i, con := range cons {
		slackCol[i] = -1
		if con.Rel != simplex.EQ {
			slackCol[i] = n
			n++
		}
	}
	// A row whose slack carries +1 after sign normalisation (LE with
	// RHS ≥ 0, or GE with RHS < 0) seeds the basis with its slack: the
	// crash basis. Every other row gets an artificial.
	artCol := make([]int, m)
	nArt := 0
	for i, con := range cons {
		negated := con.RHS.Sign() < 0
		if (con.Rel == simplex.LE && !negated) || (con.Rel == simplex.GE && negated) {
			artCol[i] = -1
		} else {
			artCol[i] = n + nArt
			nArt++
		}
	}

	t := &tableau{n: n + nArt, m: m, a: make([]exact.Vec, m), b: exact.NewVec(m), basis: make([]int, m)}
	for i, con := range cons {
		row := exact.NewVec(t.n)
		for j, c := range con.Coeffs {
			row[j].Set(c)
		}
		rhs := t.b[i].Set(con.RHS)
		switch con.Rel {
		case simplex.LE:
			row[slackCol[i]].SetInt64(1)
		case simplex.GE:
			row[slackCol[i]].SetInt64(-1)
		}
		if rhs.Sign() < 0 {
			for j := range row {
				row[j].Neg(row[j])
			}
			rhs.Neg(rhs)
		}
		t.a[i] = row
		if artCol[i] >= 0 {
			row[artCol[i]].SetInt64(1)
			t.basis[i] = artCol[i]
		} else {
			t.basis[i] = slackCol[i]
		}
	}

	// Phase 1: minimise the sum of artificials (skipped when the crash
	// basis is already feasible). Artificials left basic at zero stay: the
	// basic solution is already the witness.
	if nArt > 0 {
		t.c = exact.NewVec(t.n)
		for i := range cons {
			if artCol[i] >= 0 {
				t.c[artCol[i]].SetInt64(1)
			}
		}
		t.optimize()
		if t.objectiveValue().Sign() > 0 {
			return simplex.Result{Status: simplex.Infeasible}
		}
	}
	x := exact.NewVec(p.NumVars)
	for i, bi := range t.basis {
		if bi < p.NumVars {
			x[bi].Set(t.b[i])
		}
	}
	return simplex.Result{Status: simplex.Optimal, X: x}
}

// optimize runs Bland-rule primal simplex on the current tableau/costs.
func (t *tableau) optimize() {
	for {
		col := t.enteringColumn()
		if col < 0 {
			return
		}
		row := t.leavingRow(col)
		if row < 0 {
			panic("simplexref: phase 1 unbounded") // bounded below by 0
		}
		t.pivot(row, col)
	}
}

// enteringColumn returns the lowest-index column with negative reduced
// cost (Bland's rule), or -1 at optimality. The rows of t.a are already
// B⁻¹A, so r_j = c_j − Σᵢ c_basis[i]·a[i][j].
func (t *tableau) enteringColumn() int {
	r, tmp := new(big.Rat), new(big.Rat)
	for j := 0; j < t.n; j++ {
		if t.isBasic(j) {
			continue
		}
		r.Set(t.c[j])
		for i := 0; i < t.m; i++ {
			cb := t.c[t.basis[i]]
			if cb.Sign() == 0 || t.a[i][j].Sign() == 0 {
				continue
			}
			r.Sub(r, tmp.Mul(cb, t.a[i][j]))
		}
		if r.Sign() < 0 {
			return j
		}
	}
	return -1
}

func (t *tableau) isBasic(j int) bool {
	for _, b := range t.basis {
		if b == j {
			return true
		}
	}
	return false
}

// leavingRow performs the minimum-ratio test with Bland tie-breaking
// (lowest basis index), or -1 if the column is unbounded.
func (t *tableau) leavingRow(col int) int {
	best := -1
	bestRatio, ratio := new(big.Rat), new(big.Rat)
	for i := 0; i < t.m; i++ {
		if t.a[i][col].Sign() <= 0 {
			continue
		}
		ratio.Quo(t.b[i], t.a[i][col])
		if best < 0 || ratio.Cmp(bestRatio) < 0 ||
			(ratio.Cmp(bestRatio) == 0 && t.basis[i] < t.basis[best]) {
			best = i
			bestRatio.Set(ratio)
		}
	}
	return best
}

// pivot performs a full tableau pivot at (row, col).
func (t *tableau) pivot(row, col int) {
	inv := new(big.Rat).Inv(t.a[row][col])
	for j := 0; j < t.n; j++ {
		t.a[row][j].Mul(t.a[row][j], inv)
	}
	t.b[row].Mul(t.b[row], inv)
	tmp, factor := new(big.Rat), new(big.Rat)
	for i := 0; i < t.m; i++ {
		if i == row || t.a[i][col].Sign() == 0 {
			continue
		}
		factor.Set(t.a[i][col])
		for j := 0; j < t.n; j++ {
			if t.a[row][j].Sign() == 0 {
				continue
			}
			t.a[i][j].Sub(t.a[i][j], tmp.Mul(factor, t.a[row][j]))
		}
		t.b[i].Sub(t.b[i], tmp.Mul(factor, t.b[row]))
	}
	t.basis[row] = col
}

// objectiveValue returns c·y for the current basic solution.
func (t *tableau) objectiveValue() *big.Rat {
	v, tmp := new(big.Rat), new(big.Rat)
	for i, bi := range t.basis {
		if t.c[bi].Sign() != 0 {
			v.Add(v, tmp.Mul(t.c[bi], t.b[i]))
		}
	}
	return v
}

// CheckPoint reports whether x is an exact feasibility witness for p: it
// has length p.NumVars, is non-negative, and satisfies every constraint.
func CheckPoint(p *simplex.Problem, x exact.Vec) bool {
	if len(x) != p.NumVars {
		return false
	}
	for _, v := range x {
		if v.Sign() < 0 {
			return false
		}
	}
	for _, con := range p.RatConstraints() {
		if !holds(con.Rel, con.Coeffs.Dot(x).Cmp(con.RHS)) {
			return false
		}
	}
	return true
}

// CheckFarkas reports whether ray (one multiplier qᵢ per constraint) is an
// exact Farkas certificate of p's infeasibility:
//
//	qᵢ ≤ 0 for ≤ rows, qᵢ ≥ 0 for ≥ rows (= rows unrestricted),
//	d := Σᵢ qᵢ·aᵢ has dⱼ ≤ 0 for every variable, and Σᵢ qᵢ·bᵢ > 0.
//
// Multiplying each constraint by its qᵢ and summing shows d·x ≥ Σ qᵢbᵢ > 0
// for any x in p's feasible set, while the sign conditions force d·x ≤ 0,
// so no feasible x exists.
func CheckFarkas(p *simplex.Problem, ray exact.Vec) bool {
	cons := p.RatConstraints()
	if len(ray) != len(cons) || len(ray) == 0 {
		return false
	}
	d := exact.NewVec(p.NumVars)
	rhs, t := new(big.Rat), new(big.Rat)
	for i, con := range cons {
		s := ray[i].Sign()
		if (con.Rel == simplex.LE && s > 0) || (con.Rel == simplex.GE && s < 0) {
			return false
		}
		if s == 0 {
			continue
		}
		d.AddScaled(ray[i], con.Coeffs)
		rhs.Add(rhs, t.Mul(ray[i], con.RHS))
	}
	if rhs.Sign() <= 0 {
		return false
	}
	for _, v := range d {
		if v.Sign() > 0 {
			return false
		}
	}
	return true
}

// holds reports whether cmp (the sign of lhs − rhs) satisfies rel.
func holds(rel simplex.Rel, cmp int) bool {
	switch rel {
	case simplex.LE:
		return cmp <= 0
	case simplex.GE:
		return cmp >= 0
	}
	return cmp == 0
}
