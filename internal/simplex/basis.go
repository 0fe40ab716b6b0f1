package simplex

// Exact Farkas certificates from a float phase-1 basis.
//
// When the float filter (internal/floatlp) claims infeasibility, it hands
// over its final phase-1 basis rather than a float dual ray: the exact
// phase-1 dual carries determinant-sized denominators that rounding a
// float vector onto nearby small rationals cannot recover, while the basis
// is combinatorial — if it is optimal over ℚ too, its exact dual is a
// Farkas certificate. CertifyFarkasBasis recovers that dual by one
// fraction-free solve of Bᵀy = c_B on the integer constraint rows and
// hands it to the kernel Farkas check, so no exact simplex runs at all.
//
// The certificate describes a phase 1 on the sign-normalised,
// row-equilibrated standard form: row i is
// σᵢ·(aᵢ·x ± slackᵢ)/wᵢ + artᵢ = σᵢ·bᵢ/wᵢ with σᵢ = ±1 chosen so the
// artificial starts non-negative and wᵢ the row's equilibration scale,
// minimising Σ artᵢ. (The filter solves LE/GE pairs as range rows and
// maps its basis back onto this form; see floatlp.) Writing the dual of that basis
// in original-row multipliers qᵢ = σᵢ·yᵢ/wᵢ, the equations Bᵀy = c_B read
//
//	basic slack of row r:       q_r = 0
//	basic artificial of row r:  q_r = σ_r/w_r
//	basic structural x_j:       Σᵢ qᵢ·aᵢⱼ = 0
//
// The artificial weights matter: the phase-1 objective sums artificials
// of the *scaled* rows, so unit weights would be the dual of a different
// objective, which on refuted region LPs often fails to verify. wᵣ enters
// as its exact dyadic value.
// The solve runs on the primitive integer rows (introw.go), whose
// multipliers are uᵢ = qᵢ·scaleᵢ, so a basic artificial fixes
// u_r = σ_r·scale_r/w_r.
// Only the rows no slack or artificial fixes are unknown, one per basic
// structural column; they are solved by fraction-free Gauss–Jordan
// elimination (Bareiss/Edmonds) over the same adaptive integers, exact
// divisions and retained big.Int scratch as the kernel tableau. A
// singular basis declines; a solved dual that fails CheckFarkas's
// conditions is rejected. Either way
// the caller falls back to the exact simplex, so a wrong basis can cost
// time but never a verdict.

import (
	"math"
	"math/big"

	"repro/internal/exact"
)

// FarkasBasis is the final basis of a float phase 1 on the standard form
// described above, offered as an infeasibility certificate. Its slices
// may alias the producer's workspace.
type FarkasBasis struct {
	// Cols names the basic column of every basis position: j < NumVars
	// is structural variable j (either half of a split free variable),
	// NumVars+i is row i's slack and NumVars+m+i is row i's artificial,
	// for m constraints.
	Cols []int
	// Sign holds the row sign flips σᵢ (±1).
	Sign []float64
	// Scale holds the row equilibration scales wᵢ (finite, positive).
	Scale []float64
}

// Row roles in the basis solve.
const (
	roleFree  = iota // multiplier solved from the structural equations
	roleSlack        // basic slack: multiplier fixed at zero
	roleArt          // basic artificial: multiplier fixed at σ/w
)

// basisSolve is the Certifier's scratch for CertifyFarkasBasis and the
// gcd-free integer Farkas check.
type basisSolve struct {
	iarith // Δ, exact divisions, big.Int scratch

	role  []int8
	vars  []int  // basic structural variables: one equation each
	seen  []bool // structural variables already basic
	free  []int  // rows with unknown multipliers: one unknown each
	pivOf []int  // pivot row per unknown
	used  []bool // rows already pivoted

	mat [][]ient // k × (k+1) augmented system, reused row storage
	g   []ient   // −(artificial multiplier)·D per row, D the common denominator
	q   []ient   // integer certificate, one per row
	acc []ient   // checkFarkas's combination Σᵢ qᵢ·aᵢ, then Σᵢ qᵢ·bᵢ

	num, den, lcm, gcd *big.Int
}

func (bs *basisSolve) init() {
	bs.initScratch()
	if bs.num == nil {
		bs.num, bs.den, bs.lcm, bs.gcd = new(big.Int), new(big.Int), new(big.Int), new(big.Int)
	}
}

// CertifyFarkasBasis solves the exact dual of b's basis on p and checks it
// as a Farkas certificate of p's infeasibility. It returns false — never
// a wrong verdict — when the basis is malformed or singular, or when the
// dual fails verification.
func (c *Certifier) CertifyFarkasBasis(p *Problem, b FarkasBasis) bool {
	c.lastKernel = false
	q, ok := c.solveBasisDual(p, b)
	if !ok {
		return false
	}
	us := c.scratch(len(q))
	fits := true
	for i := range q {
		if q[i].wide {
			fits = false
			break
		}
		us[i] = exact.Rat64FromInt64(q[i].v)
	}
	if fits {
		if verdict, decided := c.kernelCheckFarkas(p, us); decided {
			c.lastKernel = true
			return verdict
		}
	}
	return c.basis.checkFarkas(p, q)
}

// checkFarkasRat checks rational multipliers of the constraints: each is
// carried onto its integer row (qᵢ·scaleᵢ) and the results are scaled onto
// integers by a common positive denominator, which leaves the Farkas
// conditions unchanged, for the gcd-free integer check.
func (c *Certifier) checkFarkasRat(p *Problem, ray exact.Vec) bool {
	if len(ray) != len(p.Constraints) || len(ray) == 0 {
		return false
	}
	bs := &c.basis
	bs.init()
	iform := p.intForm()
	// Row i's multiplier is Nᵢ/Dᵢ with Nᵢ = num(rayᵢ)·num(scaleᵢ) and
	// Dᵢ = den(rayᵢ)·den(scaleᵢ); L is the lcm of the Dᵢ.
	rowFrac := func(i int) (num, den *big.Int) {
		ir := &iform.rows[i]
		if ir.wide != nil {
			bs.num.Mul(ray[i].Num(), ir.wide.scale.Num())
			bs.den.Mul(ray[i].Denom(), ir.wide.scale.Denom())
		} else {
			bs.num.Mul(ray[i].Num(), bs.t1.SetInt64(ir.scale.Num()))
			bs.den.Mul(ray[i].Denom(), bs.t1.SetInt64(ir.scale.Den()))
		}
		return bs.num, bs.den
	}
	bs.lcm.SetInt64(1)
	for i := range ray {
		if ray[i].Sign() != 0 {
			_, den := rowFrac(i)
			bs.lcmInto(bs.lcm, den)
		}
	}
	bs.q = growIents(bs.q, len(ray))
	for i := range ray {
		if ray[i].Sign() == 0 {
			bs.q[i].setInt(0)
			continue
		}
		num, den := rowFrac(i)
		bs.t4.Set(bs.divExact(bs.lcm, den))
		bs.setBig(&bs.q[i], bs.t4.Mul(bs.t4, num))
	}
	return bs.checkFarkas(p, bs.q)
}

// checkFarkas decides CheckFarkas's conditions for integer multipliers q
// of the integer rows without a single gcd reduction: the combination
// d = Σᵢ qᵢ·aᵢ and the right-hand side Σᵢ qᵢ·bᵢ are accumulated in
// adaptive integers, and only their signs are read off.
func (bs *basisSolve) checkFarkas(p *Problem, q []ient) bool {
	bs.init()
	nonzero := false
	for i := range q {
		if q[i].sign() != 0 {
			nonzero = true
			break
		}
	}
	if !nonzero || !farkasSigns(p, func(i int) int { return q[i].sign() }) {
		return false
	}
	iform := p.intForm()
	n := p.NumVars
	bs.acc = growIents(bs.acc, n+1) // d, then the right-hand side
	for j := range bs.acc {
		bs.acc[j].setInt(0)
	}
	for i := range q {
		if q[i].sign() == 0 {
			continue
		}
		for j := 0; j <= n; j++ {
			bs.addMulEntry(&bs.acc[j], &q[i], &iform.rows[i], j)
		}
	}
	if bs.acc[n].sign() <= 0 {
		return false
	}
	return farkasCombination(p, func(j int) int { return bs.acc[j].sign() })
}

// lcmInto sets l = lcm(l, d) for positive l and d.
func (bs *basisSolve) lcmInto(l, d *big.Int) {
	bs.gcd.GCD(nil, nil, l, d)
	bs.t3.Set(bs.divExact(d, bs.gcd))
	l.Mul(l, bs.t3)
}

// setEntry stores entry j of integer row ir into dst.
func (bs *basisSolve) setEntry(dst *ient, ir *intRow, j int) {
	if ir.wide != nil {
		bs.setBig(dst, ir.wide.a[j])
		return
	}
	dst.setInt(ir.a[j])
}

// addMulEntry adds x times entry j of integer row ir into dst.
func (bs *basisSolve) addMulEntry(dst, x *ient, ir *intRow, j int) {
	if ir.wide == nil {
		if a := ir.a[j]; a != 0 {
			bs.addMulInt(dst, x, a)
		}
		return
	}
	if a := ir.wide.a[j]; a.Sign() != 0 {
		bs.t1.Mul(x.view(bs.t2), a)
		bs.t3.Add(dst.view(bs.t4), bs.t1)
		bs.setBig(dst, bs.t3)
	}
}

// solveBasisDual returns the integer multipliers of b's dual on the
// integer rows, scaled by a positive constant and divided by their gcd;
// ok=false declines.
func (c *Certifier) solveBasisDual(p *Problem, b FarkasBasis) ([]ient, bool) {
	m, n := len(p.Constraints), p.NumVars
	if m == 0 || len(b.Cols) != m || len(b.Sign) != m || len(b.Scale) != m {
		return nil, false
	}
	bs := &c.basis
	bs.init()
	bs.role = growSlice(bs.role, m)
	bs.seen = growSlice(bs.seen, n)
	clear(bs.role)
	clear(bs.seen)
	bs.vars = bs.vars[:0]
	nArt := 0
	for _, col := range b.Cols {
		switch {
		case col >= 0 && col < n:
			if bs.seen[col] {
				return nil, false // both halves of a free variable: singular
			}
			bs.seen[col] = true
			bs.vars = append(bs.vars, col)
		case col >= n && col < n+m:
			r := col - n
			if bs.role[r] != roleFree || p.Constraints[r].Rel == EQ {
				return nil, false
			}
			bs.role[r] = roleSlack
		case col >= n+m && col < n+2*m:
			r := col - n - m
			if bs.role[r] != roleFree {
				return nil, false
			}
			bs.role[r] = roleArt
			nArt++
		default:
			return nil, false
		}
	}
	if nArt == 0 {
		return nil, false // the zero dual certifies nothing
	}
	iform := p.intForm()
	bs.free = bs.free[:0]
	for i := range p.Constraints {
		if bs.role[i] == roleFree {
			bs.free = append(bs.free, i)
		}
	}
	k := len(bs.vars)
	if len(bs.free) != k {
		return nil, false
	}

	// Fixed multipliers of the integer rows, u_r = σ_r·scale_r/w_r, over
	// the common denominator D of all artificial rows.
	bs.lcm.SetInt64(1)
	for i := range p.Constraints {
		if bs.role[i] != roleArt {
			continue
		}
		w, s := b.Scale[i], b.Sign[i]
		if !(w > 0) || math.IsInf(w, 0) || (s != 1 && s != -1) {
			return nil, false
		}
		bs.artFrac(&iform.rows[i], w)
		bs.lcmInto(bs.lcm, bs.den)
	}
	// g_r = −D·u_r, an integer.
	bs.g = growIents(bs.g, m)
	for i := range p.Constraints {
		if bs.role[i] != roleArt {
			continue
		}
		bs.artFrac(&iform.rows[i], b.Scale[i])
		bs.t4.Set(bs.divExact(bs.lcm, bs.den))
		bs.num.Mul(bs.num, bs.t4)
		if b.Sign[i] > 0 {
			bs.num.Neg(bs.num)
		}
		bs.setBig(&bs.g[i], bs.num)
	}

	// Augmented system: one equation per basic structural variable v,
	// Σ_{i free} U_i·a_iv = Σ_{r art} g_r·a_rv, with U_i = D·u_i.
	bs.mat = growMat(bs.mat, k, k+1)
	for e, v := range bs.vars {
		row := bs.mat[e]
		for c, i := range bs.free {
			bs.setEntry(&row[c], &iform.rows[i], v)
		}
		rhs := &row[k]
		rhs.setInt(0)
		for i := range p.Constraints {
			if bs.role[i] == roleArt {
				bs.addMulEntry(rhs, &bs.g[i], &iform.rows[i], v)
			}
		}
	}

	// Fraction-free Gauss–Jordan: after pivoting every unknown, the
	// right-hand side of unknown c's pivot row holds Δ·U_c exactly. A
	// negative pivot row is negated first (the same equation), so Δ stays
	// positive as iarith requires.
	bs.delta.setInt(1)
	bs.pivOf = growSlice(bs.pivOf, k)
	bs.used = growSlice(bs.used, k)
	clear(bs.used)
	for c := 0; c < k; c++ {
		r := -1
		for i := 0; i < k; i++ {
			if !bs.used[i] && bs.mat[i][c].sign() != 0 {
				r = i
				break
			}
		}
		if r < 0 {
			return nil, false // singular basis
		}
		bs.used[r] = true
		bs.pivOf[c] = r
		piv, prow := &bs.mat[r][c], bs.mat[r]
		if piv.sign() < 0 {
			for j := c; j <= k; j++ {
				bs.neg(&prow[j])
			}
		}
		for i := 0; i < k; i++ {
			if i == r {
				continue
			}
			row := bs.mat[i]
			fac := &row[c]
			for j := c + 1; j <= k; j++ {
				bs.pivotUpdate(&row[j], &row[j], piv, fac, &prow[j])
			}
		}
		bs.set(&bs.delta, piv)
	}

	// q_i = Δ·U_i on free rows and Δ·(−g_r) on artificial rows: the
	// integer-row multipliers scaled by the positive Δ·D.
	bs.q = growIents(bs.q, m)
	for i := range bs.q {
		bs.q[i].setInt(0)
	}
	for c, i := range bs.free {
		bs.set(&bs.q[i], &bs.mat[bs.pivOf[c]][k])
	}
	for i := range p.Constraints {
		if bs.role[i] != roleArt {
			continue
		}
		bs.num.Mul(bs.g[i].view(bs.t2), bs.delta.view(bs.t3))
		bs.num.Neg(bs.num)
		bs.setBig(&bs.q[i], bs.num)
	}
	// Divide out the common factor so the check stays on the int64 kernel
	// whenever the reduced certificate fits.
	bs.gcd.SetInt64(0)
	for i := range bs.q {
		if bs.q[i].sign() != 0 {
			bs.gcd.GCD(nil, nil, bs.gcd, bs.q[i].view(bs.t1))
		}
	}
	if bs.gcd.Sign() == 0 {
		return nil, false
	}
	for i := range bs.q {
		if bs.q[i].sign() != 0 {
			bs.quoExact(&bs.q[i], bs.gcd)
		}
	}
	return bs.q, true
}

// artFrac writes the fraction scale/w of a basic artificial's integer row
// into num/den (both positive, not necessarily reduced): with w = mant·2^e
// exactly and scale = sN/sD, scale/w = sN·2^(−e)/(sD·mant) for e < 0 and
// sN/(sD·mant·2^e) otherwise.
func (bs *basisSolve) artFrac(ir *intRow, w float64) {
	if ir.wide != nil {
		bs.num.Set(ir.wide.scale.Num())
		bs.den.Set(ir.wide.scale.Denom())
	} else {
		bs.num.SetInt64(ir.scale.Num())
		bs.den.SetInt64(ir.scale.Den())
	}
	mant, e := dyadic(w)
	bs.den.Mul(bs.den, bs.t1.SetInt64(mant))
	if e > 0 {
		bs.den.Lsh(bs.den, uint(e))
	} else {
		bs.num.Lsh(bs.num, uint(-e))
	}
}

// dyadic returns w = mant·2^e exactly for a finite positive float64, with
// mant odd.
func dyadic(w float64) (mant int64, e int) {
	frac, exp := math.Frexp(w)
	mant = int64(frac * (1 << 53))
	e = exp - 53
	for mant&1 == 0 {
		mant >>= 1
		e++
	}
	return mant, e
}

func growSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func growIents(s []ient, n int) []ient {
	if cap(s) < n {
		s = append(s[:cap(s)], make([]ient, n-cap(s))...)
	}
	return s[:n]
}

func growMat(mat [][]ient, rows, cols int) [][]ient {
	if cap(mat) < rows {
		mat = append(mat[:cap(mat)], make([][]ient, rows-cap(mat))...)
	}
	mat = mat[:rows]
	for i := range mat {
		mat[i] = growIents(mat[i], cols)
	}
	return mat
}
