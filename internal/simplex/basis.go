package simplex

// Exact Farkas certificates from a float phase-1 basis.
//
// When the float filter (internal/floatlp) claims infeasibility, its
// rounded dual ray often fails exact verification: the exact phase-1 dual
// carries determinant-sized denominators that rounding a float vector onto
// nearby small rationals cannot recover. The float solve's final *basis*,
// though, is combinatorial — if it is optimal over ℚ too, its exact dual
// is a Farkas certificate. CertifyFarkasBasis recovers that dual by one
// fraction-free solve of Bᵀy = c_B on the integer constraint rows and
// hands it to the kernel Farkas check, so no exact simplex runs at all.
//
// The float phase 1 works on the sign-normalised, row-equilibrated
// standard form: row i is σᵢ·(aᵢ·x + slack)/wᵢ + artᵢ = σᵢ·bᵢ/wᵢ with
// σᵢ = ±1 chosen so the right-hand side is non-negative and wᵢ the row's
// equilibration scale, minimising Σ artᵢ. Writing the dual of that basis
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
// Only the rows no slack or artificial fixes are unknown, one per basic
// structural column; they are solved by fraction-free Gauss–Jordan
// elimination (Bareiss/Edmonds) over the same adaptive integers, exact
// divisions and retained big.Int scratch as the kernel tableau. A
// singular basis, or rows too wide for the int64 snapshot, decline; a
// solved dual that fails CheckFarkas's conditions is rejected. Either way
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
	acc []ient   // checkFarkas's combination Σᵢ qᵢ·aᵢ, scaled to integers
	x   ient     // checkFarkas's current row multiplier

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
// a wrong verdict — when the basis is malformed or singular, when a row
// it needs does not fit the int64 snapshot, or when the dual fails
// verification.
func (c *Certifier) CertifyFarkasBasis(p *Problem, b FarkasBasis) bool {
	c.lastKernel = false
	q, ok := c.solveBasisDual(p, b)
	if !ok {
		return false
	}
	rq := c.scratch(len(q))
	fits := true
	for i := range q {
		if q[i].wide {
			fits = false
			break
		}
		rq[i] = exact.Rat64FromInt64(q[i].v)
	}
	if fits {
		if verdict, decided := c.kernelCheckFarkas(p, rq); decided {
			c.lastKernel = true
			return verdict
		}
	}
	verdict, _ := c.basis.checkFarkas(p, q) // solveBasisDual only uses snapshot rows
	return verdict
}

// checkFarkasRat checks rational multipliers: scaled onto integers by
// the lcm of their denominators (a positive factor, so the Farkas
// conditions are unchanged) for the gcd-free integer check, with the
// big.Rat reference for rows outside the int64 snapshot.
func (c *Certifier) checkFarkasRat(p *Problem, ray exact.Vec) bool {
	if len(ray) != len(p.Constraints) || len(ray) == 0 {
		return false
	}
	bs := &c.basis
	bs.init()
	bs.lcm.SetInt64(1)
	for _, r := range ray {
		bs.lcmInto(bs.lcm, r.Denom())
	}
	bs.q = growIents(bs.q, len(ray))
	for i, r := range ray {
		bs.num.Mul(r.Num(), bs.divExact(bs.lcm, r.Denom()))
		bs.setBig(&bs.q[i], bs.num)
	}
	if verdict, decided := bs.checkFarkas(p, bs.q); decided {
		return verdict
	}
	return checkFarkasBig(p, ray)
}

// checkFarkas decides CheckFarkas's conditions for integer multipliers q
// without a single gcd reduction. The combination d = Σᵢ qᵢ·aᵢ is
// accumulated over the rows' common denominator L as Σᵢ qᵢ·(L/Denᵢ)·Numᵢ
// in adaptive integers, and the right-hand side Σᵢ qᵢ·bᵢ over the lcm of
// its denominators; only signs are read off either. decided=false when a
// row with qᵢ ≠ 0 is outside the int64 snapshot.
func (bs *basisSolve) checkFarkas(p *Problem, q []ient) (verdict, decided bool) {
	bs.init()
	iform := p.intForm()
	bs.lcm.SetInt64(1) // L, the rows' common denominator
	bs.den.SetInt64(1) // the right-hand sides' common denominator
	nonzero := false
	for i := range p.Constraints {
		s := q[i].sign()
		if s == 0 {
			continue
		}
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
		ir := &iform.rows[i]
		if !ir.ok {
			return false, false
		}
		bs.lcmInto(bs.lcm, bs.t1.SetInt64(ir.coeffs.Den))
		bs.lcmInto(bs.den, bs.t1.SetInt64(ir.rhs.Den()))
		nonzero = true
	}
	if !nonzero {
		return false, true
	}
	bs.num.SetInt64(0)
	for i := range p.Constraints {
		if q[i].sign() == 0 {
			continue
		}
		rhs := iform.rows[i].rhs
		bs.t1.Set(bs.divExact(bs.den, bs.t2.SetInt64(rhs.Den())))
		bs.t1.Mul(bs.t1, q[i].view(bs.t2))
		bs.t1.Mul(bs.t1, bs.t2.SetInt64(rhs.Num()))
		bs.num.Add(bs.num, bs.t1)
	}
	if bs.num.Sign() <= 0 {
		return false, true
	}
	bs.acc = growIents(bs.acc, p.NumVars)
	for j := range bs.acc {
		bs.acc[j].setInt(0)
	}
	for i := range p.Constraints {
		if q[i].sign() == 0 {
			continue
		}
		ir := &iform.rows[i]
		bs.t1.Set(bs.divExact(bs.lcm, bs.t2.SetInt64(ir.coeffs.Den)))
		bs.t1.Mul(bs.t1, q[i].view(bs.t2))
		bs.setBig(&bs.x, bs.t1)
		for j, num := range ir.coeffs.Num {
			if num != 0 {
				bs.addMulInt(&bs.acc[j], &bs.x, num)
			}
		}
	}
	for j := range bs.acc {
		s := bs.acc[j].sign()
		if p.Free != nil && p.Free[j] {
			if s != 0 {
				return false, true
			}
		} else if s > 0 {
			return false, true
		}
	}
	return true, true
}

// lcmInto sets l = lcm(l, d) for positive l and d.
func (bs *basisSolve) lcmInto(l, d *big.Int) {
	bs.gcd.GCD(nil, nil, l, d)
	bs.t3.Set(bs.divExact(d, bs.gcd))
	l.Mul(l, bs.t3)
}

// solveBasisDual returns the integer multipliers of b's dual, scaled by a
// positive constant and divided by their gcd; ok=false declines.
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
		if bs.role[i] == roleSlack {
			continue
		}
		if !iform.rows[i].ok {
			return nil, false
		}
		if bs.role[i] == roleFree {
			bs.free = append(bs.free, i)
		}
	}
	k := len(bs.vars)
	if len(bs.free) != k {
		return nil, false
	}

	// Fixed multipliers q_r = σ_r/w_r, written per unit of row r's integer
	// numerators as σ_r/(w_r·Den_r), over the common denominator D of all
	// artificial rows.
	bs.lcm.SetInt64(1)
	for i := range p.Constraints {
		if bs.role[i] != roleArt {
			continue
		}
		w, s := b.Scale[i], b.Sign[i]
		if !(w > 0) || math.IsInf(w, 0) || (s != 1 && s != -1) {
			return nil, false
		}
		bs.artDen(bs.den, w, iform.rows[i].coeffs.Den)
		bs.lcmInto(bs.lcm, bs.den)
	}
	// g_r = −D·σ_r/(w_r·Den_r), an integer.
	bs.g = growIents(bs.g, m)
	for i := range p.Constraints {
		if bs.role[i] != roleArt {
			continue
		}
		e := bs.artDen(bs.den, b.Scale[i], iform.rows[i].coeffs.Den)
		bs.num.Set(bs.divExact(bs.lcm, bs.den))
		if e < 0 {
			bs.num.Lsh(bs.num, uint(-e))
		}
		if b.Sign[i] > 0 {
			bs.num.Neg(bs.num)
		}
		bs.setBig(&bs.g[i], bs.num)
	}

	// Augmented system: one equation per basic structural variable v,
	// Σ_{i free} u_i·Num_iv = Σ_{r art} g_r·Num_rv, with u_i = q_i/Den_i
	// on the same scale D.
	bs.mat = growMat(bs.mat, k, k+1)
	for e, v := range bs.vars {
		row := bs.mat[e]
		for c, i := range bs.free {
			row[c].setInt(iform.rows[i].coeffs.Num[v])
		}
		rhs := &row[k]
		rhs.setInt(0)
		for i := range p.Constraints {
			if bs.role[i] == roleArt {
				if num := iform.rows[i].coeffs.Num[v]; num != 0 {
					bs.addMulInt(rhs, &bs.g[i], num)
				}
			}
		}
	}

	// Fraction-free Gauss–Jordan: after pivoting every unknown, the
	// right-hand side of unknown c's pivot row holds Δ·u_c exactly. A
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

	// q_i = Δ·u_i·Den_i on free rows and Δ·(−g_r)·Den_r on artificial
	// rows: q scaled by the positive Δ·D.
	bs.q = growIents(bs.q, m)
	for i := range bs.q {
		bs.q[i].setInt(0)
	}
	for c, i := range bs.free {
		bs.mulSetInt(&bs.q[i], &bs.mat[bs.pivOf[c]][k], iform.rows[i].coeffs.Den)
	}
	for i := range p.Constraints {
		if bs.role[i] != roleArt {
			continue
		}
		bs.num.Mul(bs.g[i].view(bs.t2), bs.delta.view(bs.t3))
		bs.num.Neg(bs.num)
		bs.setBig(&bs.q[i], bs.num)
		bs.mulSetInt(&bs.q[i], &bs.q[i], iform.rows[i].coeffs.Den)
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

// artDen writes the denominator of 1/(w·den) into d — with w = mant·2^e
// exactly, 1/(w·den) = 2^(−e)/(mant·den) for e < 0 and 1/(mant·den·2^e)
// otherwise — and returns e.
func (bs *basisSolve) artDen(d *big.Int, w float64, den int64) int {
	mant, e := dyadic(w)
	d.SetInt64(mant)
	bs.t1.SetInt64(den)
	d.Mul(d, bs.t1)
	if e > 0 {
		d.Lsh(d, uint(e))
	}
	return e
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
