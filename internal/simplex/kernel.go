package simplex

// The int64 kernel tableau: the default execution engine of the exact
// simplex, built on integer pivoting (the fraction-free scheme used by
// exact vertex-enumeration codes such as lrs). Instead of a big.Rat matrix
// the kernel keeps the scaled integer tableau
//
//	T = Δ·B⁻¹·A,  β = Δ·B⁻¹·b,  Δ > 0
//
// where Δ is a single positive scalar (the previous pivot element). Every
// true tableau value is T[i][j]/Δ, so every sign test is a sign test on an
// integer, the minimum-ratio test compares cross products, and a pivot at
// (r, c) is the rank-one integer update
//
//	T'[i][j] = (T[i][j]·T[r][c] − T[i][c]·T[r][j]) / Δ   (i ≠ r)
//
// whose division is exact (the entries are determinants of integer
// submatrices, Edmonds' theorem); the pivot row itself is left unchanged
// and Δ' = T[r][c]. No GCD normalisation ever runs — the dominant cost of
// the big.Rat tableau (big.Rat.Mul/Sub call lehmerGCD on every operation).
//
// Entries are adaptive integers: overflow-checked int64 words (math/bits)
// that promote, per element, to a retained *big.Int on the first operation
// whose exact result leaves the int64 range, and demote as soon as a
// result fits again. Rows are materialised from the Problem's integer form
// (introw.go) as the constraint times the lcm of its denominators — the
// primitive row times its scale's numerator — which is an equivalence
// transformation (row scaling by a positive constant), so the reduced-cost
// signs, ratio comparisons and Bland pivot sequence — and therefore every
// verdict and solution — are bit-identical to the big.Rat reference
// tableau.
// Workspace.ForceBigRat routes a solve through that reference instead; the
// differential tests pin the two paths against each other.

import (
	"math"
	"math/big"
	"math/bits"

	"repro/internal/exact"
)

// ient is one adaptive integer element of the kernel tableau.
type ient struct {
	v    int64
	wide bool     // value lives in b, not v
	b    *big.Int // retained promotion storage, allocated on first promotion
}

func (e *ient) sign() int {
	if e.wide {
		return e.b.Sign()
	}
	switch {
	case e.v > 0:
		return 1
	case e.v < 0:
		return -1
	}
	return 0
}

func (e *ient) setInt(v int64) {
	e.v = v
	e.wide = false
}

// view returns e's value as a *big.Int, materialising small values into tmp.
func (e *ient) view(tmp *big.Int) *big.Int {
	if e.wide {
		return e.b
	}
	return tmp.SetInt64(e.v)
}

// rat writes e's value divided by delta into dst (reduced by SetFrac).
func (e *ient) rat(dst *big.Rat, delta *ient, t1, t2 *big.Int) *big.Rat {
	return dst.SetFrac(e.view(t1), delta.view(t2))
}

// ktab is the kernel tableau. Like the big.Rat tableau it lives inside a
// Workspace and reuses its row storage (including each element's retained
// big.Int promotion slot) across solves.
type ktab struct {
	iarith // Δ, promotion counter, big.Int scratch, ient arithmetic

	a     [][]ient // scaled tableau T = Δ·B⁻¹·A
	b     []ient   // scaled right-hand side β = Δ·B⁻¹·b
	c     []ient   // phase-1 cost row: 1 on artificials
	r     []ient   // maintained scaled reduced costs Δ·(c − c_B·B⁻¹A)
	basis []int
	basic []bool // basic-column flags for O(1) scan lookup
	n, m  int

	rows     [][]ient // arena of ient rows, reused in call order
	rowsUsed int
}

// row returns a zeroed ient row of length n backed by the arena.
func (k *ktab) row(n int) []ient {
	var r []ient
	if k.rowsUsed < len(k.rows) {
		r = k.rows[k.rowsUsed]
		if cap(r) < n {
			r = make([]ient, n)
		}
		r = r[:n]
		k.rows[k.rowsUsed] = r
		k.rowsUsed++
		for i := range r {
			r[i].setInt(0)
		}
		return r
	}
	r = make([]ient, n)
	k.rows = append(k.rows, r)
	k.rowsUsed++
	return r
}

// cmpMulInt64 compares a·b with c·d via 128-bit products (never overflows;
// ok=false only for MinInt64 magnitudes, which promote).
func cmpMulInt64(a, b, c, d int64) (int, bool) {
	if a == math.MinInt64 || b == math.MinInt64 || c == math.MinInt64 || d == math.MinInt64 {
		return 0, false
	}
	lneg, lh, ll := mag128(a, b)
	rneg, rh, rl := mag128(c, d)
	lz := lh == 0 && ll == 0
	rz := rh == 0 && rl == 0
	if lz && rz {
		return 0, true
	}
	if lz {
		if rneg {
			return 1, true
		}
		return -1, true
	}
	if rz {
		if lneg {
			return -1, true
		}
		return 1, true
	}
	if lneg != rneg {
		if lneg {
			return -1, true
		}
		return 1, true
	}
	cmp := 0
	switch {
	case lh != rh:
		if lh > rh {
			cmp = 1
		} else {
			cmp = -1
		}
	case ll != rl:
		if ll > rl {
			cmp = 1
		} else {
			cmp = -1
		}
	}
	if lneg {
		cmp = -cmp
	}
	return cmp, true
}

// mag128 returns the sign and 128-bit magnitude of a·b (a, b ≠ MinInt64).
func mag128(a, b int64) (neg bool, hi, lo uint64) {
	neg = (a < 0) != (b < 0)
	hi, lo = bits.Mul64(exact.AbsU64(a), exact.AbsU64(b))
	if hi == 0 && lo == 0 {
		neg = false
	}
	return neg, hi, lo
}

// runKernel mirrors runBig on the kernel tableau: identical standard-form
// construction, crash basis, phase 1 and Bland pivoting — on the scaled
// integer representation instead of big.Rat elements.
func (w *Workspace) runKernel(p *Problem) Status {
	w.kactive = true

	lay := w.layout(p)
	slackCol, artCol := lay.slack, lay.art
	m, nArt := lay.m, lay.nArt

	k := &w.kt
	k.initScratch()
	k.promotions = 0
	k.rowsUsed = 0
	k.n, k.m = lay.n+nArt, m
	k.delta.setInt(1)
	if cap(k.a) < m {
		k.a = make([][]ient, m)
	}
	k.a = k.a[:m]
	k.b = k.row(m)
	if cap(k.basis) < m {
		k.basis = make([]int, m)
	}
	k.basis = k.basis[:m]

	iform := p.intForm()
	for i := range p.Constraints {
		con := &p.Constraints[i]
		row := k.row(k.n)
		if !k.fillRowFast(row, &k.b[i], &iform.rows[i]) {
			k.fillRowBig(row, &k.b[i], &iform.rows[i], p.NumVars)
		}
		switch con.Rel {
		case LE:
			row[slackCol[i]].setInt(1)
		case GE:
			row[slackCol[i]].setInt(-1)
		}
		if k.b[i].sign() < 0 {
			for j := range row {
				if row[j].sign() != 0 {
					k.neg(&row[j])
				}
			}
			k.neg(&k.b[i])
		}
		k.a[i] = row
		if artCol[i] >= 0 {
			row[artCol[i]].setInt(1)
			k.basis[i] = artCol[i]
		} else {
			k.basis[i] = slackCol[i]
		}
	}

	// Phase 1: minimise the sum of artificials.
	st := Optimal
	if nArt > 0 {
		phase1 := k.row(k.n)
		for i := 0; i < m; i++ {
			if artCol[i] >= 0 {
				phase1[artCol[i]].setInt(1)
			}
		}
		k.c = phase1
		k.syncBasic()
		k.computeReducedCosts()
		k.optimize()
		if k.objectiveSign() > 0 {
			st = Infeasible
		}
	}
	w.lastPromotions = k.promotions
	return st
}

// fillRowFast writes constraint row ir into the tableau as the primitive
// row times its scale's numerator (the constraint times the lcm of its
// denominators). It returns false, leaving the row to fillRowBig, when the
// row is wide or a product overflows.
func (k *ktab) fillRowFast(row []ient, rhs *ient, ir *intRow) bool {
	if ir.wide != nil {
		return false
	}
	s := ir.scale.Num()
	n := len(ir.a) - 1
	if s != 1 {
		for _, x := range ir.a {
			if _, ok := exact.MulInt64(x, s); !ok {
				return false
			}
		}
	}
	for j, x := range ir.a[:n] {
		if x == 0 {
			continue
		}
		row[j].setInt(x * s) // checked above
	}
	rhs.setInt(ir.a[n] * s)
	return true
}

// fillRowBig is the arbitrary-precision fallback of fillRowFast for a row
// over n variables.
func (k *ktab) fillRowBig(row []ient, rhs *ient, ir *intRow, n int) {
	s := k.t2
	if ir.wide != nil {
		s.Set(ir.wide.scale.Num())
	} else {
		s.SetInt64(ir.scale.Num())
	}
	val := k.t3
	for j := 0; j < n; j++ {
		val.Mul(ir.elem(j, k.t1), s)
		if val.Sign() == 0 {
			continue
		}
		k.setBig(&row[j], val)
	}
	k.setBig(rhs, val.Mul(ir.elem(n, k.t1), s))
}

// optimize runs Bland-rule primal simplex on the kernel tableau.
func (k *ktab) optimize() {
	for {
		col := k.enteringColumn()
		if col < 0 {
			return
		}
		row := k.leavingRow(col)
		if row < 0 {
			panic("simplex: phase 1 unbounded") // bounded below by 0
		}
		k.pivot(row, col)
	}
}

// syncBasic rebuilds the basic-column flags from the basis.
func (k *ktab) syncBasic() {
	if cap(k.basic) < k.n {
		k.basic = make([]bool, k.n)
	}
	k.basic = k.basic[:k.n]
	for j := range k.basic {
		k.basic[j] = false
	}
	for _, b := range k.basis {
		k.basic[b] = true
	}
}

// computeReducedCosts initialises the maintained row from the current
// basis: R[j] = C[j]·Δ − Σᵢ C[basis[i]]·T[i][j], the reduced costs scaled
// by the positive Δ. Recomputing reduced costs on every entering-column
// scan is O(n·m) exact multiplications per iteration — the dominant cost
// of the big.Rat tableau; maintaining the row through pivots makes the
// scan a row of integer sign checks. The maintained values are positive
// multiples of the rationals the scan would recompute, so the Bland pivot
// sequence — and every verdict — is unchanged.
func (k *ktab) computeReducedCosts() {
	k.r = k.row(k.n)
	acc := k.t3 // the loop's products use t1 and t2
	for j := 0; j < k.n; j++ {
		rj := &k.r[j]
		if k.c[j].sign() == 0 && !k.c[j].wide {
			acc.SetInt64(0)
		} else {
			acc.Mul(k.c[j].view(k.t1), k.delta.view(k.t2))
		}
		for i := 0; i < k.m; i++ {
			cb := &k.c[k.basis[i]]
			if cb.sign() == 0 || k.a[i][j].sign() == 0 {
				continue
			}
			k.t1.Mul(cb.view(k.t1), k.a[i][j].view(k.t2))
			acc.Sub(acc, k.t1)
		}
		k.setBig(rj, acc)
	}
}

// enteringColumn returns the lowest-index column with negative reduced cost
// (Bland's rule), or -1 at optimality — the same rule, on the same exact
// signs, as the big.Rat tableau, so the pivot sequences are identical.
func (k *ktab) enteringColumn() int {
	for j := 0; j < k.n; j++ {
		if k.basic[j] {
			continue
		}
		if k.r[j].sign() < 0 {
			return j
		}
	}
	return -1
}

// leavingRow performs the minimum-ratio test with Bland tie-breaking. True
// ratios are β[i]/T[i][col] (Δ cancels); comparisons cross-multiply, so no
// division happens at all.
func (k *ktab) leavingRow(col int) int {
	best := -1
	for i := 0; i < k.m; i++ {
		if k.a[i][col].sign() <= 0 {
			continue
		}
		if best < 0 {
			best = i
			continue
		}
		c := k.cmpProducts(&k.b[i], &k.a[best][col], &k.b[best], &k.a[i][col])
		if c < 0 || (c == 0 && k.basis[i] < k.basis[best]) {
			best = i
		}
	}
	return best
}

// pivot performs the fraction-free pivot at (row, col): every row except
// the pivot row gets the rank-one update, the pivot row is left as-is, and
// Δ becomes the pivot element. The maintained reduced-cost row and the
// basic-column flags are kept current.
func (k *ktab) pivot(row, col int) {
	piv := &k.a[row][col] // > 0: the ratio test only admits positive entries
	arow := k.a[row]
	for i := 0; i < k.m; i++ {
		if i == row {
			continue
		}
		ai := k.a[i]
		fac := &ai[col]
		if fac.sign() == 0 {
			// Row update degenerates to scaling by piv/Δ; still required to
			// keep the whole tableau on the common denominator Δ' = piv.
			for j := 0; j < k.n; j++ {
				if ai[j].sign() != 0 {
					k.scaleUpdate(&ai[j], piv)
				}
			}
			if k.b[i].sign() != 0 {
				k.scaleUpdate(&k.b[i], piv)
			}
			continue
		}
		for j := 0; j < k.n; j++ {
			if j == col {
				continue
			}
			if ai[j].sign() == 0 && arow[j].sign() == 0 {
				continue
			}
			k.pivotUpdate(&ai[j], &ai[j], piv, fac, &arow[j])
		}
		k.pivotUpdate(&k.b[i], &k.b[i], piv, fac, &k.b[row])
		ai[col].setInt(0)
	}
	// Maintained reduced-cost row: the same rank-one update with the cost
	// entry of the pivot column as the factor; R[col] lands on exactly zero.
	rfac := &k.r[col]
	if rfac.sign() == 0 {
		for j := 0; j < k.n; j++ {
			if k.r[j].sign() != 0 {
				k.scaleUpdate(&k.r[j], piv)
			}
		}
	} else {
		for j := 0; j < k.n; j++ {
			if j == col {
				continue
			}
			if k.r[j].sign() == 0 && arow[j].sign() == 0 {
				continue
			}
			k.pivotUpdate(&k.r[j], &k.r[j], piv, rfac, &arow[j])
		}
		k.r[col].setInt(0)
	}
	k.set(&k.delta, piv)
	k.basic[k.basis[row]] = false
	k.basic[col] = true
	k.basis[row] = col
}

// objectiveSign returns the sign of the current objective value
// Σᵢ c_basis[i]·β[i] (/Δ — positive, so the sign is exact).
func (k *ktab) objectiveSign() int {
	acc := k.t3 // the loop's products use t1 and t2
	acc.SetInt64(0)
	for i, bi := range k.basis {
		if k.c[bi].sign() == 0 {
			continue
		}
		k.t1.Mul(k.c[bi].view(k.t1), k.b[i].view(k.t2))
		acc.Add(acc, k.t1)
	}
	return acc.Sign()
}
