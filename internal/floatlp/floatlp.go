// Package floatlp is the float64 tier of CounterPoint's two-tier
// feasibility solver: a dense bounded-variable revised simplex over
// hardware floats that takes the same simplex.Problem as the exact
// rational solver and emits a *certificate* instead of a bare status — a
// candidate feasible point when it believes the problem feasible, the
// final phase-1 basis when it believes it infeasible.
//
// The filter never decides a verdict on its own. Its certificates are
// verified over ℚ by internal/simplex (CertifyPoint / CertifyFarkasBasis,
// rational arithmetic only), and anything that fails exact verification
// falls back to the exact two-phase simplex, so verdicts remain bit-exact
// by construction. This is the QSopt_ex / SoPlex float-filtering scheme
// specialised to pure feasibility: hardware floats do the pivoting, exact
// arithmetic only checks.
//
// Region LPs (core.RegionLP) bound each principal axis on both sides, as
// an LE row followed by a GE row with the same coefficients. The filter
// solves every such pair as one range row a·x − s = lo with a bounded
// slack 0 ≤ s ≤ hi − lo, which halves the rows the basis spans. Unpaired
// LE, GE and EQ rows and free variables go through the same loop with
// infinite bounds. Because every certificate is checked on the unchanged
// LE/GE problem, the filter may solve any equivalent form: the final
// basis is mapped back onto the original rows for the exact side.
//
// Two tricks make the certificates verifiable despite round-off:
//
//   - Every solve starts from a *tightened* problem (every inequality
//     pulled in by a per-row margin δᵢ). A FEASIBLE claim returns its
//     vertex, which is δ-interior to the true feasible set and survives
//     both the float solve's error and the checker's rational rounding.
//   - An INFEASIBLE claim hands over the final phase-1 basis, whose exact
//     dual the checker recomputes without rounding
//     (simplex.Certifier.CertifyFarkasBasis). The tightened solve's basis
//     comes first; only when it does not certify does the caller ask for
//     the untightened solve (Workspace.Untightened). The exact Farkas
//     check proves infeasibility outright or rejects, never mis-verdicts.
//
// Pricing follows the problem's structure when the caller supplies it
// (Structure): a region LP row is an axis eᵢ dotted with the cone
// generators g_j, so the reduced costs are v·g_j for v = Σᵢ qᵢeᵢ — one
// short sparse dot per column. A problem without a hint prices through the
// same loop with its rows as axes and unit generators.
//
// A Workspace is not safe for concurrent use; pool one per worker next to
// the exact simplex.Workspace (internal/engine does exactly that).
package floatlp

import (
	"math"
	"math/big"
	"slices"

	"repro/internal/exact"
	"repro/internal/simplex"
)

// Status is the filter's claim about a problem.
type Status int

// Filter outcomes. Inconclusive means the filter could not produce a
// certificate-backed claim (numerical trouble, iteration cap, or a feasible
// set too thin to tighten) and the caller must use the exact solver.
const (
	Inconclusive Status = iota
	Feasible
	Infeasible
)

func (s Status) String() string {
	switch s {
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	}
	return "inconclusive"
}

// Outcome is the filter's claim plus its certificate. Point and Basis
// alias workspace storage: they are valid until the next solve.
type Outcome struct {
	Status Status
	// Point is a candidate feasible point (length NumVars) when Status ==
	// Feasible, produced from the tightened problem so it sits strictly
	// inside the true feasible set.
	Point []float64
	// Ray is always nil.
	//
	// Deprecated: infeasible claims are certified from Basis alone. The
	// field remains only because the bench module (bench/trace.go) still
	// reads it.
	Ray []float64
	// Basis is the final phase-1 basis when Status == Infeasible, mapped
	// onto the problem's own rows: basic columns, row sign flips and row
	// scales, for an exact dual solve (simplex.Certifier.CertifyFarkasBasis).
	Basis simplex.FarkasBasis
}

// Sparse is a sparse vector: Val[t] at index Idx[t].
type Sparse struct {
	Idx []int
	Val []float64
}

// Structure factors a problem's constraint matrix for pricing. It
// describes problems made of LE/GE row pairs only, pair i with the
// coefficients aᵢⱼ = Axes[i]·Gens[j] (core.RegionLP's shape: principal
// axes and cone generators). It only steers pricing — pivots read the
// problem's own coefficients and every claim is certified exactly — and a
// hint that does not fit the problem's shape is ignored.
type Structure struct {
	Axes [][]float64
	Gens []Sparse
}

// Solver tolerances. The certificate checkers protect correctness, so these
// only trade filter hit rate against wasted exact work.
const (
	// tolDJ is the reduced-cost threshold for entering columns.
	tolDJ = 1e-9
	// tolPiv is the smallest pivot magnitude accepted in the ratio test.
	tolPiv = 1e-8
	// tightenRel scales the per-row interiorness margin δᵢ.
	tightenRel = 1e-9
	// feasRel scales the phase-1 objective threshold separating "feasible"
	// from "infeasible" claims.
	feasRel = 1e-7
	// iterFactor bounds simplex iterations at iterFactor·(2m+n) for m
	// solved rows and n variables.
	iterFactor = 64
	// partialMin is the structural column count from which pricing
	// scans a quarter of the columns per iteration (see choose).
	partialMin = 128
)

// Row kinds of the solved form. Every row reads a·x − s = b over its slack
// s ∈ [lo, up]: a range row merges an LE row and the GE row after it.
const (
	rowRange = iota // a·x − s = lo, s ∈ [0, hi−lo]
	rowLE           // a·x − s = hi, s ∈ (−∞, 0]
	rowGE           // a·x − s = lo, s ∈ [0, ∞)
	rowEQ           // a·x = lo, no slack
)

// Column states. Structural column j < nVars is variable j (free ones at 0
// while nonbasic), nVars+r is row r's slack and nVars+m+r its artificial.
const (
	atLower = iota
	atUpper
	atZero // nonbasic free variable
	inBasis
	retired // artificial that left the basis: never re-enters
)

// Workspace holds the float conversion of a problem and the revised-simplex
// state, all reused across solves so the hot loop allocates only on growth.
type Workspace struct {
	// Conversion of the current problem (row-equilibrated).
	nVars int
	free  []bool
	nOrig int       // rows of the problem
	m     int       // rows of the solved form
	coef  []float64 // m × nVars row-major, scaled by 1/scl
	cols  []float64 // the same, nVars × m column-major
	invN  []float64 // 1/‖column j‖₂, the pricing weight of variable j
	kind  []int8
	orig  []int     // first problem row of each solved row
	lo    []float64 // scaled GE-side right-hand side (EQ: the right-hand side)
	hi    []float64 // scaled LE-side right-hand side
	nrm1  []float64 // ‖aᵢ‖₁ of the scaled row
	scl   []float64
	maxB  float64

	// Pricing factorisation: axes[r]·gens[j] is row r's coefficient of
	// variable j times 1/axW[r].
	axes [][]float64
	axW  []float64
	gens []Sparse
	nc   int
	unit []Sparse // unit generators of unstructured problems
	v    []float64

	// One solve, in equilibrated units: row r reads
	// σᵣ(aᵣ·x − sᵣ) + artᵣ = σᵣbᵣ with its slack sᵣ ∈ [sLoᵣ, sUpᵣ].
	b   []float64
	sig []float64
	sLo []float64
	sUp []float64

	// Revised-simplex state.
	binv  []float64 // m × m row-major
	xb    []float64
	basis []int
	stat  []int8 // per column: atLower, atUpper, atZero, inBasis, retired
	y     []float64
	d     []float64
	a     []float64

	point []float64
	bcols []int
	bsig  []float64
	bscl  []float64

	// next is where the next partial pricing scan starts; retry is set
	// while the untightened solve is still available for the current
	// problem; runs counts phase-1 solves (see Phase1Runs).
	next  int
	retry bool
	runs  uint64
}

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace { return &Workspace{} }

// Phase1Runs returns the number of phase-1 solves the workspace has run.
func (w *Workspace) Phase1Runs() uint64 { return w.runs }

// Feasibility runs the float filter on p (objective ignored — this tier
// serves pure feasibility queries) with no pricing hint. See
// FeasibilityStructured.
func (w *Workspace) Feasibility(p *simplex.Problem) Outcome {
	return w.FeasibilityStructured(p, Structure{})
}

// FeasibilityStructured runs the float filter on p, pricing through s when
// it fits p, and returns its certificate-backed claim. An infeasible claim
// carries the tightened solve's basis; if it does not certify, Untightened
// re-solves p without tightening. p is not mutated and may be shared with
// concurrent exact solves.
func (w *Workspace) FeasibilityStructured(p *simplex.Problem, s Structure) Outcome {
	w.retry = false
	if !w.load(p) {
		return Outcome{Status: Inconclusive}
	}
	if w.m == 0 {
		// No constraints: the origin is feasible.
		w.point = zero(w.point, w.nVars)
		return Outcome{Status: Feasible, Point: w.point}
	}
	w.price(s)
	obj, ok := w.phase1(true)
	if !ok {
		w.retry = true
		return w.Untightened()
	}
	if obj <= w.feasTol() {
		return Outcome{Status: Feasible, Point: w.extractPoint()}
	}
	w.retry = true
	return Outcome{Status: Infeasible, Basis: w.extractBasis()}
}

// Untightened re-solves the problem of the last FeasibilityStructured call
// without tightening and returns its infeasibility claim: the original
// problem's own phase-1 basis. It is Inconclusive when that call made no
// infeasible claim from the tightened solve, when the original problem
// looks feasible (a feasible set too thin for a rounding-robust point
// certificate), or on numerical failure.
func (w *Workspace) Untightened() Outcome {
	if !w.retry {
		return Outcome{Status: Inconclusive}
	}
	w.retry = false
	obj, ok := w.phase1(false)
	if !ok || obj <= w.feasTol() {
		return Outcome{Status: Inconclusive}
	}
	return Outcome{Status: Infeasible, Basis: w.extractBasis()}
}

func (w *Workspace) feasTol() float64 { return feasRel * (1 + w.maxB) }

func zero(s []float64, n int) []float64 {
	s = grow(s, n)
	clear(s)
	return s
}

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// int64Exact reports whether x converts to float64 without rounding.
func int64Exact(x int64) bool { return x >= -(1<<53) && x <= 1<<53 }

// loadRow fills row with constraint i's float64 coefficients and returns
// the row's max magnitude and right-hand side: each value is the exact
// rational scale·aⱼ of the problem's integer form rounded to the nearest
// float64. When scale's numerator and denominator and every product
// aⱼ·num(scale) convert exactly (≤ 2⁵³), one correctly-rounded IEEE
// division per entry does it, bit-identical to big.Rat.Float64; otherwise
// the row goes through big.Rat. ok=false flags a non-finite value.
func loadRow(p *simplex.Problem, i int, row []float64) (maxAbs, rhs float64, ok bool) {
	if a, scale, narrow := p.IntRow(i); narrow && int64Exact(scale.Num()) && int64Exact(scale.Den()) {
		num, den := scale.Num(), float64(scale.Den())
		fast := true
		for j, x := range a {
			v, fits := exact.MulInt64(x, num)
			if !fits || !int64Exact(v) {
				fast = false
				break
			}
			f := float64(v) / den
			if j == len(row) {
				rhs = f
				break
			}
			row[j] = f
			if a := math.Abs(f); a > maxAbs {
				maxAbs = a
			}
		}
		if fast {
			// Exactly-converting values are finite.
			return maxAbs, rhs, true
		}
		maxAbs = 0
	}
	a, scale := p.BigIntRow(i)
	v := new(big.Rat)
	for j, x := range a {
		f, _ := v.Mul(v.SetInt(x), scale).Float64()
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return 0, 0, false
		}
		if j == len(row) {
			rhs = f
			break
		}
		row[j] = f
		if a := math.Abs(f); a > maxAbs {
			maxAbs = a
		}
	}
	return maxAbs, rhs, true
}

// loadRHS returns constraint i's right-hand side as loadRow converts it.
func loadRHS(p *simplex.Problem, i int) (float64, bool) {
	if a, scale, narrow := p.IntRow(i); narrow && int64Exact(scale.Num()) && int64Exact(scale.Den()) {
		if v, fits := exact.MulInt64(a[len(a)-1], scale.Num()); fits && int64Exact(v) {
			return float64(v) / float64(scale.Den()), true
		}
	}
	a, scale := p.BigIntRow(i)
	v := new(big.Rat).SetInt(a[len(a)-1])
	f, _ := v.Mul(v, scale).Float64()
	return f, !math.IsNaN(f) && !math.IsInf(f, 0)
}

// sameIntCoeffs reports whether constraints i and k have the same integer
// form up to the right-hand side — the same primitive coefficients under
// the same scale, hence the same exact coefficients.
func sameIntCoeffs(p *simplex.Problem, i, k int) bool {
	a, s, ok := p.IntRow(i)
	b, t, okB := p.IntRow(k)
	return ok && okB && s == t && slices.Equal(a[:len(a)-1], b[:len(b)-1])
}

// load converts p into the row-equilibrated solved form, merging each LE
// row that is followed by a GE row with equal float coefficients and a
// lower bound not above its upper bound into one range row. It fails (→
// Inconclusive) on non-finite values, which the exact solver handles by
// its own rules.
func (w *Workspace) load(p *simplex.Problem) bool {
	n := p.NumVars
	w.nVars = n
	w.nOrig = len(p.Constraints)
	w.free = grow(w.free, n)
	for j := range w.free {
		w.free[j] = p.Free != nil && p.Free[j]
	}
	// Rows load in place at their problem index; solved row r ≤ i then
	// compacts over them, so a source row is never overwritten early.
	w.coef = grow(w.coef, w.nOrig*n)
	w.lo = grow(w.lo, w.nOrig)
	w.hi = grow(w.hi, w.nOrig)
	w.nrm1 = grow(w.nrm1, w.nOrig)
	w.scl = grow(w.scl, w.nOrig)
	w.kind = grow(w.kind, w.nOrig)
	w.orig = grow(w.orig, w.nOrig)
	w.maxB = 0
	row := func(i int) []float64 { return w.coef[i*n : (i+1)*n] }
	next := -1 // problem row already loaded into its slot by a pairing test
	var nextMax, nextRHS float64
	m := 0
	for i := 0; i < w.nOrig; i++ {
		maxAbs, rhs := nextMax, nextRHS
		if next != i {
			var ok bool
			if maxAbs, rhs, ok = loadRow(p, i, row(i)); !ok {
				return false
			}
		}
		r := m
		m++
		w.orig[r], w.lo[r], w.hi[r] = i, rhs, rhs
		switch p.Constraints[i].Rel {
		case simplex.LE:
			w.kind[r] = rowLE
			if i+1 < w.nOrig && p.Constraints[i+1].Rel == simplex.GE {
				var lo float64
				same, ok := sameIntCoeffs(p, i, i+1), true
				if same {
					// Equal exact coefficients: the GE row's floats are row
					// i's, and only its right-hand side needs converting.
					lo, ok = loadRHS(p, i+1)
				} else {
					nextMax, nextRHS, ok = loadRow(p, i+1, row(i+1))
					next, lo = i+1, nextRHS
					same = slices.Equal(row(i), row(i+1))
				}
				if !ok {
					return false
				}
				if same && lo <= rhs {
					w.kind[r], w.lo[r] = rowRange, lo
					i++
				}
			}
		case simplex.GE:
			w.kind[r] = rowGE
		default:
			w.kind[r] = rowEQ
		}
		if o := w.orig[r]; o != r {
			copy(row(r), row(o))
		}
		// Row equilibration: divide by ‖aᵢ‖∞ so coefficients are O(1) and
		// the solver tolerances are meaningful across problem scales.
		scl := 1.0
		if maxAbs > 0 {
			scl = maxAbs
		}
		nrm1 := 0.0
		for j, a := range row(r) {
			a /= scl
			row(r)[j] = a
			nrm1 += math.Abs(a)
		}
		w.scl[r], w.nrm1[r] = scl, nrm1
		w.lo[r] /= scl
		w.hi[r] /= scl
		w.maxB = math.Max(w.maxB, math.Max(math.Abs(w.lo[r]), math.Abs(w.hi[r])))
	}
	w.m = m
	w.cols = grow(w.cols, n*m)
	for r := 0; r < m; r++ {
		for j, a := range row(r) {
			w.cols[j*m+r] = a
		}
	}
	w.invN = grow(w.invN, n)
	for j := range w.invN {
		s := 0.0
		for _, a := range w.cols[j*m : (j+1)*m] {
			s += a * a
		}
		w.invN[j] = 1
		if s > 0 {
			w.invN[j] = 1 / math.Sqrt(s)
		}
	}
	return true
}

// price sets up the pricing factorisation: s when it fits the loaded
// problem, the problem's own rows and unit generators otherwise.
func (w *Workspace) price(s Structure) {
	m, n := w.m, w.nVars
	w.axes = grow(w.axes, m)
	w.axW = grow(w.axW, m)
	if w.fits(s) {
		copy(w.axes, s.Axes)
		for r := range w.axW {
			w.axW[r] = 1 / w.scl[r]
		}
		w.gens, w.nc = s.Gens, len(s.Axes[0])
	} else {
		for r := range w.axes {
			w.axes[r] = w.coef[r*n : (r+1)*n]
			w.axW[r] = 1
		}
		if len(w.unit) < n {
			idx, one := make([]int, n), make([]float64, n)
			w.unit = make([]Sparse, n)
			for j := range w.unit {
				idx[j], one[j] = j, 1
				w.unit[j] = Sparse{Idx: idx[j : j+1], Val: one[j : j+1]}
			}
		}
		w.gens, w.nc = w.unit[:n], n
	}
	w.v = grow(w.v, w.nc)
}

// fits reports whether s describes the loaded problem's shape: one axis
// per row, every row a merged range pair, one generator per variable, no
// free variable, and every index inside the axes.
func (w *Workspace) fits(s Structure) bool {
	if len(s.Axes) != w.m || len(s.Gens) != w.nVars || w.m == 0 || w.m*2 != w.nOrig {
		return false
	}
	nc := len(s.Axes[0])
	for r, ax := range s.Axes {
		if len(ax) != nc || w.kind[r] != rowRange {
			return false
		}
	}
	for j, g := range s.Gens {
		if w.free[j] || len(g.Idx) != len(g.Val) {
			return false
		}
		for _, k := range g.Idx {
			if k < 0 || k >= nc {
				return false
			}
		}
	}
	return true
}

// prepare sets the right-hand sides and slack bounds of one solve,
// optionally tightening every inequality by its interiorness margin δᵢ.
func (w *Workspace) prepare(tighten bool) {
	m := w.m
	w.b = grow(w.b, m)
	w.sLo = grow(w.sLo, m)
	w.sUp = grow(w.sUp, m)
	inf := math.Inf(1)
	// xScale is a crude bound on solution magnitude for the margin: with
	// equilibrated rows, basic values are O(‖b‖∞).
	xScale := 1 + w.maxB
	margin := func(r int, rhs float64) float64 {
		if !tighten {
			return 0
		}
		return tightenRel * (1 + math.Abs(rhs) + w.nrm1[r]*xScale)
	}
	for r := 0; r < m; r++ {
		lo, hi := w.lo[r], w.hi[r]
		switch w.kind[r] {
		case rowRange:
			lo, hi = lo+margin(r, lo), hi-margin(r, hi)
			if lo > hi {
				// The slab is thinner than its margins: solve its midline.
				lo = lo/2 + hi/2
				hi = lo
			}
			w.b[r], w.sLo[r], w.sUp[r] = lo, 0, hi-lo
		case rowLE:
			w.b[r], w.sLo[r], w.sUp[r] = hi-margin(r, hi), -inf, 0
		case rowGE:
			w.b[r], w.sLo[r], w.sUp[r] = lo+margin(r, lo), 0, inf
		default:
			w.b[r], w.sLo[r], w.sUp[r] = lo, 0, 0
		}
	}
}

// bounds returns column j's bounds.
func (w *Workspace) bounds(j int) (lo, up float64) {
	n, m := w.nVars, w.m
	switch {
	case j < n:
		if w.free[j] {
			return math.Inf(-1), math.Inf(1)
		}
		return 0, math.Inf(1)
	case j < n+m:
		return w.sLo[j-n], w.sUp[j-n]
	}
	return 0, math.Inf(1)
}

// value returns nonbasic column j's value.
func (w *Workspace) value(j int) float64 {
	lo, up := w.bounds(j)
	switch w.stat[j] {
	case atLower:
		return lo
	case atUpper:
		return up
	}
	return 0
}

// phase1 runs bounded-variable revised primal simplex on min Σ artificials
// for the (optionally tightened) solved form. It returns the phase-1
// objective and ok=false on numerical failure (no acceptable pivot,
// iteration cap).
func (w *Workspace) phase1(tighten bool) (obj float64, ok bool) {
	w.runs++
	w.next = 0
	w.prepare(tighten)
	m, n := w.m, w.nVars
	nCols := n + 2*m
	w.binv = zero(w.binv, m*m)
	w.xb = grow(w.xb, m)
	w.basis = grow(w.basis, m)
	w.stat = grow(w.stat, nCols)
	w.sig = grow(w.sig, m)
	w.y = grow(w.y, m)
	w.d = grow(w.d, m)
	w.a = grow(w.a, m)
	for j := 0; j < n; j++ {
		w.stat[j] = atLower
		if w.free[j] {
			w.stat[j] = atZero
		}
	}

	// Crash basis at x = 0: row r needs s = −bᵣ. A slack that can take that
	// value is basic (σ = −1 puts +1 on it); otherwise the slack sits at
	// the bound nearer −bᵣ and an artificial carries the rest, with σ
	// making its value σ(bᵣ + s) positive.
	nArt := 0
	for r := 0; r < m; r++ {
		w.binv[r*m+r] = 1
		s, art := n+r, n+m+r
		w.stat[art] = retired
		lo, up, b := w.sLo[r], w.sUp[r], w.b[r]
		switch {
		case w.kind[r] == rowEQ:
			w.stat[s] = retired // no slack
			w.sig[r] = 1
			if b < 0 {
				w.sig[r] = -1
			}
			w.basis[r], w.stat[art], w.xb[r] = art, inBasis, math.Abs(b)
			nArt++
			continue
		case -b >= lo && -b <= up:
			w.sig[r] = -1
			w.basis[r], w.stat[s], w.xb[r] = s, inBasis, -b
			continue
		case -b < lo:
			w.sig[r], w.stat[s] = 1, atLower
		default:
			w.sig[r], w.stat[s] = -1, atUpper
		}
		w.basis[r], w.stat[art] = art, inBasis
		w.xb[r] = w.sig[r] * (b + w.value(s))
		nArt++
	}
	if nArt == 0 {
		return 0, true
	}

	maxIter := iterFactor * (2*m + n)
	blandAfter := maxIter / 2
	for iter := 0; iter < maxIter; iter++ {
		// Dual prices y = c_B·B⁻¹ with phase-1 costs (1 on artificials).
		clear(w.y)
		artLeft := false
		for k := 0; k < m; k++ {
			if w.basis[k] < n+m {
				continue
			}
			artLeft = true
			for i, v := range w.binv[k*m : (k+1)*m] {
				w.y[i] += v
			}
		}
		if !artLeft {
			return 0, true
		}

		enter, dir := w.choose(iter > blandAfter)
		if enter < 0 {
			// Optimal: objective is the artificial mass still basic.
			obj = 0
			for k := 0; k < m; k++ {
				if w.basis[k] >= n+m {
					obj += math.Max(w.xb[k], 0)
				}
			}
			return obj, true
		}

		// Column update d = B⁻¹·A_enter.
		if enter < n {
			col := w.cols[enter*m : (enter+1)*m]
			for k, v := range col {
				w.a[k] = w.sig[k] * v
			}
			for i := 0; i < m; i++ {
				s := 0.0
				for k, v := range w.binv[i*m : (i+1)*m] {
					s += v * w.a[k]
				}
				w.d[i] = s
			}
		} else {
			r := enter - n
			for i := 0; i < m; i++ {
				w.d[i] = -w.sig[r] * w.binv[i*m+r]
			}
		}

		// Ratio test: the entering column moves by dir·θ and basic value i
		// by −dir·θ·dᵢ. Ties prefer expelling artificials, then lower basis
		// index — the Bland-flavoured tie-break that drives phase 1 home.
		leave := -1
		toUpper := false
		best := math.Inf(1)
		for i := 0; i < m; i++ {
			alpha := float64(dir) * w.d[i]
			var ratio float64
			up := false
			lo, hi := w.bounds(w.basis[i])
			switch {
			case alpha > tolPiv && !math.IsInf(lo, -1):
				ratio = math.Max(w.xb[i]-lo, 0) / alpha
			case alpha < -tolPiv && !math.IsInf(hi, 1):
				ratio, up = math.Max(hi-w.xb[i], 0)/-alpha, true
			default:
				continue
			}
			if ratio < best-1e-12 ||
				(ratio <= best+1e-12 && leave >= 0 && w.basis[i] >= n+m && w.basis[leave] < n+m) {
				leave, best, toUpper = i, ratio, up
			}
		}
		lo, hi := w.bounds(enter)
		if span := hi - lo; span < best && !(leave >= 0 && w.basis[leave] >= n+m && span >= best-1e-12) {
			// The entering slack reaches its other bound first: flip it.
			for i := 0; i < m; i++ {
				w.xb[i] -= float64(dir) * span * w.d[i]
			}
			if w.stat[enter] == atLower {
				w.stat[enter] = atUpper
			} else {
				w.stat[enter] = atLower
			}
			continue
		}
		if leave < 0 {
			// Phase 1 is bounded below by 0; an unbounded column is float
			// breakdown, not information.
			return 0, false
		}

		// Pivot: update basic values, B⁻¹ and the basis.
		entered := w.value(enter) + float64(dir)*best
		for i := 0; i < m; i++ {
			w.xb[i] -= float64(dir) * best * w.d[i]
		}
		w.xb[leave] = entered
		piv := w.d[leave]
		prow := w.binv[leave*m : (leave+1)*m]
		for k := range prow {
			prow[k] /= piv
		}
		for i := 0; i < m; i++ {
			f := w.d[i]
			if i == leave || f == 0 {
				continue
			}
			brow := w.binv[i*m : (i+1)*m]
			for k, v := range prow {
				brow[k] -= f * v
			}
		}
		out := w.basis[leave]
		switch {
		case out >= n+m:
			w.stat[out] = retired
		case toUpper:
			w.stat[out] = atUpper
		default:
			w.stat[out] = atLower
		}
		w.basis[leave] = enter
		w.stat[enter] = inBasis
	}
	return 0, false
}

// choose prices the nonbasic columns against the current duals y and
// returns the entering column and its direction (+1 up, −1 down), or -1.
// The rule is Dantzig's on reduced costs scaled by the column's norm (a
// slack's is 1), over a window of the structural columns on wide
// problems, degrading to Bland (first eligible) for anti-cycling.
// Structural reduced costs are −v·g_j for v = Σᵣ σᵣyᵣ·axWᵣ·axesᵣ; a
// slack's is σᵣyᵣ.
func (w *Workspace) choose(bland bool) (enter, dir int) {
	m, n := w.m, w.nVars
	v := w.v
	clear(v)
	for r := 0; r < m; r++ {
		q := w.sig[r] * w.y[r] * w.axW[r]
		if q == 0 {
			continue
		}
		for k, a := range w.axes[r] {
			v[k] += q * a
		}
	}
	enter = -1
	best := 0.0
	// Partial pricing on wide problems: the scan resumes where the last
	// one stopped and settles for the best of a quarter of the columns
	// once that holds a candidate. Bland's rule scans them all in order.
	start, window := 0, n
	if !bland && n >= partialMin {
		start, window = w.next, n/4
	}
	c := 0
	for ; c < n && (c < window || enter < 0); c++ {
		j := start + c
		if j >= n {
			j -= n
		}
		st := w.stat[j]
		if st == inBasis {
			continue
		}
		g := &w.gens[j]
		dot := 0.0
		for t, k := range g.Idx {
			dot += v[k] * g.Val[t]
		}
		// x_j improves going up when dot > 0, and going down (free x_j
		// only) when dot < 0.
		d := 1
		if dot < 0 {
			if st != atZero {
				continue
			}
			dot, d = -dot, -1
		}
		if dot <= tolDJ {
			continue
		}
		if bland {
			return j, d
		}
		if score := dot * w.invN[j]; score > best {
			enter, dir, best = j, d, score
		}
	}
	if window < n {
		w.next = (start + c) % n
	}
	for r := 0; r < m; r++ {
		s := n + r
		st := w.stat[s]
		if st == inBasis || st == retired || w.sLo[r] == w.sUp[r] {
			continue
		}
		// Going up improves when σᵣyᵣ < 0, going down when σᵣyᵣ > 0.
		dj, d := w.sig[r]*w.y[r], 1
		if st == atUpper {
			dj, d = -dj, -1
		}
		if dj >= -tolDJ {
			continue
		}
		if bland {
			return s, d
		}
		if -dj > best {
			enter, dir, best = s, d, -dj
		}
	}
	return enter, dir
}

// extractPoint maps the current basic solution back to original variables,
// clamping float-noise negatives on sign-restricted coordinates.
func (w *Workspace) extractPoint() []float64 {
	w.point = zero(w.point, w.nVars)
	for k, col := range w.basis {
		if col < w.nVars {
			w.point[col] = w.xb[k]
		}
	}
	for j, x := range w.point {
		if x < 0 && !w.free[j] {
			w.point[j] = 0
		}
	}
	return w.point
}

// extractBasis maps the final phase-1 basis onto the problem's LE/GE rows
// in simplex.FarkasBasis column ids, with every row's sign flip and scale.
// A range row stands for its LE row i and GE row i+1, whose slacks are
// s_LE = (hi−lo) − s and s_GE = s: a basic s makes both basic, an s at its
// lower bound (the GE side tight) makes the LE slack basic, and one at its
// upper bound the GE slack. A basic artificial goes to the tight side. A
// fixed s (a zero-width slab) is tight on the side its dual's sign allows.
func (w *Workspace) extractBasis() simplex.FarkasBasis {
	n, m, nOrig := w.nVars, w.m, w.nOrig
	w.bcols = w.bcols[:0]
	w.bsig = grow(w.bsig, nOrig)
	w.bscl = grow(w.bscl, nOrig)
	geTight := func(r int) bool {
		if w.sLo[r] == w.sUp[r] {
			return w.sig[r]*w.y[r] >= 0
		}
		return w.stat[n+r] == atLower
	}
	for r := 0; r < m; r++ {
		i := w.orig[r]
		w.bsig[i], w.bscl[i] = w.sig[r], w.scl[r]
		if w.kind[r] != rowRange {
			continue
		}
		w.bsig[i+1], w.bscl[i+1] = w.sig[r], w.scl[r]
		if w.stat[n+r] == inBasis {
			continue
		}
		if geTight(r) {
			w.bcols = append(w.bcols, n+i) // LE slack basic
		} else {
			w.bcols = append(w.bcols, n+i+1)
		}
	}
	for _, col := range w.basis {
		switch {
		case col < n:
			w.bcols = append(w.bcols, col)
		case col < n+m:
			i := w.orig[col-n]
			w.bcols = append(w.bcols, n+i)
			if w.kind[col-n] == rowRange {
				w.bcols = append(w.bcols, n+i+1)
			}
		default:
			r := col - n - m
			i := w.orig[r]
			if w.kind[r] == rowRange && geTight(r) {
				i++
			}
			w.bcols = append(w.bcols, n+nOrig+i)
		}
	}
	return simplex.FarkasBasis{Cols: w.bcols, Sign: w.bsig, Scale: w.bscl}
}
