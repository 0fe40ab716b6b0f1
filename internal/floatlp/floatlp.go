// Package floatlp is the float64 tier of CounterPoint's two-tier
// feasibility solver: a dense revised simplex over hardware floats that
// solves the same simplex.Problem shape as the exact rational solver and
// emits a *certificate* instead of a bare status — a candidate feasible
// point when it believes the problem feasible, a Farkas dual ray when it
// believes it infeasible.
//
// The filter never decides a verdict on its own. Its certificates are
// verified over ℚ by internal/simplex (CertifyPoint / CertifyFarkas,
// rational dot products only), and anything that fails exact verification
// falls back to the exact two-phase simplex, so verdicts remain bit-exact
// by construction. This is the QSopt_ex / SoPlex float-filtering scheme
// specialised to pure feasibility: hardware floats do the pivoting, exact
// arithmetic only checks.
//
// Two tricks make the certificates verifiable despite round-off:
//
//   - FEASIBLE claims are produced from a *tightened* problem (every
//     inequality pulled in by a per-row margin δᵢ), so the returned vertex
//     is δ-interior to the true feasible set and survives both the float
//     solve's error and the checker's rational rounding.
//   - INFEASIBLE claims re-solve the original (untightened) problem and
//     hand over the phase-1 dual ray together with the final phase-1
//     basis. The ray is checked after rounding; the basis lets the exact
//     side recompute the dual without rounding (simplex.FarkasBasis).
//     Either exact Farkas check proves infeasibility outright or rejects,
//     never mis-verdicts.
//
// A Workspace is not safe for concurrent use; pool one per worker next to
// the exact simplex.Workspace (internal/engine does exactly that).
package floatlp

import (
	"math"
	"math/big"

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

// Outcome is the filter's claim plus its certificate. Point, Ray and Basis
// alias workspace storage: they are valid until the next Feasibility call.
type Outcome struct {
	Status Status
	// Point is a candidate feasible point (length NumVars) when Status ==
	// Feasible, produced from the tightened problem so it sits strictly
	// inside the true feasible set.
	Point []float64
	// Ray holds candidate Farkas multipliers (one per constraint, max
	// magnitude 1) when Status == Infeasible.
	Ray []float64
	// Basis is the final basis of the untightened phase 1 when Status ==
	// Infeasible: basic columns, row sign flips and row scales, for an
	// exact dual solve (simplex.Certifier.CertifyFarkasBasis).
	Basis simplex.FarkasBasis
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
	// iterFactor bounds simplex iterations at iterFactor·(m+n).
	iterFactor = 64
)

// Workspace holds the float conversion of a problem and the revised-simplex
// state, all reused across Feasibility calls so the hot loop allocates only
// on growth.
type Workspace struct {
	// Conversion of the current problem (row-equilibrated, original form).
	nVars   int
	mapPos  []int
	mapNeg  []int // -1 when the variable is not free
	nStruct int   // structural columns after free-variable splitting
	m       int
	coef    []float64 // m × nVars row-major, scaled by 1/rowScale
	rowRHS  []float64 // scaled
	rowNrm1 []float64 // ‖aᵢ‖₁ of the scaled row
	rowScl  []float64
	rel     []simplex.Rel
	slack   []int // slack column per row, -1 for EQ
	colVar  []int // original variable per structural column
	slackOf []int // row per slack column (indexed from nStruct)
	nReal   int   // structural + slack columns
	maxAbsB float64

	// Standard-form data for one solve (sign-normalised, b ≥ 0).
	cols []float64 // nReal × m column-major
	b    []float64
	sig  []float64 // row sign flips σᵢ

	// Revised-simplex state.
	binv    []float64 // m × m row-major
	xb      []float64
	basis   []int // < nReal real column, ≥ nReal artificial for row basis[k]-nReal
	inBasis []bool
	y       []float64
	d       []float64

	point []float64
	ray   []float64
	bcols []int // final basis in simplex.FarkasBasis column ids
}

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace { return &Workspace{} }

// Feasibility runs the float filter on p (objective ignored — this tier
// serves pure feasibility queries) and returns its certificate-backed
// claim. p is not mutated and may be shared with concurrent exact solves.
func (w *Workspace) Feasibility(p *simplex.Problem) Outcome {
	if !w.load(p) {
		return Outcome{Status: Inconclusive}
	}
	if w.m == 0 {
		// No constraints: the origin is feasible.
		w.point = zero(w.point, w.nVars)
		return Outcome{Status: Feasible, Point: w.point}
	}
	if obj, ok := w.phase1(true); ok && obj <= w.feasTol() {
		return Outcome{Status: Feasible, Point: w.extractPoint()}
	}
	obj, ok := w.phase1(false)
	if !ok {
		return Outcome{Status: Inconclusive}
	}
	if obj > w.feasTol() {
		return Outcome{Status: Infeasible, Ray: w.extractRay(), Basis: w.extractBasis()}
	}
	// The original problem looks feasible but the tightened one did not:
	// the feasible set is too thin for a rounding-robust point certificate.
	return Outcome{Status: Inconclusive}
}

func (w *Workspace) feasTol() float64 { return feasRel * (1 + w.maxAbsB) }

func zero(s []float64, n int) []float64 {
	s = grow(s, n)
	for i := range s {
		s[i] = 0
	}
	return s
}

func grow(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growInt(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
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

// load converts p into row-equilibrated float64 form. It fails (→
// Inconclusive) on non-finite values, which the exact solver handles by
// its own rules.
func (w *Workspace) load(p *simplex.Problem) bool {
	w.nVars = p.NumVars
	w.m = len(p.Constraints)
	w.mapPos = growInt(w.mapPos, w.nVars)
	w.mapNeg = growInt(w.mapNeg, w.nVars)
	w.colVar = w.colVar[:0]
	n := 0
	for j := 0; j < w.nVars; j++ {
		w.mapPos[j] = n
		w.colVar = append(w.colVar, j)
		n++
		if p.Free != nil && p.Free[j] {
			w.mapNeg[j] = n
			w.colVar = append(w.colVar, j)
			n++
		} else {
			w.mapNeg[j] = -1
		}
	}
	w.nStruct = n
	w.coef = grow(w.coef, w.m*w.nVars)
	w.rowRHS = grow(w.rowRHS, w.m)
	w.rowNrm1 = grow(w.rowNrm1, w.m)
	w.rowScl = grow(w.rowScl, w.m)
	if cap(w.rel) < w.m {
		w.rel = make([]simplex.Rel, w.m)
	}
	w.rel = w.rel[:w.m]
	w.slack = growInt(w.slack, w.m)
	w.slackOf = w.slackOf[:0]
	w.maxAbsB = 0
	nSlack := 0
	for i := range p.Constraints {
		con := &p.Constraints[i]
		row := w.coef[i*w.nVars : (i+1)*w.nVars]
		maxAbs, rhs, ok := loadRow(p, i, row)
		if !ok {
			return false
		}
		// Row equilibration: divide by ‖aᵢ‖∞ so coefficients are O(1) and
		// the solver tolerances are meaningful across problem scales.
		scl := 1.0
		if maxAbs > 0 {
			scl = maxAbs
		}
		nrm1 := 0.0
		for j := range row {
			row[j] /= scl
			nrm1 += math.Abs(row[j])
		}
		w.rowScl[i] = scl
		w.rowRHS[i] = rhs / scl
		w.rowNrm1[i] = nrm1
		w.rel[i] = con.Rel
		if a := math.Abs(w.rowRHS[i]); a > w.maxAbsB {
			w.maxAbsB = a
		}
		if con.Rel == simplex.EQ {
			w.slack[i] = -1
		} else {
			w.slack[i] = w.nStruct + nSlack
			w.slackOf = append(w.slackOf, i)
			nSlack++
		}
	}
	w.nReal = w.nStruct + nSlack
	return true
}

// prepare builds the sign-normalised standard form (b ≥ 0) for one solve,
// optionally tightening every inequality by its interiorness margin δᵢ.
func (w *Workspace) prepare(tighten bool) {
	m, nReal := w.m, w.nReal
	w.cols = zero(w.cols, nReal*m)
	w.b = grow(w.b, m)
	w.sig = grow(w.sig, m)
	// xScale is a crude bound on solution magnitude for the margin: with
	// equilibrated rows, basic values are O(‖b‖∞).
	xScale := 1 + w.maxAbsB
	for i := 0; i < m; i++ {
		rhs := w.rowRHS[i]
		if tighten {
			delta := tightenRel * (1 + math.Abs(rhs) + w.rowNrm1[i]*xScale)
			switch w.rel[i] {
			case simplex.LE:
				rhs -= delta
			case simplex.GE:
				rhs += delta
			}
		}
		sig := 1.0
		if rhs < 0 {
			sig = -1
			rhs = -rhs
		}
		w.sig[i] = sig
		w.b[i] = rhs
		row := w.coef[i*w.nVars : (i+1)*w.nVars]
		for j := 0; j < w.nVars; j++ {
			v := sig * row[j]
			if v == 0 {
				continue
			}
			w.cols[w.mapPos[j]*m+i] = v
			if w.mapNeg[j] >= 0 {
				w.cols[w.mapNeg[j]*m+i] = -v
			}
		}
		if w.slack[i] >= 0 {
			s := sig
			if w.rel[i] == simplex.GE {
				s = -sig
			}
			w.cols[w.slack[i]*m+i] = s
		}
	}
}

// phase1 runs revised primal simplex on min Σ artificials for the
// (optionally tightened) standard form. It returns the phase-1 objective
// and ok=false on numerical failure (no acceptable pivot, iteration cap).
func (w *Workspace) phase1(tighten bool) (obj float64, ok bool) {
	w.prepare(tighten)
	m, nReal := w.m, w.nReal
	w.binv = zero(w.binv, m*m)
	w.xb = grow(w.xb, m)
	w.basis = growInt(w.basis, m)
	if cap(w.inBasis) < nReal {
		w.inBasis = make([]bool, nReal)
	}
	w.inBasis = w.inBasis[:nReal]
	for j := range w.inBasis {
		w.inBasis[j] = false
	}
	w.y = grow(w.y, m)
	w.d = grow(w.d, m)

	// Crash basis: a row whose slack has coefficient +1 after sign
	// normalisation seeds the basis with its slack; all other rows get an
	// artificial (column id nReal+i).
	nArt := 0
	for i := 0; i < m; i++ {
		w.binv[i*m+i] = 1
		w.xb[i] = w.b[i]
		if w.slack[i] >= 0 && w.cols[w.slack[i]*m+i] > 0 {
			w.basis[i] = w.slack[i]
			w.inBasis[w.slack[i]] = true
		} else {
			w.basis[i] = nReal + i
			nArt++
		}
	}
	if nArt == 0 {
		return 0, true
	}

	maxIter := iterFactor * (m + nReal)
	blandAfter := maxIter / 2
	for iter := 0; iter < maxIter; iter++ {
		// Dual prices y = c_B·B⁻¹ with phase-1 costs (1 on artificials).
		for i := 0; i < m; i++ {
			w.y[i] = 0
		}
		artLeft := false
		for k := 0; k < m; k++ {
			if w.basis[k] < nReal {
				continue
			}
			artLeft = true
			brow := w.binv[k*m : (k+1)*m]
			for i := 0; i < m; i++ {
				w.y[i] += brow[i]
			}
		}
		if !artLeft {
			return 0, true
		}

		// Pricing: reduced cost of real column j is −y·Aⱼ. Dantzig rule,
		// degrading to Bland (first eligible) for anti-cycling.
		enter := -1
		best := -tolDJ
		for j := 0; j < nReal; j++ {
			if w.inBasis[j] {
				continue
			}
			col := w.cols[j*m : (j+1)*m]
			r := 0.0
			for i := 0; i < m; i++ {
				r -= w.y[i] * col[i]
			}
			if r < -tolDJ && (iter > blandAfter || r < best) {
				enter = j
				best = r
				if iter > blandAfter {
					break
				}
			}
		}
		if enter < 0 {
			// Optimal: objective is the artificial mass still basic.
			obj = 0
			for k := 0; k < m; k++ {
				if w.basis[k] >= nReal {
					obj += math.Max(w.xb[k], 0)
				}
			}
			return obj, true
		}

		// Column update d = B⁻¹·A_enter and ratio test.
		col := w.cols[enter*m : (enter+1)*m]
		for i := 0; i < m; i++ {
			brow := w.binv[i*m : (i+1)*m]
			s := 0.0
			for k := 0; k < m; k++ {
				s += brow[k] * col[k]
			}
			w.d[i] = s
		}
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < m; i++ {
			if w.d[i] <= tolPiv {
				continue
			}
			ratio := math.Max(w.xb[i], 0) / w.d[i]
			// Ties prefer expelling artificials, then lower basis index —
			// the Bland-flavoured tie-break that drives phase 1 home.
			if ratio < bestRatio-1e-12 ||
				(ratio <= bestRatio+1e-12 && leave >= 0 && w.basis[i] >= nReal && w.basis[leave] < nReal) {
				leave = i
				bestRatio = ratio
			}
		}
		if leave < 0 {
			// Phase 1 is bounded below by 0; an unbounded column is float
			// breakdown, not information.
			return 0, false
		}

		// Pivot: update B⁻¹, basic values and the basis.
		piv := w.d[leave]
		prow := w.binv[leave*m : (leave+1)*m]
		for k := 0; k < m; k++ {
			prow[k] /= piv
		}
		w.xb[leave] /= piv
		for i := 0; i < m; i++ {
			if i == leave || w.d[i] == 0 {
				continue
			}
			f := w.d[i]
			brow := w.binv[i*m : (i+1)*m]
			for k := 0; k < m; k++ {
				brow[k] -= f * prow[k]
			}
			w.xb[i] -= f * w.xb[leave]
		}
		if w.basis[leave] < nReal {
			w.inBasis[w.basis[leave]] = false
		}
		w.basis[leave] = enter
		w.inBasis[enter] = true
	}
	return 0, false
}

// extractPoint maps the current basic solution back to original variables,
// clamping float-noise negatives on sign-restricted coordinates.
func (w *Workspace) extractPoint() []float64 {
	w.point = zero(w.point, w.nVars)
	for k := 0; k < w.m; k++ {
		if w.basis[k] >= w.nStruct {
			continue
		}
		v := w.xb[k]
		for j := 0; j < w.nVars; j++ {
			switch w.basis[k] {
			case w.mapPos[j]:
				w.point[j] += v
			case w.mapNeg[j]:
				w.point[j] -= v
			}
		}
	}
	for j := range w.point {
		if w.point[j] < 0 && w.mapNeg[j] < 0 {
			w.point[j] = 0
		}
	}
	return w.point
}

// extractRay maps the phase-1 dual prices back to per-constraint Farkas
// multipliers on the original (unscaled, unflipped) rows, normalised to
// unit max-magnitude.
func (w *Workspace) extractRay() []float64 {
	w.ray = grow(w.ray, w.m)
	scale := 0.0
	for i := 0; i < w.m; i++ {
		q := w.sig[i] * w.y[i] / w.rowScl[i]
		w.ray[i] = q
		if a := math.Abs(q); a > scale {
			scale = a
		}
	}
	if scale > 0 {
		for i := range w.ray {
			w.ray[i] /= scale
		}
	}
	return w.ray
}

// extractBasis translates the final phase-1 basis into simplex.FarkasBasis
// column ids, alongside the row sign flips and scales of the same solve.
func (w *Workspace) extractBasis() simplex.FarkasBasis {
	w.bcols = growInt(w.bcols, w.m)
	for k, col := range w.basis {
		switch {
		case col >= w.nReal:
			w.bcols[k] = w.nVars + w.m + col - w.nReal
		case col >= w.nStruct:
			w.bcols[k] = w.nVars + w.slackOf[col-w.nStruct]
		default:
			w.bcols[k] = w.colVar[col]
		}
	}
	return simplex.FarkasBasis{Cols: w.bcols, Sign: w.sig, Scale: w.rowScl}
}
