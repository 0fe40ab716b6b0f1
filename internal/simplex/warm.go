package simplex

// Warm-started dual simplex for pure feasibility LPs.
//
// The walk workloads solve long runs of region LPs that differ from their
// predecessor in one or two rows: the axis coefficient rows repeat
// verbatim (the axes are snapped to a dyadic grid and the covariance
// structure barely moves between neighbouring regions) while the
// quantised slab bounds drift. Solving each LP from a cold basis repays
// none of that overlap. A WarmSolver keeps the optimal basis of the
// previous LP in fraction-free integer form (the same Δ-scaled tableau as
// the primal kernel, see kernel.go) and re-enters via the dual simplex:
//
//   - A feasibility LP has a zero objective, so every basis is dual
//     feasible and no phase 1 is ever needed — after any edit the dual
//     method restores primal feasibility directly, usually in a handful
//     of pivots.
//   - A bound change on row r updates β alone: the slack column of the
//     tableau is Δ·B⁻¹·e_r, so β += T[·][slack_r]·δb.
//   - Deleting row r pivots its slack into the basis (a representational
//     pivot, no ratio test) and drops the then-unit row; the slack column
//     is retired and provably zero forever after.
//   - Adding a row extends the basis by the new row's slack:
//     t = Δ·a − Σᵢ a[basis(i)]·T[i] and β_new = Δ·b − Σᵢ a[basis(i)]·β_i,
//     with det(B') = det(B) so Δ is unchanged.
//
// Dual pivots may select negative pivot elements, which the fraction-free
// scheme (Δ > 0) cannot host directly; the pivot row — including β — is
// flipped first. A row flip negates one column of the basis matrix, a
// unimodular change under which every tableau entry remains a ± minor of
// the constraint system, so the exact-division invariant of pivotUpdate
// (asserted on the int64 path) is preserved.
//
// Verdicts need no pinning to a pivot sequence: feasibility is a property
// of the LP, not of the path taken, so a warm verdict is bit-identical to
// a cold one whenever both are correct — which the randomized
// differential tests against Workspace.SolveStatus enforce.
//
// A WarmSolver only seeds on the second sighting of a constraint family
// (two successive supported LPs sharing at least half their rows), so
// LPs that never repeat structure pay only the canonicalization scan.
// core.Solver consults it only for LPs the float filter leaves undecided
// (in practice those below the filter's size gate): on large LPs a
// certified filter verdict beats a cold dual seed.

import (
	"math"

	"repro/internal/exact"
)

// wcons is one live constraint in canonical warm form: the primitive
// LE-normalised coefficient vector prim (content ±1, GCD 1), the reduced
// right-hand side rn/rd, and the integer tableau form scale·prim·x ≤ bInt
// with bInt/scale = rn/rd.
type wcons struct {
	prim  []int64
	hash  uint64 // FNV-1a over prim, for multiset matching
	rn    int64  // canonical rhs numerator
	rd    int64  // canonical rhs denominator, > 0
	scale int64  // tableau row multiplier, > 0 (fixed at row creation)
	bInt  int64  // integer tableau rhs: bInt/scale == rn/rd
	slack int    // slack column index (≥ nv)
}

const (
	warmEmpty  = iota // no state
	warmPrimed        // canonical rows recorded, waiting for a second sighting
	warmSeeded        // live tableau
)

// WarmSolver carries a fraction-free dual-simplex tableau between
// consecutive feasibility solves of structurally overlapping LPs. It is
// not safe for concurrent use; pool one per worker (the engine keeps one
// per model inside each worker's scratch).
type WarmSolver struct {
	iarith

	state int
	nv    int // structural variable count of the current family

	cons []wcons // live constraints (order immaterial)

	// The tableau: m = len(cons) rows over width columns (nv structural
	// columns followed by one slack column per row ever added since the
	// last rebuild; retired slack columns are dead and identically zero).
	a        [][]ient
	b        []ient
	basis    []int  // basis[i] = column basic in row i
	basicRow []int  // column → row it is basic in, or −1
	dead     []bool // retired slack columns
	width    int

	// Per-call scratch, reused across solves.
	in       []wcons
	primPool [][]int64
	primUsed int
	consIdx  map[uint64][]int
	claimed  []bool
	matchOf  []int
	delSlack []int
	addRows  []int

	lastWarm   bool
	lastPivots uint64

	// warmSolves/coldSeeds/pivots accumulate across the solver's lifetime
	// (telemetry surfaced through core.SolverStats).
	warmSolves uint64
	coldSeeds  uint64
}

// NewWarmSolver returns an empty warm solver.
func NewWarmSolver() *WarmSolver {
	w := &WarmSolver{}
	w.initScratch()
	return w
}

// Drop discards all cached state; the next supported solve primes afresh.
func (w *WarmSolver) Drop() {
	w.state = warmEmpty
	w.cons = w.cons[:0]
	w.a = w.a[:0]
	w.b = w.b[:0]
	w.basis = w.basis[:0]
	w.width = 0
}

// LastSolve reports whether the previous successful Feasible call re-used
// a cached basis, and how many dual pivots it performed.
func (w *WarmSolver) LastSolve() (warm bool, dualPivots uint64) {
	return w.lastWarm, w.lastPivots
}

// Totals reports lifetime counts: basis-reusing solves and cold seeds
// (full dual solves that established a fresh tableau).
func (w *WarmSolver) Totals() (warmSolves, coldSeeds uint64) {
	return w.warmSolves, w.coldSeeds
}

// Feasible attempts to decide p against the cached basis. ok is false
// when p is outside the solver's domain (an objective, free variables,
// equality rows, or coefficients beyond int64), or when the solver
// declines to seed (first sighting of a constraint family, or too little
// overlap with the cached one) — the caller then decides p through its
// usual cold path. When ok is true, feasible is the exact verdict.
func (w *WarmSolver) Feasible(p *Problem) (feasible, ok bool) {
	w.lastWarm = false
	w.lastPivots = 0
	rows, supported := w.canonRows(p)
	if !supported {
		w.Drop()
		return false, false
	}
	if len(rows) == 0 {
		return true, true // no constraints: x = 0 is feasible
	}
	switch w.state {
	case warmSeeded:
		if p.NumVars == w.nv && w.diff(rows) {
			if f, solved := w.applyAndSolve(rows); solved {
				return f, true
			}
			// The warm path bailed (pivot cap, arithmetic edge) and
			// dropped its state; rows may alias rebuilt scratch, so the
			// sighting protocol restarts on the next call.
			return false, false
		}
		// Too little overlap: restart the sighting protocol on the new
		// family, solving this LP cold at the caller.
		w.prime(rows, p.NumVars)
		return false, false
	case warmPrimed:
		if p.NumVars == w.nv && w.overlapsPrimed(rows) {
			if f, solved := w.seed(rows, p.NumVars); solved {
				return f, true
			}
			return false, false
		}
		w.prime(rows, p.NumVars)
		return false, false
	default:
		w.prime(rows, p.NumVars)
		return false, false
	}
}

// --- canonicalization ---

// canonRows converts p's constraints to canonical warm form. supported is
// false when the problem lies outside the warm domain.
func (w *WarmSolver) canonRows(p *Problem) (rows []wcons, supported bool) {
	if p.Objective != nil {
		return nil, false
	}
	for _, f := range p.Free {
		if f {
			return nil, false
		}
	}
	w.primUsed = 0
	rows = w.in[:0]
	for i := range p.Constraints {
		rel := p.Constraints[i].Rel
		if rel == EQ {
			w.in = rows
			return nil, false
		}
		a, _, ok := p.IntRow(i)
		if !ok {
			w.in = rows
			return nil, false
		}
		rows = append(rows, w.canonRow(a, rel == GE))
	}
	w.in = rows
	return rows, true
}

// primRow hands out a scratch []int64 of length n from the per-call pool.
func (w *WarmSolver) primRow(n int) []int64 {
	if w.primUsed < len(w.primPool) {
		r := w.primPool[w.primUsed]
		if cap(r) < n {
			r = make([]int64, n)
			w.primPool[w.primUsed] = r
		}
		w.primUsed++
		return r[:n]
	}
	r := make([]int64, n)
	w.primPool = append(w.primPool, r)
	w.primUsed++
	return r
}

// canonRow canonicalises one ≤/≥ row given its primitive integer form a
// (coefficients, then the right-hand side). flip negates the row (GE →
// LE). The prim slice is pool-backed: valid until the next Feasible call,
// copied on retention.
func (w *WarmSolver) canonRow(a []int64, flip bool) wcons {
	n := len(a) - 1
	prim := w.primRow(n)
	var g uint64
	for _, x := range a[:n] {
		if x != 0 {
			g = exact.GCD64(g, exact.AbsU64(x))
		}
	}
	b := a[n]
	if flip {
		b = -b // integer-form entries are never MinInt64
	}
	if g == 0 {
		// Zero row: 0 ≤ rhs (after normalisation) — keep only the sign.
		clear(prim)
		s := int64(0)
		switch {
		case b > 0:
			s = 1
		case b < 0:
			s = -1
		}
		return wcons{prim: prim, hash: hashPrim(prim), rn: s, rd: 1, scale: 1, bInt: s}
	}
	gi := int64(g)
	for j, x := range a[:n] {
		q := x / gi
		if flip {
			q = -q
		}
		prim[j] = q
	}
	// prim·x ≤ b/g, reduced.
	rn, rd := b, gi
	if rn == 0 {
		rd = 1
	} else {
		gg := int64(exact.GCD64(exact.AbsU64(rn), uint64(rd)))
		rn /= gg
		rd /= gg
	}
	return wcons{prim: prim, hash: hashPrim(prim), rn: rn, rd: rd, scale: rd, bInt: rn}
}

// hashPrim is FNV-1a over the row's int64 coefficients.
func hashPrim(prim []int64) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range prim {
		u := uint64(x)
		for s := 0; s < 64; s += 8 {
			h ^= (u >> s) & 0xff
			h *= 1099511628211
		}
	}
	return h
}

func primEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, x := range a {
		if x != b[i] {
			return false
		}
	}
	return true
}

// --- sighting protocol ---

// prime records rows as the candidate family, copying the pool-backed
// prim slices into retained storage.
func (w *WarmSolver) prime(rows []wcons, nv int) {
	w.Drop()
	w.nv = nv
	w.cons = w.cons[:0]
	for _, rc := range rows {
		rc.prim = append([]int64(nil), rc.prim...)
		w.cons = append(w.cons, rc)
	}
	w.state = warmPrimed
}

// overlapsPrimed reports whether at least half of rows match the primed
// family by coefficient vector.
func (w *WarmSolver) overlapsPrimed(rows []wcons) bool {
	matched := w.matchRows(rows)
	return matched*2 >= len(rows)
}

// matchRows runs the multiset matching of rows against w.cons and
// returns the match count (exact or rhs-only). Side effects: w.matchOf,
// w.claimed, w.delSlack, w.addRows are (re)filled.
func (w *WarmSolver) matchRows(rows []wcons) int {
	if w.consIdx == nil {
		w.consIdx = make(map[uint64][]int)
	}
	for k := range w.consIdx {
		delete(w.consIdx, k)
	}
	for i := range w.cons {
		w.consIdx[w.cons[i].hash] = append(w.consIdx[w.cons[i].hash], i)
	}
	w.claimed = w.claimed[:0]
	for range w.cons {
		w.claimed = append(w.claimed, false)
	}
	w.matchOf = w.matchOf[:0]
	for range rows {
		w.matchOf = append(w.matchOf, -1)
	}
	matched := 0
	// Pass 1: exact matches (coefficients and rhs).
	for ri := range rows {
		r := &rows[ri]
		for _, ci := range w.consIdx[r.hash] {
			c := &w.cons[ci]
			if w.claimed[ci] || c.rn != r.rn || c.rd != r.rd || !primEqual(c.prim, r.prim) {
				continue
			}
			w.claimed[ci] = true
			w.matchOf[ri] = ci
			matched++
			break
		}
	}
	// Pass 2: coefficient matches with a changed rhs.
	for ri := range rows {
		if w.matchOf[ri] >= 0 {
			continue
		}
		r := &rows[ri]
		for _, ci := range w.consIdx[r.hash] {
			c := &w.cons[ci]
			if w.claimed[ci] || !primEqual(c.prim, r.prim) {
				continue
			}
			w.claimed[ci] = true
			w.matchOf[ri] = ci
			matched++
			break
		}
	}
	w.delSlack = w.delSlack[:0]
	for ci := range w.cons {
		if !w.claimed[ci] {
			w.delSlack = append(w.delSlack, w.cons[ci].slack)
		}
	}
	w.addRows = w.addRows[:0]
	for ri := range rows {
		if w.matchOf[ri] < 0 {
			w.addRows = append(w.addRows, ri)
		}
	}
	return matched
}

// diff matches rows against the live constraint set and reports whether
// the overlap justifies a warm re-entry.
func (w *WarmSolver) diff(rows []wcons) bool {
	matched := w.matchRows(rows)
	return matched*2 >= len(rows)
}

// --- tableau construction ---

// seed builds a fresh all-slack tableau from rows and solves it by dual
// simplex (a cold seed: no basis was reused).
func (w *WarmSolver) seed(rows []wcons, nv int) (feasible, solved bool) {
	w.nv = nv
	m := len(rows)
	w.cons = w.cons[:0]
	w.width = nv + m
	w.growColumns(w.width)
	w.a = w.a[:0]
	w.b = w.b[:0]
	w.basis = w.basis[:0]
	for j := 0; j < w.width; j++ {
		w.dead[j] = false
		w.basicRow[j] = -1
	}
	for i := 0; i < m; i++ {
		rc := rows[i]
		rc.prim = append([]int64(nil), rc.prim...)
		rc.slack = nv + i
		row := w.growRow()
		for j, pv := range rc.prim {
			if pv == 0 {
				continue
			}
			sv, ok := exact.MulInt64(pv, rc.scale)
			if !ok {
				w.Drop()
				return false, false
			}
			row[j].setInt(sv)
		}
		row[rc.slack].setInt(1)
		w.b[i].setInt(rc.bInt)
		w.basis[i] = rc.slack
		w.basicRow[rc.slack] = i
		w.cons = append(w.cons, rc)
	}
	w.delta.setInt(1)
	w.state = warmSeeded
	f, ok := w.dual(50*m + 1000)
	if !ok {
		w.Drop()
		return false, false
	}
	w.coldSeeds++
	return f, true
}

// growColumns ensures per-column bookkeeping covers width columns.
func (w *WarmSolver) growColumns(width int) {
	for len(w.basicRow) < width {
		w.basicRow = append(w.basicRow, -1)
	}
	for len(w.dead) < width {
		w.dead = append(w.dead, false)
	}
}

// growRow appends one zeroed tableau row (and β entry) of the current
// width, reusing retained storage past len(w.a).
func (w *WarmSolver) growRow() []ient {
	m := len(w.a)
	if m < cap(w.a) {
		w.a = w.a[:m+1]
	} else {
		w.a = append(w.a, nil)
	}
	row := w.a[m]
	if cap(row) < w.width {
		grown := make([]ient, w.width)
		copy(grown, row)
		row = grown
	}
	row = row[:w.width]
	for j := range row {
		row[j].setInt(0)
	}
	w.a[m] = row
	if m < cap(w.b) {
		w.b = w.b[:m+1]
	} else {
		w.b = append(w.b, ient{})
	}
	w.b[m].setInt(0)
	if m < cap(w.basis) {
		w.basis = w.basis[:m+1]
	} else {
		w.basis = append(w.basis, 0)
	}
	return row
}

// extendWidth adds one column to the tableau (for a new slack).
func (w *WarmSolver) extendWidth() int {
	col := w.width
	w.width++
	w.growColumns(w.width)
	w.dead[col] = false
	w.basicRow[col] = -1
	for i := range w.a {
		row := w.a[i]
		if cap(row) > len(row) {
			row = row[:len(row)+1]
		} else {
			row = append(row, ient{})
		}
		row[len(row)-1].setInt(0)
		w.a[i] = row
	}
	return col
}

// --- warm application ---

// applyAndSolve edits the live tableau to represent rows (whose diff was
// just computed by diff/matchRows) and re-solves by dual simplex.
// solved=false means the warm path gave up; the solver state is dropped.
func (w *WarmSolver) applyAndSolve(rows []wcons) (feasible, solved bool) {
	// Retire tableau rows and deleted slack columns before growth: dead
	// columns keep the width bounded.
	for _, sc := range w.delSlack {
		if !w.deleteRow(sc) {
			w.Drop()
			return false, false
		}
	}
	// Bound changes on matched rows.
	for ri := range rows {
		ci := w.matchOf[ri]
		if ci < 0 {
			continue
		}
		// Deletions compacted w.cons; matchOf indices were maintained.
		c := &w.cons[ci]
		r := &rows[ri]
		if c.rn == r.rn && c.rd == r.rd {
			continue
		}
		if !w.updateRHS(c, r.rn, r.rd) {
			// Same coefficients, but the new bound will not sit on the
			// stored row scale: replace the row outright.
			if !w.deleteRow(c.slack) {
				w.Drop()
				return false, false
			}
			w.addRows = append(w.addRows, ri)
		}
	}
	// Additions.
	for _, ri := range w.addRows {
		if !w.addRow(&rows[ri]) {
			w.Drop()
			return false, false
		}
	}
	m := len(w.a)
	// Rebuild when retired columns dominate the tableau width.
	if w.width-w.nv > 2*m+32 {
		nv := w.nv
		rebuilt := w.in[:0] // cons already owns retained prim storage
		rebuilt = append(rebuilt, w.cons...)
		if f, ok := w.seed(rebuilt, nv); ok {
			w.lastWarm = true // the basis was not reused, but the family was
			w.warmSolves++
			return f, true
		}
		return false, false
	}
	f, ok := w.dual(20*m + 400)
	if !ok {
		// Pivot cap: one cold rebuild attempt before giving up.
		nv := w.nv
		rebuilt := w.in[:0]
		rebuilt = append(rebuilt, w.cons...)
		if f, ok := w.seed(rebuilt, nv); ok {
			return f, true
		}
		return false, false
	}
	w.lastWarm = true
	w.warmSolves++
	return f, true
}

// updateRHS applies a bound change to live constraint c via the direct β
// update. Returns false when the new bound is not integral at c's stored
// row scale (caller falls back to delete+add).
func (w *WarmSolver) updateRHS(c *wcons, rn, rd int64) bool {
	if c.scale%rd != 0 {
		return false
	}
	bNew, ok := exact.MulInt64(rn, c.scale/rd)
	if !ok {
		return false
	}
	db, ok := exact.SubInt64(bNew, c.bInt)
	if !ok {
		return false
	}
	if db != 0 {
		sc := c.slack
		for i := range w.a {
			if w.a[i][sc].sign() != 0 {
				w.addMulInt(&w.b[i], &w.a[i][sc], db)
			}
		}
	}
	c.bInt = bNew
	c.rn, c.rd = rn, rd
	return true
}

// deleteRow removes the constraint owning slack column sc: the slack is
// pivoted into the basis (making its row the unit row of that column),
// the row is dropped and the column retired.
func (w *WarmSolver) deleteRow(sc int) bool {
	q := w.basicRow[sc]
	if q < 0 {
		q = -1
		for i := range w.a {
			if w.a[i][sc].sign() != 0 {
				q = i
				break
			}
		}
		if q < 0 {
			return false // B⁻¹ column cannot be zero; bail defensively
		}
		if w.a[q][sc].sign() < 0 {
			w.flipRow(q)
		}
		w.pivotAt(q, sc)
		w.lastPivots++
	}
	last := len(w.a) - 1
	if q != last {
		w.a[q], w.a[last] = w.a[last], w.a[q]
		w.b[q], w.b[last] = w.b[last], w.b[q]
		w.basis[q] = w.basis[last]
		w.basicRow[w.basis[q]] = q
	}
	w.a = w.a[:last]
	w.b = w.b[:last]
	w.basis = w.basis[:last]
	w.basicRow[sc] = -1
	w.dead[sc] = true
	// Drop the constraint record, fixing up matchOf for the swap.
	ci := -1
	for i := range w.cons {
		if w.cons[i].slack == sc {
			ci = i
			break
		}
	}
	if ci < 0 {
		return false
	}
	lastC := len(w.cons) - 1
	w.cons[ci] = w.cons[lastC]
	w.cons = w.cons[:lastC]
	for ri, mi := range w.matchOf {
		switch {
		case mi == ci:
			w.matchOf[ri] = -1
		case mi == lastC:
			w.matchOf[ri] = ci
		}
	}
	return true
}

// addRow appends constraint r (pool-backed prim; copied here) as a new
// tableau row expressed over the current basis:
//
//	t = Δ·a − Σᵢ a[basis(i)]·T[i],  β = Δ·b − Σᵢ a[basis(i)]·β_i
//
// where a is the new row of the constraint matrix (structural entries
// scale·prim, 1 on its fresh slack). det is unchanged.
func (w *WarmSolver) addRow(r *wcons) bool {
	rc := *r
	rc.prim = append([]int64(nil), rc.prim...)
	rc.slack = w.extendWidth()
	row := w.growRow()
	m := len(w.a) - 1
	// Structural A-row entries at full precision.
	sA := make([]int64, w.nv)
	for j, pv := range rc.prim {
		if pv == 0 {
			continue
		}
		sv, ok := exact.MulInt64(pv, rc.scale)
		if !ok {
			return false
		}
		sA[j] = sv
	}
	// t starts as Δ·a.
	for j := 0; j < w.nv; j++ {
		if sA[j] != 0 {
			w.mulSetInt(&row[j], &w.delta, sA[j])
		}
	}
	w.mulSetInt(&row[rc.slack], &w.delta, 1)
	w.mulSetInt(&w.b[m], &w.delta, rc.bInt)
	// Subtract a[basis(i)]·T[i] for basic columns the new row touches —
	// only structural basics can carry a nonzero coefficient.
	for i := 0; i < m; i++ {
		bv := w.basis[i]
		if bv >= w.nv || sA[bv] == 0 {
			continue
		}
		coef := sA[bv]
		if coef == math.MinInt64 {
			return false
		}
		ti := w.a[i]
		for j := 0; j < w.width; j++ {
			if w.dead[j] || ti[j].sign() == 0 {
				continue
			}
			w.addMulInt(&row[j], &ti[j], -coef)
		}
		if w.b[i].sign() != 0 {
			w.addMulInt(&w.b[m], &w.b[i], -coef)
		}
	}
	w.basis[m] = rc.slack
	w.basicRow[rc.slack] = m
	w.cons = append(w.cons, rc)
	return true
}

// --- dual simplex ---

// dual restores primal feasibility by Bland-rule dual simplex: leave the
// row whose basic variable has the smallest index among β < 0 rows; enter
// the smallest column with a negative entry in that row. A β < 0 row with
// no negative entry is a Farkas witness of infeasibility. ok=false only
// when maxPivots is exceeded.
func (w *WarmSolver) dual(maxPivots int) (feasible, ok bool) {
	pivots := 0
	for {
		r := -1
		bestVar := int(^uint(0) >> 1)
		for i := range w.a {
			if w.b[i].sign() < 0 && w.basis[i] < bestVar {
				bestVar = w.basis[i]
				r = i
			}
		}
		if r < 0 {
			return true, true
		}
		c := -1
		arow := w.a[r]
		for j := 0; j < w.width; j++ {
			if w.dead[j] || w.basicRow[j] >= 0 {
				continue
			}
			if arow[j].sign() < 0 {
				c = j
				break
			}
		}
		if c < 0 {
			return false, true
		}
		pivots++
		if pivots > maxPivots {
			return false, false
		}
		w.lastPivots++
		// The pivot element is negative; flip the whole row (β included)
		// first so the fraction-free update sees a positive pivot.
		w.flipRow(r)
		w.pivotAt(r, c)
	}
}

// flipRow negates tableau row r including β — a sign change of one basis
// column, preserving the represented system and the minor structure.
func (w *WarmSolver) flipRow(r int) {
	row := w.a[r]
	for j := 0; j < w.width; j++ {
		if row[j].sign() != 0 {
			w.neg(&row[j])
		}
	}
	if w.b[r].sign() != 0 {
		w.neg(&w.b[r])
	}
}

// pivotAt performs the fraction-free pivot at (row, col); the pivot
// element must be positive. Mirrors ktab.pivot without a cost row, and
// maintains basicRow.
func (w *WarmSolver) pivotAt(row, col int) {
	piv := &w.a[row][col]
	arow := w.a[row]
	m := len(w.a)
	for i := 0; i < m; i++ {
		if i == row {
			continue
		}
		ai := w.a[i]
		fac := &ai[col]
		if fac.sign() == 0 {
			for j := 0; j < w.width; j++ {
				if ai[j].sign() != 0 {
					w.scaleUpdate(&ai[j], piv)
				}
			}
			if w.b[i].sign() != 0 {
				w.scaleUpdate(&w.b[i], piv)
			}
			continue
		}
		for j := 0; j < w.width; j++ {
			if j == col {
				continue
			}
			if ai[j].sign() == 0 && arow[j].sign() == 0 {
				continue
			}
			w.pivotUpdate(&ai[j], &ai[j], piv, fac, &arow[j])
		}
		w.pivotUpdate(&w.b[i], &w.b[i], piv, fac, &w.b[row])
		ai[col].setInt(0)
	}
	w.set(&w.delta, piv)
	w.basicRow[w.basis[row]] = -1
	w.basis[row] = col
	w.basicRow[col] = row
}
