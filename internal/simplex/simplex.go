// Package simplex decides exact feasibility of linear programs over the
// rationals: does some x ≥ 0 satisfy every LE, GE and EQ row? It runs the
// phase 1 of the primal simplex (minimise the sum of artificials) and
// nothing else, because every LP CounterPoint solves is a feasibility
// question over non-negative flows.
//
// CounterPoint uses linear programming in three places (paper §4, §6 and
// Appendix A): deciding whether a counter confidence region intersects a
// model cone, pruning μpath counter signatures that lie in the interior of
// the cone, and testing individual constraint half-spaces. The paper uses
// pulp; we use this exact solver so that feasibility verdicts carry no
// floating-point ambiguity. Bland's rule guarantees termination.
package simplex

import (
	"fmt"
	"math/big"
	"sync"
	"sync/atomic"

	"repro/internal/exact"
)

// Rel is a constraint relation.
type Rel int

// Constraint relations.
const (
	LE Rel = iota // ≤
	GE            // ≥
	EQ            // =
)

func (r Rel) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	}
	return "?"
}

// Constraint is one linear constraint Coeffs·x Rel RHS.
type Constraint struct {
	Coeffs exact.Vec
	Rel    Rel
	RHS    *big.Rat
}

// Problem is a feasibility LP over NumVars non-negative variables. A
// Problem must not be copied after first use (it caches its integer form
// in an atomic pointer).
//
// Constraints always has one entry per row with its Rel. Its Coeffs and
// RHS are authoritative for rows added by GrowConstraint/AddConstraint;
// for rows added by AddFloatRow they are empty until RatConstraints fills
// them in (see introw.go).
type Problem struct {
	NumVars     int
	Constraints []Constraint

	// gen counts structural mutations; iform caches the integer form
	// derived from rational rows, keyed by gen.
	gen   uint64
	iform atomic.Pointer[intForm]

	// native marks integer-native rows (AddFloatRow), whose integer form
	// own is authoritative; ratGen is the gen at which RatConstraints last
	// filled in their rational view, under ratMu.
	native bool
	own    intForm
	ratMu  sync.Mutex
	ratGen uint64
}

// NewProblem returns an empty problem with n non-negative variables.
func NewProblem(n int) *Problem {
	return &Problem{NumVars: n}
}

// AddConstraint appends coeffs·x rel rhs. Coeffs is cloned.
func (p *Problem) AddConstraint(coeffs exact.Vec, rel Rel, rhs *big.Rat) {
	if len(coeffs) != p.NumVars {
		panic(fmt.Sprintf("simplex: constraint width %d != vars %d", len(coeffs), p.NumVars))
	}
	c, r := p.GrowConstraint(rel)
	for i := range coeffs {
		c[i].Set(coeffs[i])
	}
	r.Set(rhs)
}

// Reset clears the problem for reuse with n non-negative variables,
// retaining the constraint storage accumulated by previous uses so that a
// hot loop (one LP per observation) stops allocating rationals.
func (p *Problem) Reset(n int) {
	p.NumVars = n
	p.Constraints = p.Constraints[:0]
	p.native = false
	p.own.rows = p.own.rows[:0]
	p.own.store = p.own.store[:0]
	p.Invalidate()
}

// GrowConstraint appends one constraint and hands back its coefficient
// vector (zeroed, length NumVars) and right-hand side for the caller to
// fill in place. Unlike AddConstraint it reuses the storage of constraints
// discarded by Reset, so repeated build/solve cycles are allocation-free.
func (p *Problem) GrowConstraint(rel Rel) (coeffs exact.Vec, rhs *big.Rat) {
	if p.native {
		panic("simplex: GrowConstraint on a problem with integer-native rows")
	}
	p.Invalidate()
	c := p.growRel(rel)
	if c.RHS == nil {
		c.RHS = new(big.Rat)
	} else {
		c.RHS.SetInt64(0)
	}
	c.Coeffs = zeroVec(c.Coeffs, p.NumVars)
	return c.Coeffs, c.RHS
}

// Status reports the outcome of Solve.
type Status int

// Solve outcomes. Optimal means feasible: phase 1 reached a zero optimum.
const (
	Optimal Status = iota
	Infeasible
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	}
	return "unknown"
}

// Result holds the solver outcome. X, valid only when Status == Optimal,
// is the basic solution phase 1 ended on: a feasibility witness.
type Result struct {
	Status Status
	X      exact.Vec
}

// tableau is the standard-form working representation:
// minimise c·y subject to A·y = b, y ≥ 0, b ≥ 0.
type tableau struct {
	a     []exact.Vec // m rows, each of width n
	b     exact.Vec   // m
	c     exact.Vec   // n (phase-1 costs: 1 on artificials)
	basis []int       // m basic variable indices
	n, m  int
	// Pivot-loop scratch rationals, reused across iterations so the hot
	// loop does not allocate.
	sInv, sTmp, sFactor, sRatio, sBestRatio *big.Rat
}

func (t *tableau) initScratch() {
	if t.sInv == nil {
		t.sInv = new(big.Rat)
		t.sTmp = new(big.Rat)
		t.sFactor = new(big.Rat)
		t.sRatio = new(big.Rat)
		t.sBestRatio = new(big.Rat)
	}
}

// Workspace holds reusable storage for the solver: tableau rows, the cost
// vector, the basis, and a scratch Problem. Solving through a Workspace
// avoids re-allocating the O(m·n) big.Rat tableau for every LP — the
// dominant allocation cost of per-observation feasibility testing. A
// Workspace is not safe for concurrent use; pool one per worker.
type Workspace struct {
	vecs    []exact.Vec // arena of rational vectors, reused in call order
	vecUsed int
	rows    []exact.Vec
	basis   []int
	slack   []int
	art     []int
	t       tableau
	prob    *Problem

	// ForceBigRat routes every solve through the pure big.Rat reference
	// tableau instead of the int64 kernel tableau. Verdicts and witnesses
	// are bit-identical either way (the kernel is exact, element-promoting
	// on overflow); the knob exists for differential testing and as an
	// operational escape hatch.
	ForceBigRat bool

	kt             ktab
	kactive        bool   // last run used the kernel tableau
	lastPromotions uint64 // element promotions in the last kernel solve
}

// ratNegOne is the shared -1 used to flip constraint rows; Rat.Mul only
// reads its operands.
var ratNegOne = big.NewRat(-1, 1)

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace { return &Workspace{} }

// Prepare resets and returns the workspace's scratch problem with n
// non-negative variables, for callers that rebuild a structurally similar
// LP on every iteration.
func (w *Workspace) Prepare(n int) *Problem {
	if w.prob == nil {
		w.prob = NewProblem(n)
	}
	w.prob.Reset(n)
	return w.prob
}

// vec returns a zeroed rational vector of length n backed by the arena.
func (w *Workspace) vec(n int) exact.Vec {
	if w.vecUsed < len(w.vecs) {
		v := w.vecs[w.vecUsed]
		for len(v) < n {
			v = append(v, new(big.Rat))
		}
		v = v[:n]
		w.vecs[w.vecUsed] = v
		w.vecUsed++
		for i := range v {
			v[i].SetInt64(0)
		}
		return v
	}
	v := exact.NewVec(n)
	w.vecs = append(w.vecs, v)
	w.vecUsed++
	return v
}

// Solve solves the problem through a freshly allocated Workspace — the
// convenience path for one-off solves only. Callers that solve in a loop
// should hold a Workspace (or pool one per worker) and go through its
// Solve/SolveStatus, which reuse the rational tableau and problem storage
// across calls instead of re-allocating them per LP.
func Solve(p *Problem) Result {
	return NewWorkspace().Solve(p)
}

// Solve solves the problem using the workspace's reusable storage.
func (w *Workspace) Solve(p *Problem) Result {
	st := w.run(p)
	if st != Optimal {
		return Result{Status: st}
	}
	// Variable j is column j; non-basic columns are zero. X is built from
	// fresh rationals so the Result survives workspace reuse.
	x := exact.NewVec(p.NumVars)
	if w.kactive {
		kt := &w.kt
		for i, bi := range kt.basis {
			if bi < p.NumVars {
				kt.b[i].rat(x[bi], &kt.delta, kt.t1, kt.t2)
			}
		}
	} else {
		for i, bi := range w.t.basis {
			if bi < p.NumVars {
				x[bi].Set(w.t.b[i])
			}
		}
	}
	return Result{Status: Optimal, X: x}
}

// SolveStatus runs the solver and reports only the status, skipping
// solution extraction — the fast path for pure feasibility queries, which
// never look at X. Solve and SolveStatus never mutate the problem, so a
// cached Problem may be solved repeatedly (and concurrently, from
// distinct workspaces).
func (w *Workspace) SolveStatus(p *Problem) Status {
	return w.run(p)
}

// layout holds the standard-form column plan shared by the kernel and
// big.Rat tableaux: variable j is column j, then the slack and artificial
// column assignments, the pre-artificial column count n, row count m and
// artificial count nArt.
type layout struct {
	slack, art []int
	n, m, nArt int
}

// layout computes the standard-form plan into the workspace's reusable
// slices. A row
// whose slack carries coefficient +1 after sign normalisation (LE with
// RHS ≥ 0, or GE with RHS < 0) seeds the phase-1 basis with its slack
// instead of an artificial — the standard crash basis, which shrinks the
// tableau and often skips phase-1 pivoting entirely.
func (w *Workspace) layout(p *Problem) layout {
	n := p.NumVars
	m := len(p.Constraints)
	if cap(w.slack) < m {
		w.slack = make([]int, m)
	}
	if cap(w.art) < m {
		w.art = make([]int, m)
	}
	slackCol := w.slack[:m]
	artCol := w.art[:m]
	for i, con := range p.Constraints {
		if con.Rel == EQ {
			slackCol[i] = -1
		} else {
			slackCol[i] = n
			n++
		}
	}
	nArt := 0
	iform := p.intForm()
	for i, con := range p.Constraints {
		negated := iform.rows[i].rhsSign() < 0
		if (con.Rel == LE && !negated) || (con.Rel == GE && negated) {
			artCol[i] = -1
		} else {
			artCol[i] = n + nArt
			nArt++
		}
	}
	return layout{slack: slackCol, art: artCol, n: n, m: m, nArt: nArt}
}

// run executes phase 1, on the int64 kernel tableau by default
// or on the big.Rat reference tableau when ForceBigRat is set, and leaves
// the final state in place for extraction.
func (w *Workspace) run(p *Problem) Status {
	if w.ForceBigRat {
		return w.runBig(p)
	}
	return w.runKernel(p)
}

// LastSolveKernel reports whether the previous solve ran on the int64
// kernel tableau, and how many element promotions (exact results leaving
// the int64 range) it performed.
func (w *Workspace) LastSolveKernel() (kernel bool, promotions uint64) {
	return w.kactive, w.lastPromotions
}

// runBig is the pure big.Rat reference implementation.
func (w *Workspace) runBig(p *Problem) Status {
	w.vecUsed = 0
	w.kactive = false
	w.lastPromotions = 0

	lay := w.layout(p)
	slackCol, artCol := lay.slack, lay.art
	n, m, nArt := lay.n, lay.m, lay.nArt

	t := &w.t
	t.n, t.m = n+nArt, m
	t.initScratch()
	if cap(w.rows) < m {
		w.rows = make([]exact.Vec, m)
	}
	t.a = w.rows[:m]
	t.b = w.vec(m)
	if cap(w.basis) < m {
		w.basis = make([]int, m)
	}
	t.basis = w.basis[:m]
	negOne := ratNegOne

	for i, con := range p.RatConstraints() {
		row := w.vec(t.n)
		for j, c := range con.Coeffs {
			row[j].Set(c)
		}
		rhs := t.b[i]
		rhs.Set(con.RHS)
		switch con.Rel {
		case LE:
			row[slackCol[i]].SetInt64(1)
		case GE:
			row[slackCol[i]].SetInt64(-1)
		}
		// ensure b >= 0
		if rhs.Sign() < 0 {
			for j := range row {
				row[j].Mul(row[j], negOne)
			}
			rhs.Neg(rhs)
		}
		t.a[i] = row
		if artCol[i] >= 0 {
			row[artCol[i]].SetInt64(1)
			t.basis[i] = artCol[i]
		} else {
			// Slack coefficient is +1 here by construction.
			t.basis[i] = slackCol[i]
		}
	}

	// Phase 1: minimise the sum of artificials (skipped when the crash
	// basis is already feasible). Artificials left basic at zero stay: the
	// basic solution is already the witness.
	if nArt > 0 {
		phase1 := w.vec(t.n)
		for i := 0; i < m; i++ {
			if artCol[i] >= 0 {
				phase1[artCol[i]].SetInt64(1)
			}
		}
		t.c = phase1
		t.optimize()
		if t.objectiveValue().Sign() > 0 {
			return Infeasible
		}
	}
	return Optimal
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
			panic("simplex: phase 1 unbounded") // bounded below by 0
		}
		t.pivot(row, col)
	}
}

// enteringColumn returns the lowest-index column with negative reduced
// cost (Bland's rule), or -1 at optimality.
func (t *tableau) enteringColumn() int {
	// reduced cost r_j = c_j - cB · B^-1 A_j; with explicit tableau the
	// rows of t.a are already B^-1 A, so r_j = c_j - Σ_i c_basis[i]·a[i][j].
	r, tmp := t.sRatio, t.sTmp
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
			tmp.Mul(cb, t.a[i][j])
			r.Sub(r, tmp)
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
	bestRatio, ratio := t.sBestRatio, t.sRatio
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
	inv := t.sInv.Inv(t.a[row][col])
	for j := 0; j < t.n; j++ {
		t.a[row][j].Mul(t.a[row][j], inv)
	}
	t.b[row].Mul(t.b[row], inv)
	tmp, factor := t.sTmp, t.sFactor
	for i := 0; i < t.m; i++ {
		if i == row || t.a[i][col].Sign() == 0 {
			continue
		}
		factor.Set(t.a[i][col])
		for j := 0; j < t.n; j++ {
			if t.a[row][j].Sign() == 0 {
				continue
			}
			tmp.Mul(factor, t.a[row][j])
			t.a[i][j].Sub(t.a[i][j], tmp)
		}
		tmp.Mul(factor, t.b[row])
		t.b[i].Sub(t.b[i], tmp)
	}
	t.basis[row] = col
}

// objectiveValue returns c·y for the current basic solution.
func (t *tableau) objectiveValue() *big.Rat {
	v := new(big.Rat)
	tmp := new(big.Rat)
	for i, bi := range t.basis {
		if t.c[bi].Sign() == 0 {
			continue
		}
		tmp.Mul(t.c[bi], t.b[i])
		v.Add(v, tmp)
	}
	return v
}
