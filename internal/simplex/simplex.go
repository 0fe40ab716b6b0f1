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

// Problem is a feasibility LP over NumVars non-negative variables. Each
// row is written in integer form when it is added (see introw.go) and is
// immutable from then on; Reset is the only way to change the rows. A
// Problem must not be copied after first use.
//
// Constraints always has one entry per row with its Rel. Its Coeffs and
// RHS are a copy of the values given to AddConstraint; for rows added by
// AddFloatRow they are empty until RatConstraints fills them in.
type Problem struct {
	NumVars     int
	Constraints []Constraint

	// form holds every row's integer form, the one the solver, the
	// certifier and the canonical hash read; ratMu serialises
	// RatConstraints.
	form  intForm
	ratMu sync.Mutex
}

// NewProblem returns an empty problem with n non-negative variables.
func NewProblem(n int) *Problem {
	return &Problem{NumVars: n}
}

// AddConstraint appends coeffs·x rel rhs, converting it to integer form
// and keeping a copy of coeffs and rhs as the row's rational view.
func (p *Problem) AddConstraint(coeffs exact.Vec, rel Rel, rhs *big.Rat) {
	if len(coeffs) != p.NumVars {
		panic(fmt.Sprintf("simplex: constraint width %d != vars %d", len(coeffs), p.NumVars))
	}
	p.form.rows = append(p.form.rows, ratIntRow(&p.form, coeffs, rhs))
	c := p.growRel(rel)
	c.Coeffs, c.RHS = coeffs.Clone(), new(big.Rat).Set(rhs)
}

// Reset clears the problem for reuse with n non-negative variables,
// retaining the row storage accumulated by previous uses so that a hot
// loop (one LP per observation) stops allocating.
func (p *Problem) Reset(n int) {
	p.NumVars = n
	p.Constraints = p.Constraints[:0]
	p.form.rows = p.form.rows[:0]
	p.form.store = p.form.store[:0]
}

// Status reports the outcome of a solve.
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

// Result holds a solve's outcome with its witness. X, valid only when
// Status == Optimal, is the basic solution phase 1 ended on. The daemon
// asks only for the Status (SolveStatus); the big.Rat reference and the
// tests that compare witnesses against it return a Result.
type Result struct {
	Status Status
	X      exact.Vec
}

// Workspace holds reusable storage for the solver: the kernel tableau
// (its rows and each element's retained big.Int promotion slot), the
// standard-form column plan and a scratch Problem. Solving through a
// Workspace avoids re-allocating the O(m·n) tableau for every LP, the
// dominant allocation cost of per-observation feasibility testing. A
// Workspace is not safe for concurrent use; pool one per worker.
type Workspace struct {
	slack []int
	art   []int
	prob  *Problem
	kt    ktab
}

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

// SolveStatus runs the solver and reports only the status: every
// feasibility query needs no witness. It never mutates the problem, so a
// cached Problem may be solved repeatedly (and concurrently, from
// distinct workspaces).
func (w *Workspace) SolveStatus(p *Problem) Status {
	return w.run(p)
}

// LastPromotions reports how many element promotions (exact results
// leaving the int64 range) the previous solve performed.
func (w *Workspace) LastPromotions() uint64 {
	return w.kt.promotions
}

// layout holds the kernel tableau's standard-form column plan: variable
// j is column j, then the slack and artificial column assignments, the
// pre-artificial column count n, row count m and artificial count nArt.
type layout struct {
	slack, art []int
	n, m, nArt int
}

// layout computes the standard-form plan into the workspace's reusable
// slices. A row whose slack carries coefficient +1 after sign
// normalisation (LE with RHS ≥ 0, or GE with RHS < 0) seeds the phase-1
// basis with its slack instead of an artificial — the standard crash
// basis, which shrinks the tableau and often skips phase-1 pivoting
// entirely.
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
	for i := range p.Constraints {
		if p.Constraints[i].Rel == EQ {
			slackCol[i] = -1
		} else {
			slackCol[i] = n
			n++
		}
	}
	nArt := 0
	for i := range p.Constraints {
		rel, negated := p.Constraints[i].Rel, p.form.rows[i].rhsSign() < 0
		if (rel == LE && !negated) || (rel == GE && negated) {
			artCol[i] = -1
		} else {
			artCol[i] = n + nArt
			nArt++
		}
	}
	return layout{slack: slackCol, art: artCol, n: n, m: m, nArt: nArt}
}
