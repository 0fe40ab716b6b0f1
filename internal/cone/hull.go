package cone

import (
	"repro/internal/exact"
	"repro/internal/simplex"
	"repro/internal/tier"
)

// Cone-membership LPs: is v a non-negative combination Σ f_j g_j of the
// vectors g_j? Constraint deduction asks this a few hundred times per
// model — once per generator when pruning redundant generators, once per
// ray in the double description's minimality pass — and Contains and
// SubsetOf ask it too. Every one goes through hullSolver.
//
// The rows Σ_j g_j[i]·f_j = v[i] are built integer-native
// (Problem.AddFloatRow) from the vectors' int64 images, so no big.Rat is
// touched; a vector with an entry beyond 2^53, which a float64 does not
// hold exactly, sends its LPs to big.Rat rows instead. Each LP is decided
// by the solver tier chain (package tier): the float filter proposes, an
// exact certificate verifies, and anything unverified goes to the exact
// simplex. Answers are therefore exact, and deduction stays exact by
// construction. Deduction's solvers report no telemetry: counterpointd's
// solver counters count verdicts.

// maxFloatInt bounds the entries a float64 row holds exactly.
const maxFloatInt = 1 << 53

// hullVec is one vector of a membership LP: its exact value and, when
// every entry fits ±2^53, an integer image — a positive multiple of the
// vector, which has the same membership answer.
type hullVec struct {
	n []int64   // integer image; nil when an entry is beyond ±2^53
	v exact.Vec // exact value; nil when n holds the vector itself
}

// newHullVec takes n (a positive multiple of v, or nil) as the integer
// image of v when its entries fit ±2^53. v may be nil when n is the
// vector itself.
func newHullVec(n []int64, v exact.Vec) hullVec {
	for _, x := range n {
		if x > maxFloatInt || x < -maxFloatInt {
			if v == nil {
				v = exact.Vec64{Num: n, Den: 1}.Vec()
			}
			return hullVec{v: v}
		}
	}
	return hullVec{n: n, v: v}
}

// rat returns the vector's exact value.
func (h hullVec) rat() exact.Vec {
	if h.v != nil {
		return h.v
	}
	return exact.Vec64{Num: h.n, Den: 1}.Vec()
}

// vecOf wraps an exact vector, using its common-denominator numerators
// as the integer image.
func vecOf(v exact.Vec) hullVec {
	v64, ok := exact.Vec64FromVec(v)
	if !ok {
		return hullVec{v: v}
	}
	return newHullVec(v64.Num, v)
}

// hullSolver decides membership LPs on one solver and one reusable
// problem. Not safe for concurrent use.
type hullSolver struct {
	sv  *tier.Solver
	row []float64
}

// newHullSolver returns a hull solver that reports no telemetry.
func newHullSolver() *hullSolver {
	return &hullSolver{sv: tier.NewSolver(nil)}
}

// inHull reports whether v is a non-negative combination of gens.
func (h *hullSolver) inHull(v hullVec, gens []hullVec) bool {
	if len(gens) == 0 {
		return v.rat().IsZero()
	}
	p := h.sv.ExactWorkspace().Prepare(len(gens))
	if integral(v, gens) {
		if cap(h.row) < len(gens) {
			h.row = make([]float64, len(gens))
		}
		h.row = h.row[:len(gens)]
		for i, b := range v.n {
			for j, g := range gens {
				h.row[j] = float64(g.n[i])
			}
			if err := p.AddFloatRow(simplex.EQ, h.row, float64(b)); err != nil {
				panic("cone: " + err.Error()) // every entry is a finite integer
			}
		}
	} else {
		vr := v.rat()
		cols := make([]exact.Vec, len(gens))
		for j, g := range gens {
			cols[j] = g.rat()
		}
		for i, b := range vr {
			row, rhs := p.GrowConstraint(simplex.EQ)
			for j, g := range cols {
				row[j].Set(g[i])
			}
			rhs.Set(b)
		}
	}
	return h.sv.Feasible(p)
}

// integral reports whether v and every generator have integer images.
func integral(v hullVec, gens []hullVec) bool {
	if v.n == nil {
		return false
	}
	for _, g := range gens {
		if g.n == nil {
			return false
		}
	}
	return true
}

// essential returns, in order, the indices of the vectors that are not in
// the conic hull of the others. Redundant vectors are dropped as they are
// found: when g is redundant cone(G \ {g}) = cone(G), so removing it keeps
// every other vector's status, and one pass is sound.
func (h *hullSolver) essential(vs []hullVec) []int {
	keep := make([]int, 0, len(vs))
	others := make([]hullVec, 0, len(vs))
	for i, v := range vs {
		others = others[:0]
		for _, k := range keep {
			others = append(others, vs[k])
		}
		others = append(others, vs[i+1:]...)
		if !h.inHull(v, others) {
			keep = append(keep, i)
		}
	}
	return keep
}
