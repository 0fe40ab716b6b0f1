package cone

import (
	"math/bits"

	"repro/internal/exact"
	"repro/internal/simplex"
	"repro/internal/tier"
)

// Cone-membership LPs: is v a non-negative combination Σ f_j g_j of the
// vectors g_j? Constraint deduction asks this once per generator when
// pruning redundant generators, and Contains and SubsetOf ask it too.
// Every one goes through hullSolver.
//
// The rows Σ_j g_j[i]·f_j = v[i] are built integer-native
// (Problem.AddFloatRow) from the vectors' int64 images, so no big.Rat is
// touched; a vector with an entry beyond 2^53, which a float64 does not
// hold exactly, sends its LPs to big.Rat rows (Problem.AddConstraint),
// converted to the same integer form as they are added. Each LP is decided
// by the solver tier chain (package tier): the float filter proposes, an
// exact certificate verifies, and anything unverified goes to the exact
// simplex. Answers are therefore exact, and deduction stays exact by
// construction. Deduction's solvers report no telemetry: counterpointd's
// solver counters count verdicts.
//
// When every vector of an LP is non-negative (μpath signatures are
// counts), the LP shrinks before it is built. With no negative entry
// nothing cancels, so v = Σ f_j g_j with f ≥ 0 can only use the g_j whose
// support lies inside supp(v), and every row outside supp(v) reads 0 = 0.
// The LP keeps those columns and the rows in supp(v); with no candidate
// column v is outside the hull, with one it is inside exactly when it is a
// positive multiple of it, both decided without an LP. The answer is the
// full LP's. Vectors with a negative entry (a Contains query may have
// one) or an entry beyond 2^53 take the full LP.

// maxFloatInt bounds the entries a float64 row holds exactly.
const maxFloatInt = 1 << 53

// hullVec is one vector of a membership LP: its exact value and, when
// every entry fits ±2^53, an integer image — a positive multiple of the
// vector, which has the same membership answer.
type hullVec struct {
	n    []int64   // integer image; nil when an entry is beyond ±2^53
	v    exact.Vec // exact value; nil when n holds the vector itself
	supp bitset    // support of n when n is set and non-negative; nil otherwise
}

// newHullVec takes n (a positive multiple of v, or nil) as the integer
// image of v when its entries fit ±2^53. v may be nil when n is the
// vector itself.
func newHullVec(n []int64, v exact.Vec) hullVec {
	nonNeg := n != nil
	for _, x := range n {
		if x > maxFloatInt || x < -maxFloatInt {
			if v == nil {
				v = exact.Vec64{Num: n, Den: 1}.Vec()
			}
			return hullVec{v: v}
		}
		nonNeg = nonNeg && x >= 0
	}
	h := hullVec{n: n, v: v}
	if nonNeg {
		h.supp = newBitset(len(n))
		for i, x := range n {
			if x != 0 {
				h.supp.set(i)
			}
		}
	}
	return h
}

// rat returns the vector's exact value.
func (h hullVec) rat() exact.Vec {
	if h.v != nil {
		return h.v
	}
	return exact.Vec64{Num: h.n, Den: 1}.Vec()
}

// hullSolver decides membership LPs on one solver and one reusable
// problem. Not safe for concurrent use.
type hullSolver struct {
	sv   *tier.Solver
	row  []float64
	cols []int // candidate columns of a support-pruned LP
}

// newHullSolver returns a hull solver that reports no telemetry.
func newHullSolver() *hullSolver {
	return &hullSolver{sv: tier.NewSolver(nil)}
}

// inHull reports whether v is a non-negative combination of gens.
func (h *hullSolver) inHull(v hullVec, gens []hullVec) bool {
	if nonNegative(v, gens) {
		return h.inHullPruned(v, gens)
	}
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
		row := make(exact.Vec, len(gens))
		for i, b := range vr {
			for j, g := range cols {
				row[j] = g[i]
			}
			p.AddConstraint(row, simplex.EQ, b)
		}
	}
	return h.sv.Feasible(p)
}

// nonNegative reports whether v and every generator have non-negative
// integer images.
func nonNegative(v hullVec, gens []hullVec) bool {
	if v.supp == nil {
		return false
	}
	for _, g := range gens {
		if g.supp == nil {
			return false
		}
	}
	return true
}

// inHullPruned is inHull for non-negative integer vectors: the LP over
// the columns whose support lies in supp(v) and the rows of supp(v).
func (h *hullSolver) inHullPruned(v hullVec, gens []hullVec) bool {
	if v.supp.empty() {
		return true // v = 0
	}
	h.cols = h.cols[:0]
	for j, g := range gens {
		if g.supp.subsetOf(v.supp) {
			h.cols = append(h.cols, j)
		}
	}
	switch len(h.cols) {
	case 0:
		return false
	case 1:
		return positiveMultiple(v.n, gens[h.cols[0]].n)
	}
	p := h.sv.ExactWorkspace().Prepare(len(h.cols))
	if cap(h.row) < len(h.cols) {
		h.row = make([]float64, len(h.cols))
	}
	h.row = h.row[:len(h.cols)]
	for i, b := range v.n {
		if b == 0 {
			continue
		}
		for k, j := range h.cols {
			h.row[k] = float64(gens[j].n[i])
		}
		if err := p.AddFloatRow(simplex.EQ, h.row, float64(b)); err != nil {
			panic("cone: " + err.Error()) // every entry is a finite integer
		}
	}
	return h.sv.Feasible(p)
}

// positiveMultiple reports whether the non-zero, non-negative v is λ·g for
// some λ > 0. Entries are below 2^53, so the cross products
// v[i]·g[i0] = g[i]·v[i0] are compared exactly in 128 bits.
func positiveMultiple(v, g []int64) bool {
	i0 := 0
	for v[i0] == 0 {
		i0++
	}
	if g[i0] == 0 {
		return false
	}
	a, b := uint64(v[i0]), uint64(g[i0])
	for i, x := range v {
		h1, l1 := bits.Mul64(uint64(x), b)
		h2, l2 := bits.Mul64(uint64(g[i]), a)
		if h1 != h2 || l1 != l2 {
			return false
		}
	}
	return true
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
