package cone

import (
	"repro/internal/exact"
	"repro/internal/tier"
)

// DeduceCounting runs c's deduction afresh, essential pass included,
// bypassing both caches, with every membership LP reporting into stats.
func DeduceCounting(c *Cone, stats *tier.Stats) (*HRep, error) {
	hs := &hullSolver{sv: tier.NewSolver(stats)}
	return c.buildConstraints(hs.essential(c.hullGens()))
}

// Contains reports whether v lies in the cone, i.e. whether non-negative
// flows f with Σ f_i g_i = v exist: membership by the generators, the
// reference the H-representation and pruning tests compare against. Each
// call builds a fresh solver.
func (c *Cone) Contains(v exact.Vec) bool {
	return newHullSolver().inHull(vecOf(v), c.hullGens())
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

// essentialGens returns c's essential generators (EssentialIndices) as
// exact vectors.
func essentialGens(c *Cone) []exact.Vec {
	keep := c.EssentialIndices()
	out := make([]exact.Vec, len(keep))
	for i, k := range keep {
		out[i] = c.Generators()[k]
	}
	return out
}
