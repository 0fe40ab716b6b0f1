package core

import (
	"fmt"
	"math/big"

	"repro/internal/exact"
	"repro/internal/floatlp"
	"repro/internal/simplex"
	"repro/internal/stats"
)

// RegionLPRat is the big.Rat construction of the region LP that RegionLP
// replaced, kept as the reference its integer-native rows are pinned
// against: every coefficient converted from its dense float64 dot product
// through exact.Rat64FromFloat/SetRatFromFloat, every bound quantised
// through exact.QuantizeInto, and each row added as big.Rat
// values through AddConstraint. Its columns are the cone's essential
// generators, as RegionLP's are.
func RegionLPRat(m *Model, p *simplex.Problem, r *stats.Region) error {
	if !r.Set.Equal(m.Set) {
		return fmt.Errorf("core: region counter set %v does not match model set %v", r.Set, m.Set)
	}
	all, ess := m.Cone().Generators(), m.Cone().EssentialIndices()
	gens := make([][]float64, len(ess))
	for j, e := range ess {
		g := all[e]
		gens[j] = make([]float64, len(g))
		for k, c := range g {
			gens[j][k], _ = c.Float64()
		}
	}
	p.Reset(len(gens))
	n := m.Set.Len()
	row, hi, lo := exact.NewVec(len(gens)), new(big.Rat), new(big.Rat)
	for i, axis := range r.Axes {
		for j, g := range gens {
			dot := 0.0
			for k := 0; k < n; k++ {
				dot += axis[k] * g[k]
			}
			if r64, ok := exact.Rat64FromFloat(dot); ok {
				r64.RatInto(row[j])
			} else if err := exact.SetRatFromFloat(row[j], dot); err != nil {
				return fmt.Errorf("core: model %q, axis %d: %w", m.Name, i, err)
			}
		}
		eDotMean := 0.0
		for k := 0; k < n; k++ {
			eDotMean += axis[k] * r.Mean[k]
		}
		if err := exact.QuantizeInto(hi, eDotMean+r.HalfWidths[i], true, lpQuantum); err != nil {
			return fmt.Errorf("core: model %q, axis %d upper bound: %w", m.Name, i, err)
		}
		if err := exact.QuantizeInto(lo, eDotMean-r.HalfWidths[i], false, lpQuantum); err != nil {
			return fmt.Errorf("core: model %q, axis %d lower bound: %w", m.Name, i, err)
		}
		p.AddConstraint(row, simplex.LE, hi)
		p.AddConstraint(row, simplex.GE, lo)
	}
	return nil
}

// RegionLPAllGenerators builds r's region LP the way RegionLP did before
// its columns became the cone's essential generators: one column per
// distinct signature, in Cone().Counts() order, each row added through
// AddFloatRow. It is the reference the essential-column LP's verdicts are
// pinned against.
func RegionLPAllGenerators(m *Model, p *simplex.Problem, r *stats.Region) error {
	counts := m.Cone().Counts()
	gens := make([]floatlp.Sparse, len(counts))
	for j, g := range counts {
		for k, c := range g {
			if c != 0 {
				gens[j].Idx = append(gens[j].Idx, k)
				gens[j].Val = append(gens[j].Val, float64(c))
			}
		}
	}
	return m.regionLP(p, r, gens)
}
