package core

import (
	"fmt"

	"repro/internal/exact"
	"repro/internal/simplex"
	"repro/internal/stats"
)

// RegionLPRat is the big.Rat construction of the region LP that RegionLP
// replaced, kept as the reference its integer-native rows are pinned
// against: every coefficient converted from its dense float64 dot product
// through exact.Rat64FromFloat/SetRatFromFloat, every bound quantised
// through exact.QuantizeInto, and each row added as big.Rat
// values through GrowConstraint.
func RegionLPRat(m *Model, p *simplex.Problem, r *stats.Region) error {
	if !r.Set.Equal(m.Set) {
		return fmt.Errorf("core: region counter set %v does not match model set %v", r.Set, m.Set)
	}
	gens := make([][]float64, len(m.Cone().Generators))
	for j, g := range m.Cone().Generators {
		gens[j] = make([]float64, len(g))
		for k, c := range g {
			gens[j][k], _ = c.Float64()
		}
	}
	p.Reset(len(gens))
	n := m.Set.Len()
	for i, axis := range r.Axes {
		upper, hi := p.GrowConstraint(simplex.LE)
		lower, lo := p.GrowConstraint(simplex.GE)
		for j, g := range gens {
			dot := 0.0
			for k := 0; k < n; k++ {
				dot += axis[k] * g[k]
			}
			if r64, ok := exact.Rat64FromFloat(dot); ok {
				r64.RatInto(upper[j])
			} else if err := exact.SetRatFromFloat(upper[j], dot); err != nil {
				return fmt.Errorf("core: model %q, axis %d: %w", m.Name, i, err)
			}
			lower[j].Set(upper[j])
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
	}
	return nil
}
