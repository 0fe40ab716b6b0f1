package core

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/counters"
	"repro/internal/exact"
	"repro/internal/simplex"
	"repro/internal/stats"
	"repro/internal/tier"
)

// slabDriftLP is a feasibility LP above the filter's size gate (3 × 7 =
// 21): three slab pairs aᵢ·x ∈ [cᵢ/2 − 4, cᵢ/2], cᵢ = 10(i+1) + k, over
// x ≥ 0 under the fixed cap x₀ + x₁ ≤ 12, which the first slab crosses
// once k > 22. Successive k share every coefficient row and move only the
// bounds.
func slabDriftLP(k int) *simplex.Problem {
	p := simplex.NewProblem(3)
	for i, a := range [][]int64{{1, 1, 0}, {0, 2, 1}, {1, 0, 3}} {
		c := int64(10*(i+1) + k)
		p.AddConstraint(exact.VecFromInts(a...), simplex.LE, big.NewRat(c, 2))
		p.AddConstraint(exact.VecFromInts(a...), simplex.GE, big.NewRat(c-8, 2))
	}
	p.AddConstraint(exact.VecFromInts(1, 1, 0), simplex.LE, big.NewRat(12, 1))
	return p
}

// pdeDriftLPs returns the 2-counter pde model's (Figure 6a) region LPs
// (2 × 4 = 8, below the filter's size gate) for n observations holding the
// same noise shifted by k·(4, 2.5), so consecutive LPs drift only in their
// bounds.
func pdeDriftLPs(t *testing.T, n int) []*simplex.Problem {
	t.Helper()
	set := pdeSet()
	m, err := ModelFromDSL("pde", initialModelSrc, set)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	noise := make([][2]float64, 60)
	for i := range noise {
		noise[i] = [2]float64{rng.NormFloat64(), rng.NormFloat64()}
	}
	lps := make([]*simplex.Problem, n)
	for k := range lps {
		o := counters.NewObservation("drift", set)
		for _, e := range noise {
			o.Append([]float64{500 + 4*float64(k) + e[0], 200 + 2.5*float64(k) + e[1]})
		}
		r, err := stats.NewRegion(o, DefaultConfidence, stats.Correlated)
		if err != nil {
			t.Fatal(err)
		}
		lps[k] = simplex.NewProblem(0)
		if err := m.RegionLP(lps[k], r); err != nil {
			t.Fatal(err)
		}
		if size := lps[k].NumVars * len(lps[k].Constraints); size >= tier.FilterMinSize {
			t.Fatalf("pde region LP size %d is not below the filter gate %d", size, tier.FilterMinSize)
		}
	}
	return lps
}

// TestTierOrder pins the tier order of Solver.Feasible: cache → filter +
// certify → exact, with no tier in between. A bound-drift sequence above
// the filter's size gate is certified by the filter and runs no exact
// solve; a sub-gate drift sequence skips the filter and every step is a
// from-scratch exact solve, counted as size-gated. Every verdict is the
// exact solver's.
func TestTierOrder(t *testing.T) {
	ref := simplex.NewWorkspace()
	solve := func(t *testing.T, lps []*simplex.Problem) SolverCounts {
		t.Helper()
		s := tier.NewSolver(&SolverStats{})
		for k, p := range lps {
			want := ref.SolveStatus(p) == simplex.Optimal
			if got := s.Feasible(p); got != want {
				t.Fatalf("step %d: verdict %v, exact solver says %v", k, got, want)
			}
		}
		return s.Stats.Snapshot()
	}

	t.Run("filter certifies above the gate", func(t *testing.T) {
		c := solve(t, []*simplex.Problem{slabDriftLP(0), slabDriftLP(1), slabDriftLP(40)})
		if c.FilterFeasible != 2 || c.FilterInfeasible != 1 || c.ExactFallbacks != 0 || c.ColdSolves != 0 || c.SizeGated != 0 {
			t.Fatalf("filter-certified drift reached the exact tier: %+v", c)
		}
	})

	t.Run("sub-gate LP goes to the exact tier", func(t *testing.T) {
		lps := pdeDriftLPs(t, 3)
		c := solve(t, lps)
		if c.FilterHits() != 0 || c.ExactFallbacks != uint64(len(lps)) || c.SizeGated != c.ExactFallbacks || c.ColdSolves != c.ExactFallbacks || c.WarmSolves != 0 {
			t.Fatalf("sub-gate drift: want %d exact solves and no other tier, got %+v", len(lps), c)
		}
	})
}
