package core

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/counters"
	"repro/internal/exact"
	"repro/internal/floatlp"
	"repro/internal/simplex"
	"repro/internal/stats"
)

// basisClaim is an infeasible filter claim on x ≥ 2, 3y ≥ 6, x + y ≤ 1
// (x, y ≥ 0) whose ray is useless (all zero), so only the phase-1 basis
// {art₀, art₁, x} — row scales 1, 3, 1 — can certify it.
func basisClaim() (*simplex.Problem, floatlp.Outcome) {
	p := simplex.NewProblem(2)
	p.AddConstraint(exact.VecFromInts(1, 0), simplex.GE, big.NewRat(2, 1))
	p.AddConstraint(exact.VecFromInts(0, 3), simplex.GE, big.NewRat(6, 1))
	p.AddConstraint(exact.VecFromInts(1, 1), simplex.LE, big.NewRat(1, 1))
	return p, floatlp.Outcome{
		Status: floatlp.Infeasible,
		Ray:    make([]float64, 3),
		Basis: simplex.FarkasBasis{
			Cols:  []int{2 + 3 + 0, 2 + 3 + 1, 0},
			Sign:  []float64{1, 1, 1},
			Scale: []float64{1, 3, 1},
		},
	}
}

// TestVerifyClaimBasisTier pins the certificate chain of an infeasible
// claim: a failed ray hands over to the basis certificate, whose success
// counts as a filter refutation certified by the basis; a tampered basis
// (swapped column, unit artificial weights, flipped row sign) is rejected
// and the claim falls back to the exact tier as a certification failure.
func TestVerifyClaimBasisTier(t *testing.T) {
	p, out := basisClaim()
	st := &SolverStats{}
	s := NewSolver(st)
	feasible, ok := s.verifyClaim(p, out)
	if !ok || feasible {
		t.Fatalf("genuine basis claim: feasible=%v ok=%v, want a certified refutation", feasible, ok)
	}
	c := st.Snapshot()
	if c.FilterInfeasible != 1 || c.FilterInfeasibleBasis != 1 || c.CertFailures != 0 {
		t.Fatalf("telemetry after a basis-certified refutation: %+v", c)
	}

	tampers := map[string]func(*simplex.FarkasBasis){
		"swapped column": func(b *simplex.FarkasBasis) { b.Cols[2] = 2 + 2 }, // x out, row 2's slack in
		"unit weights":   func(b *simplex.FarkasBasis) { b.Scale = []float64{1, 1, 1} },
		"flipped sign":   func(b *simplex.FarkasBasis) { b.Sign[1] = -1 },
	}
	for name, tamper := range tampers {
		_, bad := basisClaim()
		tamper(&bad.Basis)
		before := st.Snapshot()
		if _, ok := s.verifyClaim(p, bad); ok {
			t.Fatalf("%s: tampered basis certified", name)
		}
		after := st.Snapshot()
		if after.CertFailures != before.CertFailures+1 || after.FilterInfeasible != before.FilterInfeasible {
			t.Fatalf("%s: telemetry %+v after %+v", name, after, before)
		}
	}
	// The fallback decides the claim exactly: the problem is infeasible.
	if s.Feasible(p) {
		t.Fatal("exact fallback reported the infeasible problem feasible")
	}
}

// slabDriftLP is a feasibility LP above the filter's size gate (3 × 7 =
// 21): three slab pairs aᵢ·x ∈ [cᵢ/2 − 4, cᵢ/2], cᵢ = 10(i+1) + k, over
// x ≥ 0 under the fixed cap x₀ + x₁ ≤ 12, which the first slab crosses
// once k > 22. Successive k share every coefficient row and move only the
// bounds — the drift the warm-start dual simplex re-enters a cached basis
// for.
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
		if size := lps[k].NumVars * len(lps[k].Constraints); size >= filterMinSize {
			t.Fatalf("pde region LP size %d is not below the filter gate %d", size, filterMinSize)
		}
	}
	return lps
}

// TestFilterDecidesBeforeWarm pins the tier order of Solver.Feasible: the
// float filter and its exact certificates run before the warm-start tier,
// which only sees what the filter leaves undecided. A bound-drift sequence
// the warm solver would seed on and re-enter never reaches it when the
// filter certifies every step; a sub-gate sequence skips the filter and
// still goes warm. Every verdict is the exact solver's.
func TestFilterDecidesBeforeWarm(t *testing.T) {
	ref := simplex.NewWorkspace()
	solve := func(t *testing.T, s *Solver, lps []*simplex.Problem) {
		t.Helper()
		for k, p := range lps {
			want := ref.SolveStatus(p) == simplex.Optimal
			if got := s.Feasible(p); got != want {
				t.Fatalf("step %d: verdict %v, exact solver says %v", k, got, want)
			}
		}
	}
	newSolver := func() *Solver {
		return &Solver{
			Exact:  simplex.NewWorkspace(),
			Filter: floatlp.NewWorkspace(),
			Cert:   simplex.NewCertifier(),
			Warm:   simplex.NewWarmSolver(),
			Stats:  &SolverStats{},
		}
	}

	t.Run("filter certifies above the gate", func(t *testing.T) {
		lps := []*simplex.Problem{slabDriftLP(0), slabDriftLP(1), slabDriftLP(40)}
		s := newSolver()
		solve(t, s, lps)
		c := s.Stats.Snapshot()
		if c.FilterFeasible != 2 || c.FilterInfeasible != 1 || c.WarmSolves != 0 || c.ColdSolves != 0 || c.ExactFallbacks != 0 {
			t.Fatalf("filter-certified drift reached a later tier: %+v", c)
		}
		// The sequence is one the warm solver does re-enter on its own,
		// so the zero counts above come from the order, not from the LPs.
		w := simplex.NewWarmSolver()
		for _, p := range lps {
			w.Feasible(p)
		}
		if warm, _ := w.Totals(); warm == 0 {
			t.Fatal("the drift sequence never re-enters a warm basis")
		}
	})

	t.Run("sub-gate LP reaches the warm tier", func(t *testing.T) {
		s := newSolver()
		solve(t, s, pdeDriftLPs(t, 3))
		c := s.Stats.Snapshot()
		if c.FilterHits() != 0 || c.WarmSolves == 0 {
			t.Fatalf("sub-gate drift: want no filter verdict and a warm solve, got %+v", c)
		}
	})
}
