package core_test

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/haswell"
	"repro/internal/pagetable"
	"repro/internal/simplex"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// TestRegionLPMatchesRatReference pins RegionLP's integer-native rows
// against the big.Rat construction it replaced (core.RegionLPRat), value
// for value, on catalogue models × simulated regions over the cumulative
// counter groups: every row has the same relation, the same primitive
// integer form (entries and scale), the same rational coefficients and
// right-hand side, and the two LPs hash equal.
func TestRegionLPMatchesRatReference(t *testing.T) {
	catalog := haswell.Catalog()
	if testing.Short() {
		catalog = catalog[:6]
	}
	var corpus []*counters.Observation
	for _, seed := range []int64{3, 5, 7} {
		sim := haswell.NewSimulator(haswell.DefaultConfig(pagetable.Page4K))
		gen, err := workloads.NewRandomBurst(256<<20, 8, 0.9, seed)
		if err != nil {
			t.Fatal(err)
		}
		sim.Step(gen, 4000)
		corpus = append(corpus, haswell.WithAggregateWalkRef(sim.Observation(gen, 10, 3000)))
	}
	steps := counters.NewHaswellRegistry(false).CumulativeGroups()[:3] // Ret, L2TLB, Walk
	native, ref := simplex.NewProblem(0), simplex.NewProblem(0)
	compared, rows := 0, 0
	for _, cm := range catalog {
		for _, step := range steps {
			m, err := haswell.BuildModel(cm.Name, cm.Features, step.Set)
			if err != nil {
				t.Fatalf("%s/%s: %v", cm.Name, step.Group, err)
			}
			for k, o := range corpus {
				r, err := stats.NewRegion(o.Project(step.Set), core.DefaultConfidence, stats.Correlated)
				if err != nil {
					t.Fatalf("%s/%s/%d: %v", cm.Name, step.Group, k, err)
				}
				if err := m.RegionLP(native, r); err != nil {
					t.Fatal(err)
				}
				if err := core.RegionLPRat(m, ref, r); err != nil {
					t.Fatal(err)
				}
				where := func() string { return cm.Name + "/" + string(step.Group) }
				if native.NumVars != ref.NumVars || len(native.Constraints) != len(ref.Constraints) {
					t.Fatalf("%s: shape %d×%d, reference %d×%d", where(),
						native.NumVars, len(native.Constraints), ref.NumVars, len(ref.Constraints))
				}
				rat := native.RatConstraints()
				for i := range ref.Constraints {
					want := &ref.Constraints[i]
					got := &rat[i]
					if got.Rel != want.Rel || got.RHS.Cmp(want.RHS) != 0 || got.Coeffs.Key() != want.Coeffs.Key() {
						t.Fatalf("%s row %d: rational view %v %v %v, reference %v %v %v", where(), i,
							got.Coeffs, got.Rel, got.RHS, want.Coeffs, want.Rel, want.RHS)
					}
					a, s, ok := native.IntRow(i)
					wa, ws, wok := ref.IntRow(i)
					if ok != wok || s != ws || !slices.Equal(a, wa) {
						t.Fatalf("%s row %d: integer form %v·%v (%v), reference %v·%v (%v)", where(), i,
							s, a, ok, ws, wa, wok)
					}
					rows++
				}
				if core.HashLP(native) != core.HashLP(ref) {
					t.Fatalf("%s: integer-native and reference LPs hash apart", where())
				}
				compared++
			}
		}
	}
	t.Logf("%d region LPs, %d rows compared", compared, rows)
}
