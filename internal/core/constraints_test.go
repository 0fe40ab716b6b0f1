package core_test

import (
	"math"
	"testing"

	"repro/internal/cone"
	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/haswell"
	"repro/internal/pagetable"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// TestConstraintTablesMatchPerCall pins the per-model constraint tables
// that cone.Cone.Constraints stores. For every catalogue model, each
// deduced constraint's float coefficients equal a fresh big.Rat.Float64
// bit for bit and its text equals a fresh rendering; a hand-built copy of
// the constraint has no table and converts per call, so it is the
// reference. On simulated observations in both noise modes, every
// verdict's violation list equals the reference's, constraint by
// constraint, and the observations the model refutes are counted so the
// check is not vacuous.
func TestConstraintTablesMatchPerCall(t *testing.T) {
	catalog := haswell.Catalog()
	if testing.Short() {
		catalog = catalog[:8]
	}
	var corpus []*counters.Observation
	for seed := int64(1); seed <= 3; seed++ {
		sim := haswell.NewSimulator(haswell.DefaultConfig(pagetable.Page4K))
		gen, err := workloads.NewRandomBurst(256<<20, 8, 0.9, seed)
		if err != nil {
			t.Fatal(err)
		}
		sim.Step(gen, 4000)
		corpus = append(corpus, haswell.WithAggregateWalkRef(sim.Observation(gen, 10, 3000)))
	}
	set := haswell.AnalysisSet()
	refuted, violations := 0, 0
	for _, cm := range catalog {
		m, err := haswell.BuildModel(cm.Name, cm.Features, set)
		if err != nil {
			t.Fatalf("%s: %v", cm.Name, err)
		}
		h, err := m.Constraints()
		if err != nil {
			t.Fatalf("%s: %v", cm.Name, err)
		}
		all := h.All()
		if len(all) != len(h.Equalities)+len(h.Inequalities) {
			t.Fatalf("%s: All has %d constraints, want %d", cm.Name, len(all), len(h.Equalities)+len(h.Inequalities))
		}
		refs := make([]cone.Constraint, len(all))
		for i, k := range all {
			refs[i] = cone.Constraint{Set: k.Set, Coeffs: k.Coeffs, Rel: k.Rel}
			stored := k.Floats()
			if len(stored) != len(k.Coeffs) {
				t.Fatalf("%s constraint %d: %d floats for %d coefficients", cm.Name, i, len(stored), len(k.Coeffs))
			}
			for j, c := range k.Coeffs {
				want, _ := c.Float64()
				if math.Float64bits(stored[j]) != math.Float64bits(want) {
					t.Fatalf("%s constraint %d coefficient %d: stored %v, big.Rat.Float64 %v", cm.Name, i, j, stored[j], want)
				}
			}
			if k.String() != refs[i].String() {
				t.Fatalf("%s constraint %d: stored text %q, fresh %q", cm.Name, i, k.String(), refs[i].String())
			}
		}
		for _, mode := range []stats.NoiseMode{stats.Correlated, stats.Independent} {
			for n, o := range corpus {
				r, err := stats.NewRegion(o.Project(set), core.DefaultConfidence, mode)
				if err != nil {
					t.Fatal(err)
				}
				v, err := m.TestRegion(r, true)
				if err != nil {
					t.Fatal(err)
				}
				if !v.Feasible {
					refuted++
				}
				// The violation list is closed-form over the region, so
				// completing every region as infeasible checks it whatever
				// the LP decided.
				v, err = m.VerdictForRegion(r, false, true)
				if err != nil {
					t.Fatal(err)
				}
				var want []string
				for _, k := range refs {
					if core.RegionViolates(r, k) {
						want = append(want, k.String())
					}
				}
				if len(v.Violations) != len(want) {
					t.Fatalf("%s obs %d mode %v: %d violations, per-call reference %d", cm.Name, n, mode, len(v.Violations), len(want))
				}
				for i, k := range v.Violations {
					if k.String() != want[i] {
						t.Fatalf("%s obs %d mode %v violation %d: %q, per-call reference %q", cm.Name, n, mode, i, k.String(), want[i])
					}
				}
				violations += len(want)
			}
		}
	}
	if refuted == 0 || violations == 0 {
		t.Fatalf("%d refuted verdicts and %d violations: the corpus exercises nothing", refuted, violations)
	}
	t.Logf("%d models, %d refuted verdicts, %d violations checked", len(catalog), refuted, violations)
}
