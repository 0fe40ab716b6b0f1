package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/haswell"
	"repro/internal/pagetable"
	"repro/internal/stats"
	"repro/internal/tier"
	"repro/internal/workloads"
)

// TestRefutationsRunOnePhase1 pins the solver's refutation path on the
// catalogue: every refuted region LP is certified from the tightened
// solve's basis, so the filter runs phase 1 once per verdict and never
// re-solves untightened. The count is the filter workspace's own.
func TestRefutationsRunOnePhase1(t *testing.T) {
	catalog := haswell.Catalog()
	if testing.Short() {
		catalog = catalog[:8]
	}
	var corpus []*counters.Observation
	for _, s := range []struct {
		burst bool
		seed  int64
	}{{true, 3}, {false, 5}} {
		sim := haswell.NewSimulator(haswell.DefaultConfig(pagetable.Page4K))
		var gen workloads.Generator
		var err error
		if s.burst {
			gen, err = workloads.NewRandomBurst(256<<20, 8, 0.9, s.seed)
		} else {
			gen, err = workloads.NewRandom(256<<20, 0.8, s.seed)
		}
		if err != nil {
			t.Fatal(err)
		}
		sim.Step(gen, 4000)
		corpus = append(corpus, haswell.WithAggregateWalkRef(sim.Observation(gen, 10, 3000)))
	}
	sets := []*counters.Set{haswell.AnalysisSet()}
	for _, step := range counters.NewHaswellRegistry(false).CumulativeGroups()[:3] { // Ret, L2TLB, Walk
		sets = append(sets, step.Set)
	}
	st := &core.SolverStats{}
	sv := tier.NewSolver(st)
	refuted := 0
	for _, cm := range catalog {
		for _, set := range sets {
			m, err := haswell.BuildModel(cm.Name, cm.Features, set)
			if err != nil {
				t.Fatalf("%s: %v", cm.Name, err)
			}
			for k, o := range corpus {
				r, err := stats.NewRegion(o.Project(set), core.DefaultConfidence, stats.Correlated)
				if err != nil {
					t.Fatalf("%s/%d: %v", cm.Name, k, err)
				}
				before := sv.Filter.Phase1Runs()
				v, err := m.TestRegionSolver(sv, r, false)
				if err != nil {
					t.Fatalf("%s/%d: %v", cm.Name, k, err)
				}
				if runs := sv.Filter.Phase1Runs() - before; !v.Feasible {
					refuted++
					if runs != 1 {
						t.Errorf("%s/%d: refutation ran phase 1 %d times", cm.Name, k, runs)
					}
				}
			}
		}
	}
	c := st.Snapshot()
	t.Logf("%d refutations; solver telemetry %+v", refuted, c)
	if refuted == 0 {
		t.Fatal("no catalogue LP was refuted: coverage too thin")
	}
	if c.FilterInfeasible != uint64(refuted) || c.ExactFallbacks != 0 || c.CertFailures != 0 {
		t.Fatalf("refutations not all filter-certified: %+v", c)
	}
}
