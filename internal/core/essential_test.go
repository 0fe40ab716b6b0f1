package core_test

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/haswell"
	"repro/internal/pagetable"
	"repro/internal/simplex"
	"repro/internal/stats"
	"repro/internal/tier"
	"repro/internal/workloads"
)

// essentialCorpus simulates six observations, bursty and uniform at three
// seeds each, so the catalogue's region LPs split into feasible and
// infeasible ones.
func essentialCorpus(t *testing.T) []*counters.Observation {
	t.Helper()
	var corpus []*counters.Observation
	for _, seed := range []int64{3, 5, 7} {
		for _, burst := range []bool{true, false} {
			var gen workloads.Generator
			var err error
			if burst {
				gen, err = workloads.NewRandomBurst(256<<20, 8, 0.9, seed)
			} else {
				gen, err = workloads.NewRandom(256<<20, 0.8, seed)
			}
			if err != nil {
				t.Fatal(err)
			}
			sim := haswell.NewSimulator(haswell.DefaultConfig(pagetable.Page4K))
			sim.Step(gen, 4000)
			corpus = append(corpus, haswell.WithAggregateWalkRef(sim.Observation(gen, 10, 3000)))
		}
	}
	return corpus
}

// TestEssentialColumnsMatchAllGenerators is the differential behind
// RegionLP's columns being the cone's essential generators: on every
// catalogue model over each cumulative counter group and the analysis set,
// against six simulated observations, the essential-column LP decided on
// the exact simplex must give the verdict of the all-generator LP
// (core.RegionLPAllGenerators), decided on the hybrid solver. Each
// essential-column LP must have exactly one column per essential
// generator. -short checks the first six catalogue models only.
func TestEssentialColumnsMatchAllGenerators(t *testing.T) {
	catalog := haswell.Catalog()
	if testing.Short() {
		catalog = catalog[:6]
	}
	corpus := essentialCorpus(t)
	steps := counters.NewHaswellRegistry(false).CumulativeGroups()
	steps = append(steps, counters.GroupStep{Group: "analysis", Set: haswell.AnalysisSet()})
	ess, all := simplex.NewProblem(0), simplex.NewProblem(0)
	ws, hybrid := simplex.NewWorkspace(), tier.NewSolver(nil)
	var lps, feasible, essCols, allCols int
	for _, cm := range catalog {
		for _, step := range steps {
			m, err := haswell.BuildModel(cm.Name, cm.Features, step.Set)
			if err != nil {
				t.Fatalf("%s/%s: %v", cm.Name, step.Group, err)
			}
			keep := m.Cone().EssentialIndices()
			for k, o := range corpus {
				r, err := stats.NewRegion(o.Project(step.Set), core.DefaultConfidence, stats.Correlated)
				if err != nil {
					t.Fatalf("%s/%s/%d: %v", cm.Name, step.Group, k, err)
				}
				if err := m.RegionLP(ess, r); err != nil {
					t.Fatal(err)
				}
				if err := core.RegionLPAllGenerators(m, all, r); err != nil {
					t.Fatal(err)
				}
				if ess.NumVars != len(keep) || all.NumVars != m.Cone().Len() {
					t.Fatalf("%s/%s: %d and %d columns, want %d essential and %d generators",
						cm.Name, step.Group, ess.NumVars, all.NumVars, len(keep), m.Cone().Len())
				}
				got := ws.SolveStatus(ess) == simplex.Optimal
				if want := hybrid.Feasible(all); got != want {
					t.Fatalf("%s/%s/%d: essential-column LP feasible=%v, all-generator LP feasible=%v",
						cm.Name, step.Group, k, got, want)
				}
				lps++
				essCols += ess.NumVars
				allCols += all.NumVars
				if got {
					feasible++
				}
			}
		}
	}
	t.Logf("%d region LPs (%d feasible, %d infeasible) agree; %d essential columns against %d",
		lps, feasible, lps-feasible, essCols, allCols)
	if feasible == 0 || feasible == lps {
		t.Fatalf("corpus is one-sided: %d of %d LPs feasible", feasible, lps)
	}
}

// TestConcurrentFirstRegionLP builds a fresh model's first region LPs
// from several goroutines at once, while another deduces its constraints:
// they share the cone's one essential pass (run it under -race), and every
// LP must equal the one a sequentially used model builds.
func TestConcurrentFirstRegionLP(t *testing.T) {
	var cm haswell.CatalogModel
	for _, c := range haswell.Catalog() {
		if c.Name == "a3" {
			cm = c
		}
	}
	obs := essentialCorpus(t)[0]
	fresh := func() *core.Model {
		m, err := core.ModelFromDSL(cm.Name, cm.Source, nil)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	ref := fresh()
	r, err := stats.NewRegion(obs.Project(ref.Set), core.DefaultConfidence, stats.Correlated)
	if err != nil {
		t.Fatal(err)
	}
	p := simplex.NewProblem(0)
	if err := ref.RegionLP(p, r); err != nil {
		t.Fatal(err)
	}
	want := core.HashLP(p)

	m := fresh()
	const callers = 4
	hashes := make([]core.LPHash, callers)
	errs := make([]error, callers+1)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			p := simplex.NewProblem(0)
			if errs[i] = m.RegionLP(p, r); errs[i] == nil {
				hashes[i] = core.HashLP(p)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		_, errs[callers] = m.Constraints()
	}()
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	for i, h := range hashes {
		if h != want {
			t.Fatalf("caller %d: region LP hash %s, sequential model's %s", i, h, want)
		}
	}
	if got, want := len(m.Cone().EssentialIndices()), len(ref.Cone().EssentialIndices()); got != want || got >= m.Cone().Len() {
		t.Fatalf("%d essential generators of %d, sequential model %d", got, m.Cone().Len(), want)
	}
}
