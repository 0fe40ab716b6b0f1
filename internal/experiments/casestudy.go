package experiments

import (
	"context"
	"fmt"
	"io"
	"math/big"

	"repro/internal/cone"
	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/engine"
	"repro/internal/exact"
	"repro/internal/explore"
	"repro/internal/haswell"
	"repro/internal/multiplex"
	"repro/internal/pagetable"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// runTable1 verifies that the three representative Table 1 constraints are
// implied by the conventional (initial, m0-style) Haswell MMU model with
// per-level walker references.
func runTable1(w io.Writer, opts Options) error {
	f := haswell.ModelFeatures{RefMode: haswell.RefsPerLevel, ConservativeAborts: true}
	d, err := haswell.BuildDiagram("table1", f)
	if err != nil {
		return err
	}
	reg := counters.NewHaswellRegistry(false)
	set := counters.NewSet(reg.Events()...)
	m, err := core.NewModel("table1", d, set)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "model: conventional Haswell MMU (%d μpaths)\n", m.NumPaths())

	coeff := func(pairs map[counters.Event]int64) exact.Vec {
		v := exact.NewVec(set.Len())
		for e, c := range pairs {
			i, ok := set.Index(e)
			if !ok {
				panic(fmt.Sprintf("unknown event %q", e))
			}
			v[i] = big.NewRat(c, 1)
		}
		return v
	}
	refs := map[counters.Event]int64{
		counters.WalkRefL1: 1, counters.WalkRefL2: 1, counters.WalkRefL3: 1, counters.WalkRefMem: 1,
	}

	// Constraint (1): load.ret_stlb_miss <= load.walk_done.
	c1 := coeff(map[counters.Event]int64{"load.ret_stlb_miss": 1, "load.walk_done": -1})

	// Constraint (2): walk_ref <= load.causes_walk + store.causes_walk
	//   + 3 load.pde$_miss + 3 store.pde$_miss − load.walk_done_2m
	//   − store.walk_done_2m − 2 load.walk_done_1g − 2 store.walk_done_1g.
	p2 := map[counters.Event]int64{
		"load.causes_walk": -1, "store.causes_walk": -1,
		"load.pde$_miss": -3, "store.pde$_miss": -3,
		"load.walk_done_2m": 1, "store.walk_done_2m": 1,
		"load.walk_done_1g": 2, "store.walk_done_1g": 2,
	}
	for e := range refs {
		p2[e] = 1
	}
	c2 := coeff(p2)

	// Constraint (3): load.causes_walk + store.causes_walk +
	//   load.walk_done_1g + store.walk_done_1g <= walk_ref.
	p3 := map[counters.Event]int64{
		"load.causes_walk": 1, "store.causes_walk": 1,
		"load.walk_done_1g": 1, "store.walk_done_1g": 1,
	}
	for e := range refs {
		p3[e] = -1
	}
	c3 := coeff(p3)

	for i, cv := range []exact.Vec{c1, c2, c3} {
		k := cone.Constraint{Set: set, Coeffs: cv, Rel: cone.LEZero}
		fmt.Fprintf(w, "(%d) %s\n    implied by model: %v\n", i+1, k, m.Cone().Implies(k))
	}
	return nil
}

// runFig6 replays the guided-refinement walkthrough: the initial model is
// refuted, the violated constraint names the flaw, and the refined model
// (early PSC lookup + abortable requests) accepts the data because it
// contains a μpath whose signature violates C.
func runFig6(w io.Writer, opts Options) error {
	set := counters.NewSet("load.causes_walk", "load.pde$_miss")
	initial, err := core.ModelFromDSL("fig6a", `
incr load.causes_walk;
do LookupPde$;
switch Pde$Status { Hit => pass; Miss => incr load.pde$_miss; };
done;
`, set)
	if err != nil {
		return err
	}
	refined, err := core.ModelFromDSL("fig6c", `
do LookupPde$;
switch Pde$Status {
    Hit  => pass;
    Miss => {
        incr load.pde$_miss;
        switch Abort { Yes => done; No => pass; };
    };
};
do StartWalk;
incr load.causes_walk;
done;
`, set)
	if err != nil {
		return err
	}
	// Ground-truth-like anomalous observation: pde$_miss > causes_walk.
	obs := anomalousObservation(set)
	v, err := initial.TestObservation(obs, core.DefaultConfidence, stats.Correlated, true)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "initial model feasible: %v\n", v.Feasible)
	for _, k := range v.Violations {
		fmt.Fprintf(w, "violated: %s\n", k)
	}
	v2, err := refined.TestObservation(obs, core.DefaultConfidence, stats.Correlated, false)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "refined model feasible: %v\n", v2.Feasible)
	// Figure 6d: the refined μDD contains a μpath violating C.
	c := cone.Constraint{Set: set, Coeffs: exact.VecFromInts(-1, 1), Rel: cone.LEZero}
	fmt.Fprintf(w, "refined model still implies C: %v (must be false)\n", refined.Cone().Implies(c))
	for _, g := range refined.Cone().Generators() {
		if !c.SatisfiedBy(g) {
			fmt.Fprintf(w, "μpath counter signature violating C: %v (Pde$Status=Miss, Abort=Yes)\n", g)
		}
	}
	return nil
}

func anomalousObservation(set *counters.Set) *counters.Observation {
	obs := counters.NewObservation("anomalous", set)
	for i := 0; i < 240; i++ {
		jitterA := float64(i%7) - 3
		jitterB := float64((i*13)%11) - 5
		obs.Append([]float64{2000 + 40*jitterA, 2600 + 40*jitterA + jitterB})
	}
	return obs
}

// modelTable runs a model catalogue over the corpus and prints a Table
// 3/5/7-style summary. All models share the default engine's session
// caches, so the corpus regions are built once for the whole catalogue
// (and once across all tables in one process).
func modelTable(w io.Writer, opts Options, models []haswell.NamedFeatures) error {
	obs, err := corpus(opts)
	if err != nil {
		return err
	}
	set := haswell.AnalysisSet()
	fmt.Fprintf(w, "%-5s %-50s %-6s\n", "model", "features", "#inf")
	for _, nf := range models {
		m, err := haswell.BuildModel(nf.Name, nf.Features, set)
		if err != nil {
			return err
		}
		sess, err := engine.Default().NewSession(m, engine.Config{})
		if err != nil {
			return err
		}
		res, err := sess.Evaluate(context.Background(), obs)
		if err != nil {
			return err
		}
		star := " "
		if res.Infeasible == 0 {
			star = "*"
		}
		fmt.Fprintf(w, "%s%-4s %-50s %d/%d\n", star, nf.Name, haswell.FeatureString(nf.Features), res.Infeasible, res.Total)
	}
	return nil
}

func runTable3(w io.Writer, opts Options) error {
	return modelTable(w, opts, haswell.Table3Models())
}

func runTable5(w io.Writer, opts Options) error {
	return modelTable(w, opts, haswell.Table5Models())
}

func runTable7(w io.Writer, opts Options) error {
	return modelTable(w, opts, haswell.Table7Models())
}

// runFig10 runs the automated discovery/elimination search over the
// Table 3 feature space (haswell.SearchUniverse) and prints the search
// graph plus the Figure 7 classification. The frontier-parallel search is
// bit-identical to the sequential one, so the report is stable.
func runFig10(w io.Writer, opts Options) error {
	obs, err := corpus(opts)
	if err != nil {
		return err
	}
	universe := haswell.SearchUniverse()
	set := haswell.AnalysisSet()
	builder := func(fs explore.FeatureSet) (*core.Model, error) {
		return haswell.BuildModel("search:"+fs.Key(), haswell.SearchFeatures(func(f string) bool { return fs[f] }), set)
	}
	s := explore.NewSearch(builder, obs)
	final, err := s.Discover(explore.NewFeatureSet(), universe)
	if err != nil {
		return err
	}
	if final.Feasible() {
		if _, err := s.Eliminate(final, universe); err != nil {
			return err
		}
		// The paper's m4-vs-m8 ambiguity: adding the PML4E cache to the
		// discovered model must also be feasible, leaving the data unable
		// to resolve the root-level MMU cache.
		if !final.Features["pml4e"] {
			if _, err := s.Evaluate(final.Features.With("pml4e"), final.Features.Key(), explore.OpEnumerated); err != nil {
				return err
			}
		}
	}
	fmt.Fprint(w, s.GraphReport())
	c := s.Classify(universe)
	fmt.Fprintf(w, "required features (in every feasible model): %v\n", c.Required)
	fmt.Fprintf(w, "optional features (data cannot resolve):     %v\n", c.Optional)
	return nil
}

// measurementCorpus simulates the realistic measurement pipeline for the
// §7.1 statistics: phased workloads recorded at scheduler-slice granularity
// and multiplexed onto 8 physical counters (the paper's SMT-off setup), so
// the resulting samples carry correlated multiplexing noise like perf's.
func measurementCorpus(opts Options, set *counters.Set) ([]*counters.Observation, error) {
	samples := 40
	slices := 20
	if opts.Quick {
		samples = 16
	}
	var out []*counters.Observation
	for seed := int64(1); seed <= 4; seed++ {
		truth, err := corrTruth(samples, slices, 1000, seed)
		if err != nil {
			return nil, err
		}
		noisy, err := multiplex.Apply(truth.Project(set), multiplex.Config{
			PhysicalCounters: 8, SlicesPerSample: slices,
			RotationJitter: true, JitterSeed: seed,
		})
		if err != nil {
			return nil, err
		}
		noisy.Label = fmt.Sprintf("%s/mux%d", truth.Label, seed)
		out = append(out, noisy)
		if opts.Quick {
			break
		}
	}
	return out, nil
}

// corrTruth simulates a workload whose MMU intensity drifts on a timescale
// longer than one sample interval: phases of walk-heavy activity (with the
// merging violation) alternate with TLB-resident phases every 25k μops
// against 20k-μop samples. Every MMU counter rides the same intensity
// envelope, so counter pairs are strongly correlated across samples — the
// §7.1 structure ("over 25% of counter pairs have ρ > 0.9") that makes
// correlated confidence regions tight along constraint directions while
// independent regions blur into the common-mode swing.
func corrTruth(samples, slicesPerSample, uopsPerSlice int, seed int64) (*counters.Observation, error) {
	active, err := workloads.NewRandomBurst(512<<20, 4, 1.0, 40+seed)
	if err != nil {
		return nil, err
	}
	quiet, err := workloads.NewStencil(96<<10, 1.0)
	if err != nil {
		return nil, err
	}
	gen, err := workloads.NewPhased(active, 25000, quiet, 25000)
	if err != nil {
		return nil, err
	}
	cfg := haswell.DefaultConfig(pagetable.Page4K)
	cfg.Features.TLBPrefetch = false
	cfg.Seed = seed
	sim := haswell.NewSimulator(cfg)
	sim.Step(gen, 30000)
	return sim.Observation(gen, samples*slicesPerSample, uopsPerSlice), nil
}

// runCorrStats reports the §7.1 statistics: the fraction of strongly
// correlated counter pairs in multiplexed measurements and how many more
// violations correlated confidence regions detect than independent ones.
func runCorrStats(w io.Writer, opts Options) error {
	reg := counters.NewHaswellRegistry(false)
	set := counters.NewSet(reg.Events()...)
	obs, err := measurementCorpus(opts, set)
	if err != nil {
		return err
	}
	strong, total := 0.0, 0.0
	for _, o := range obs {
		cov := stats.Covariance(o.Samples)
		// Only counters that actually fired participate in the pair
		// statistic; idle counters have no correlation to speak of.
		var active []int
		for i := range cov {
			if cov[i][i] > 0 {
				active = append(active, i)
			}
		}
		sub := make([][]float64, len(active))
		for r, i := range active {
			sub[r] = make([]float64, len(active))
			for c, j := range active {
				sub[r][c] = cov[i][j]
			}
		}
		strong += stats.FractionPairsAbove(stats.Correlation(sub), 0.9)
		total++
	}
	fmt.Fprintf(w, "fraction of active counter pairs with |ρ| > 0.9: %.0f%% (paper: >25%%)\n",
		100*strong/total)

	// Detection comparison: test every deduced constraint of the refutable
	// non-merging model against each observation's region under both noise
	// modes (the paper counts model-constraint violations the same way).
	f := haswell.DiscoveredModelFeatures()
	f.Merging = false
	f.TLBPrefetch = false
	f.RefMode = haswell.RefsPerLevel
	m, err := haswell.BuildModel("corrstats", f, set)
	if err != nil {
		return err
	}
	h, err := m.Constraints()
	if err != nil {
		return err
	}
	viol := map[stats.NoiseMode]int{}
	byConstraint := map[stats.NoiseMode]map[string]int{
		stats.Correlated:  {},
		stats.Independent: {},
	}
	for _, o := range obs {
		for _, mode := range []stats.NoiseMode{stats.Correlated, stats.Independent} {
			r, err := stats.NewRegion(o, core.DefaultConfidence, mode)
			if err != nil {
				return err
			}
			for _, k := range h.All() {
				if core.RegionViolates(r, k) {
					viol[mode]++
					byConstraint[mode][k.String()]++
				}
			}
		}
	}
	for _, mode := range []stats.NoiseMode{stats.Correlated, stats.Independent} {
		for _, k := range sortedKeys(byConstraint[mode]) {
			fmt.Fprintf(w, "  [%s] %dx %s\n", mode, byConstraint[mode][k], k)
		}
	}
	fmt.Fprintf(w, "constraint violations detected, correlated regions:  %d\n", viol[stats.Correlated])
	fmt.Fprintf(w, "constraint violations detected, independent regions: %d\n", viol[stats.Independent])
	switch {
	case viol[stats.Independent] > 0:
		fmt.Fprintf(w, "correlated regions detect %.0f%% more violations (paper: >24%%)\n",
			100*float64(viol[stats.Correlated]-viol[stats.Independent])/float64(viol[stats.Independent]))
	case viol[stats.Correlated] > 0:
		fmt.Fprintf(w, "correlated regions detect %d violations the independent baseline misses entirely (paper: >24%% more)\n",
			viol[stats.Correlated])
	}
	return nil
}
