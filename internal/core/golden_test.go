package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/haswell"
	"repro/internal/pagetable"
	"repro/internal/simplex"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// TestGoldenLPHashes pins core.HashLP on catalogue region LPs: three
// models over each of the Ret, L2TLB and Walk counter groups and the full
// analysis set, on one simulated observation with a fixed seed. (On Ret
// and L2TLB the three models build the same LP.) A -verdict-db file stores
// verdicts under these hashes, so a change to the clp2 encoding or to the
// region LP construction that moves one of them orphans every stored
// verdict.
func TestGoldenLPHashes(t *testing.T) {
	golden := map[string]string{
		"m0/Ret":      "8837f713064abc1dc8cf4dd4028bc0e6ccc50032290cc323220c9f89fba3bf33",
		"t9/Ret":      "8837f713064abc1dc8cf4dd4028bc0e6ccc50032290cc323220c9f89fba3bf33",
		"a3/Ret":      "8837f713064abc1dc8cf4dd4028bc0e6ccc50032290cc323220c9f89fba3bf33",
		"m0/L2TLB":    "3aab9f06c22901b6721166a476b1b0a7fbcddc945b06eb4571b6bfa9d0e49fdc",
		"t9/L2TLB":    "3aab9f06c22901b6721166a476b1b0a7fbcddc945b06eb4571b6bfa9d0e49fdc",
		"a3/L2TLB":    "3aab9f06c22901b6721166a476b1b0a7fbcddc945b06eb4571b6bfa9d0e49fdc",
		"m0/Walk":     "ce9a9cc8b53dcd40ea087fbce8e909a981c5221f707d0fbf21249a756834f5f2",
		"t9/Walk":     "460de67051d5fd737f1cc33b6a023b7847b1ae918da917f4ecd322943a1348e9",
		"a3/Walk":     "a9964b1ae87775f5281e97a029fed3039f99d1ff335a430d6000b5f04cba1d1a",
		"m0/analysis": "0f621e6f12dcbfe8f54bad200285c9acce112b9f5b80dc91e2167777ea676399",
		"t9/analysis": "206007067002c87c7434a18d1c34a2287ef6e32406caef61d4bdcd938a3e6624",
		"a3/analysis": "7118d13318614ebd46443bcf38b9644e0a195d5ae1060c63e5f2640303980bc7",
	}
	sim := haswell.NewSimulator(haswell.DefaultConfig(pagetable.Page4K))
	gen, err := workloads.NewRandomBurst(256<<20, 8, 0.9, 3)
	if err != nil {
		t.Fatal(err)
	}
	sim.Step(gen, 4000)
	obs := haswell.WithAggregateWalkRef(sim.Observation(gen, 10, 3000))
	models := map[string]haswell.CatalogModel{}
	for _, cm := range haswell.Catalog() {
		models[cm.Name] = cm
	}
	groups := counters.NewHaswellRegistry(false).CumulativeGroups(false)[:3] // Ret, L2TLB, Walk
	groups = append(groups, counters.GroupStep{Group: "analysis", Set: haswell.AnalysisSet()})
	p := simplex.NewProblem(0)
	for _, step := range groups {
		for _, name := range []string{"m0", "t9", "a3"} {
			cm, ok := models[name]
			if !ok {
				t.Fatalf("catalogue has no model %s", name)
			}
			m, err := haswell.BuildModel(cm.Name, cm.Features, step.Set)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, step.Group, err)
			}
			r, err := stats.NewRegion(obs.Project(step.Set), core.DefaultConfidence, stats.Correlated)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.RegionLP(p, r); err != nil {
				t.Fatal(err)
			}
			key := name + "/" + string(step.Group)
			got := core.HashLP(p).String()
			if want, ok := golden[key]; !ok || got != want {
				t.Errorf("%s: HashLP %s, want %s", key, got, want)
			}
		}
	}
}
