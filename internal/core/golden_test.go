package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/haswell"
	"repro/internal/pagetable"
	"repro/internal/simplex"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// TestGoldenLPHashes pins core.HashLP on catalogue region LPs, and each
// LP's column count: three models over each of the Ret, L2TLB and Walk
// counter groups and the full analysis set, on one simulated observation
// with a fixed seed. (On Ret and L2TLB the three models build the same
// LP, and on Walk t9 and a3 do.) A -verdict-db file stores verdicts under
// these hashes, so a change to the clp2 encoding or to the region LP
// construction that moves one of them orphans every stored verdict. The
// columns are the cone's essential generators; vars is their number.
// The Walk and analysis LPs are over linearly dependent counters, so
// they also pin the basis the region eigensolver picks for the
// covariance's zero eigenspace.
func TestGoldenLPHashes(t *testing.T) {
	type lp struct {
		hash string
		vars int
	}
	golden := map[string]lp{
		"m0/Ret":      {"8837f713064abc1dc8cf4dd4028bc0e6ccc50032290cc323220c9f89fba3bf33", 4},
		"t9/Ret":      {"8837f713064abc1dc8cf4dd4028bc0e6ccc50032290cc323220c9f89fba3bf33", 4},
		"a3/Ret":      {"8837f713064abc1dc8cf4dd4028bc0e6ccc50032290cc323220c9f89fba3bf33", 4},
		"m0/L2TLB":    {"9432ba8cdf008ba4c2bc718538cb8cc44887175ab9b334c732798034f78edff0", 10},
		"t9/L2TLB":    {"9432ba8cdf008ba4c2bc718538cb8cc44887175ab9b334c732798034f78edff0", 10},
		"a3/L2TLB":    {"9432ba8cdf008ba4c2bc718538cb8cc44887175ab9b334c732798034f78edff0", 10},
		"m0/Walk":     {"6204007e56cc7df2791d03eacfe793f1e2fdcf7c512a5e8b72f5dc3160ee6d68", 28},
		"t9/Walk":     {"fb7a01928208e5da3eb7d96d8b931895edbc60df6cbcbb4a0396e3fa90678206", 20},
		"a3/Walk":     {"fb7a01928208e5da3eb7d96d8b931895edbc60df6cbcbb4a0396e3fa90678206", 20},
		"m0/analysis": {"c0270c6220dcb5a1e7590f10630f1e375f6bf4a46990703e9d47af9b35cb84f0", 40},
		"t9/analysis": {"47fca9311f04a22001723b54071bf0c3d891decdaafd5f51b6da7defa34957f4", 32},
		"a3/analysis": {"e31814c86ae57ac16bef43896d64ab103cb54e270404c14d6280c9d921392c30", 21},
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
			got := lp{core.HashLP(p).String(), p.NumVars}
			if want, ok := golden[key]; !ok || got != want {
				t.Errorf("%s: HashLP %s over %d columns (of %d generators), want %s over %d",
					key, got.hash, got.vars, m.Cone().Len(), want.hash, want.vars)
			}
		}
	}
}

// TestCatalogueContentKeysGolden pins Model.ContentKey for every catalogue
// model, over its own counters (as counterpointd compiles it) and over the
// analysis set: one SHA-256 over each model's name and both keys. The
// region cache, the LP-hash memo and the verdict cache are keyed by it, so
// a change to how generators are normalised, ordered or printed that moves
// one key makes every cached entry for that model unreachable.
func TestCatalogueContentKeysGolden(t *testing.T) {
	const want = "0cc004fed4ce70b27846428cd3d20cd74142a2f37d48245dd5e27fe79d56b30c"
	h := sha256.New()
	for _, cm := range haswell.Catalog() {
		own, err := core.ModelFromDSL(cm.Name, cm.Source, nil)
		if err != nil {
			t.Fatalf("%s: %v", cm.Name, err)
		}
		all, err := haswell.BuildModel(cm.Name, cm.Features, haswell.AnalysisSet())
		if err != nil {
			t.Fatalf("%s: %v", cm.Name, err)
		}
		fmt.Fprintf(h, "%s %s %s\n", cm.Name, own.ContentKey(), all.ContentKey())
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("catalogue content-key digest %s, want %s", got, want)
	}
}
