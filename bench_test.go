package repro

// Benchmark harness: one benchmark per paper table/figure (regenerating it
// through internal/experiments in quick mode) plus micro-benchmarks for the
// core algorithmic pieces that Figures 9a/9b characterise.

import (
	"io"
	"repro/internal/tier"
	"testing"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/dsl"
	"repro/internal/experiments"
	"repro/internal/floatlp"
	"repro/internal/haswell"
	"repro/internal/pagetable"
	"repro/internal/simplex"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// benchExperiment reruns a whole experiment in quick mode.
func benchExperiment(b *testing.B, name string) {
	b.Helper()
	opts := experiments.Options{Quick: true}
	for i := 0; i < b.N; i++ {
		if err := experiments.Run(io.Discard, name, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1a(b *testing.B)     { benchExperiment(b, "fig1a") }
func BenchmarkFig1b(b *testing.B)     { benchExperiment(b, "fig1b") }
func BenchmarkFig1c(b *testing.B)     { benchExperiment(b, "fig1c") }
func BenchmarkFig3(b *testing.B)      { benchExperiment(b, "fig3") }
func BenchmarkFig3d(b *testing.B)     { benchExperiment(b, "fig3d") }
func BenchmarkFig5a(b *testing.B)     { benchExperiment(b, "fig5a") }
func BenchmarkTable1(b *testing.B)    { benchExperiment(b, "table1") }
func BenchmarkFig6(b *testing.B)      { benchExperiment(b, "fig6") }
func BenchmarkTable3(b *testing.B)    { benchExperiment(b, "table3") }
func BenchmarkFig10(b *testing.B)     { benchExperiment(b, "fig10") }
func BenchmarkTable5(b *testing.B)    { benchExperiment(b, "table5") }
func BenchmarkTable7(b *testing.B)    { benchExperiment(b, "table7") }
func BenchmarkCorrStats(b *testing.B) { benchExperiment(b, "corrstats") }

// BenchmarkFig9aFeasibility measures single-observation feasibility
// testing per cumulative counter group (the paper's Figure 9a, ~linear in
// counters), for both tiers of the two-tier solver: "exact" drives every
// verdict through the rational simplex, "hybrid" lets the float64
// revised-simplex filter certify verdicts first. Each iteration rebuilds
// the confidence region and the LP — the cold single-observation path.
func BenchmarkFig9aFeasibility(b *testing.B) {
	d, err := haswell.BuildDiagram("bench", haswell.DiscoveredModelFeatures())
	if err != nil {
		b.Fatal(err)
	}
	obs := benchObservation(b)
	reg := counters.NewHaswellRegistry(false)
	var acc []counters.Event
	for _, g := range []counters.Group{counters.GroupRet, counters.GroupSTLB, counters.GroupWalk} {
		acc = append(acc, reg.GroupEvents(g)...)
		set := counters.NewSet(acc...)
		m, err := core.NewModel("bench", d, set)
		if err != nil {
			b.Fatal(err)
		}
		for _, tier := range []struct {
			name   string
			solver *core.Solver
		}{
			{"exact", &core.Solver{Exact: simplex.NewWorkspace()}},
			{"hybrid", tier.NewSolver(nil)},
		} {
			b.Run(string(g)+"/"+tier.name, func(b *testing.B) {
				proj := obs.Project(set)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r, err := stats.NewRegion(proj, core.DefaultConfidence, stats.Correlated)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := m.TestRegionSolver(tier.solver, r, false); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		// certify-only isolates the per-verdict certification cost the
		// int64 kernel targets: one float-tier certificate, checked
		// exactly over and over on a fixed LP (no region/LP rebuild, no
		// float solve in the timed loop).
		b.Run(string(g)+"/certify-only", func(b *testing.B) {
			proj := obs.Project(set)
			r, err := stats.NewRegion(proj, core.DefaultConfidence, stats.Correlated)
			if err != nil {
				b.Fatal(err)
			}
			p := simplex.NewProblem(0)
			if err := m.RegionLP(p, r); err != nil {
				b.Fatal(err)
			}
			out := floatlp.NewWorkspace().Feasibility(p)
			cert := simplex.NewCertifier()
			b.ReportAllocs()
			b.ResetTimer()
			switch out.Status {
			case floatlp.Feasible:
				for i := 0; i < b.N; i++ {
					if !cert.CertifyPoint(p, out.Point) {
						b.Fatal("feasible certificate rejected")
					}
				}
			case floatlp.Infeasible:
				for i := 0; i < b.N; i++ {
					if !cert.CertifyFarkasBasis(p, out.Basis) {
						b.Fatal("Farkas basis certificate rejected")
					}
				}
			default:
				b.Skip("float filter inconclusive on the bench LP")
			}
		})
	}
}

// BenchmarkRegionLPHash measures building one Fig 9a region LP into a
// reused problem and hashing its canonical form — the per-verdict work of
// every fresh LP before any solver runs when a verdict store is attached.
func BenchmarkRegionLPHash(b *testing.B) {
	d, err := haswell.BuildDiagram("bench", haswell.DiscoveredModelFeatures())
	if err != nil {
		b.Fatal(err)
	}
	obs := benchObservation(b)
	reg := counters.NewHaswellRegistry(false)
	var acc []counters.Event
	for _, g := range []counters.Group{counters.GroupRet, counters.GroupSTLB, counters.GroupWalk} {
		acc = append(acc, reg.GroupEvents(g)...)
		set := counters.NewSet(acc...)
		m, err := core.NewModel("bench", d, set)
		if err != nil {
			b.Fatal(err)
		}
		r, err := stats.NewRegion(obs.Project(set), core.DefaultConfidence, stats.Correlated)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(string(g), func(b *testing.B) {
			ws := simplex.NewWorkspace()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := ws.Prepare(0)
				if err := m.RegionLP(p, r); err != nil {
					b.Fatal(err)
				}
				lpHashSink = core.HashLP(p)
			}
		})
	}
}

// lpHashSink keeps BenchmarkRegionLPHash's hash live.
var lpHashSink core.LPHash

// BenchmarkFig9bDeduction measures constraint deduction per cumulative
// counter group (the paper's Figure 9b, exponential in groups).
func BenchmarkFig9bDeduction(b *testing.B) {
	d, err := haswell.BuildDiagram("bench", haswell.DiscoveredModelFeatures())
	if err != nil {
		b.Fatal(err)
	}
	reg := counters.NewHaswellRegistry(false)
	var acc []counters.Event
	for _, g := range []counters.Group{counters.GroupRet, counters.GroupSTLB, counters.GroupWalk} {
		acc = append(acc, reg.GroupEvents(g)...)
		set := counters.NewSet(acc...)
		b.Run(string(g), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// A fresh model per iteration: Constraints() is cached.
				m, err := core.NewModel("bench", d, set)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := m.Constraints(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkModelSetup measures what a catalogue model costs before its
// first verdict with identify on: compile the DSL, build the model over
// its own counter set (μpath enumeration and the cone) and deduce its
// constraints. m0, a3 and discovered are the models counterpointd's
// test-fresh benchmark workload describes at setup.
func BenchmarkModelSetup(b *testing.B) {
	for _, name := range []string{"m0", "a3", "discovered"} {
		var src string
		for _, cm := range haswell.Catalog() {
			if cm.Name == name {
				src = cm.Source
			}
		}
		if src == "" {
			b.Fatalf("catalogue has no model %s", name)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := core.ModelFromDSL(name, src, nil)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := m.Constraints(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchObservation(b *testing.B) *counters.Observation {
	b.Helper()
	sim := haswell.NewSimulator(haswell.DefaultConfig(pagetable.Page4K))
	gen, err := workloads.NewRandomBurst(256<<20, 8, 0.9, 3)
	if err != nil {
		b.Fatal(err)
	}
	sim.Step(gen, 10000)
	return haswell.WithAggregateWalkRef(sim.Observation(gen, 12, 8000))
}

// BenchmarkSimulator measures the Haswell MMU simulator's μop throughput.
func BenchmarkSimulator(b *testing.B) {
	sim := haswell.NewSimulator(haswell.DefaultConfig(pagetable.Page4K))
	gen, err := workloads.NewRandom(256<<20, 0.8, 5)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	sim.Step(gen, b.N)
}

// BenchmarkDSLCompile measures compiling the full discovered-feature model
// from DSL source to a validated μDD.
func BenchmarkDSLCompile(b *testing.B) {
	src := haswell.GenerateDSL(haswell.DiscoveredModelFeatures())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dsl.Compile("bench", src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPathEnumeration measures μpath enumeration and signature
// extraction for the discovered model.
func BenchmarkPathEnumeration(b *testing.B) {
	d, err := haswell.BuildDiagram("bench", haswell.DiscoveredModelFeatures())
	if err != nil {
		b.Fatal(err)
	}
	set := haswell.AnalysisSet()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Signatures(set); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFeasibilityLP measures one feasibility LP verdict on the full
// analysis counter set over a cached LP — the engine's steady state, where
// RegionLP construction is amortised by the per-(model, region) cache and
// the solve is the hot path. "exact" is the rational phase-1 simplex;
// "hybrid" is the two-tier solver (float64 revised-simplex filter + exact
// certificate check, falling back to the exact solver when certification
// fails). The ISSUE 3 acceptance criterion is hybrid ≥2× fewer ns/op.
func BenchmarkFeasibilityLP(b *testing.B) {
	set := haswell.AnalysisSet()
	m, err := haswell.BuildModel("bench", haswell.DiscoveredModelFeatures(), set)
	if err != nil {
		b.Fatal(err)
	}
	obs := benchObservation(b)
	r, err := stats.NewRegion(obs.Project(set), core.DefaultConfidence, stats.Correlated)
	if err != nil {
		b.Fatal(err)
	}
	p := simplex.NewProblem(0)
	if err := m.RegionLP(p, r); err != nil {
		b.Fatal(err)
	}
	for _, tier := range []struct {
		name   string
		solver *core.Solver
	}{
		{"exact", &core.Solver{Exact: simplex.NewWorkspace()}},
		{"hybrid", tier.NewSolver(nil)},
	} {
		b.Run(tier.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := m.TestRegionLP(tier.solver, p, r, false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkReplay(b *testing.B)    { benchExperiment(b, "replay") }
func BenchmarkExtension(b *testing.B) { benchExperiment(b, "extension") }
func BenchmarkErrata(b *testing.B)    { benchExperiment(b, "errata") }
