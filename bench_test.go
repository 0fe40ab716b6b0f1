package repro

// Benchmark harness: one benchmark per paper table/figure (regenerating it
// through internal/experiments in quick mode) plus micro-benchmarks for the
// core algorithmic pieces that Figures 9a/9b characterise.

import (
	"io"
	"math"
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
			{"hybrid", core.NewSolver(nil)},
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
					if !cert.CertifyFarkas(p, out.Ray) {
						b.Fatal("Farkas certificate rejected")
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
// every fresh LP before any solver runs, and of every LP-hash memo miss.
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
// the solve is the hot path. "exact" is the rational two-phase simplex;
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
		{"hybrid", core.NewSolver(nil)},
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

// driftObservation returns a copy of o with every sample shifted by the
// same constant vector (frac of the mean, per coordinate, rounded to an
// integer so counter samples stay integers and the LP bounds stay cheap
// rationals). The shift leaves the sample covariance — and therefore the
// confidence-region axes — bit-identical, so consecutive regions of a
// drift sequence yield feasibility LPs sharing their coefficient rows
// with drifting bounds: the workload the warm-start dual simplex
// re-enters a cached basis for.
func driftObservation(o *counters.Observation, frac float64) *counters.Observation {
	mean := o.Mean()
	out := counters.NewObservation(o.Label, o.Set)
	for _, s := range o.Samples {
		v := make([]float64, len(s))
		for j := range s {
			v[j] = s[j] + math.Round(frac*(1+mean[j]))
		}
		out.Append(v)
	}
	return out
}

// BenchmarkWalkWarmStart measures the walk steady state the warm-start
// dual simplex targets: a sequence of confidence regions whose axes are
// identical and whose bounds drift step to step (driftObservation), each
// step needing one exact feasibility verdict on the full analysis set —
// the same LP shape as Fig9a's Walk group. "cold" solves every step from
// scratch on the exact workspace (the PR 5 walk baseline); "warm"
// re-enters the previous step's optimal basis and repairs it with dual
// pivots. Both arms rebuild the LP rows per step (bounds change);
// verdicts are checked identical before timing.
func BenchmarkWalkWarmStart(b *testing.B) {
	// The same cumulative Walk-group counter set as Fig9a's Walk case, so
	// "cold" here is directly comparable to Fig9aFeasibility/Walk/exact.
	reg := counters.NewHaswellRegistry(false)
	var acc []counters.Event
	for _, g := range []counters.Group{counters.GroupRet, counters.GroupSTLB, counters.GroupWalk} {
		acc = append(acc, reg.GroupEvents(g)...)
	}
	set := counters.NewSet(acc...)
	m, err := haswell.BuildModel("bench", haswell.DiscoveredModelFeatures(), set)
	if err != nil {
		b.Fatal(err)
	}
	proj := benchObservation(b).Project(set)
	const steps = 32
	regions := make([]*stats.Region, steps)
	for k := 0; k < steps; k++ {
		r, err := stats.NewRegion(driftObservation(proj, 0.002*float64(k)), core.DefaultConfidence, stats.Correlated)
		if err != nil {
			b.Fatal(err)
		}
		regions[k] = r
	}

	// Untimed equivalence pass: the warm path must agree with the exact
	// solver on every step of the drift sequence.
	{
		ws := simplex.NewWorkspace()
		warm := simplex.NewWarmSolver()
		p := simplex.NewProblem(0)
		warmHits := 0
		for _, r := range regions {
			p.Reset(0)
			if err := m.RegionLP(p, r); err != nil {
				b.Fatal(err)
			}
			want := ws.SolveStatus(p) == simplex.Optimal
			if got, ok := warm.Feasible(p); ok {
				if got != want {
					b.Fatalf("warm verdict %v, exact verdict %v — divergence", got, want)
				}
				if w, _ := warm.LastSolve(); w {
					warmHits++
				}
			}
		}
		if warmHits == 0 {
			b.Fatal("warm-start path never engaged on the drift sequence")
		}
	}

	b.Run("cold", func(b *testing.B) {
		ws := simplex.NewWorkspace()
		p := simplex.NewProblem(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := regions[i%steps]
			p.Reset(0)
			if err := m.RegionLP(p, r); err != nil {
				b.Fatal(err)
			}
			_ = ws.SolveStatus(p) == simplex.Optimal
		}
	})
	b.Run("warm", func(b *testing.B) {
		warm := simplex.NewWarmSolver()
		p := simplex.NewProblem(0)
		// Two untimed passes prime and then seed every structure in the
		// drift cycle, so the timed loop is the steady state — pure basis
		// re-entries — and ns/op and allocs/op do not depend on how many
		// iterations the cold seeds amortise over.
		for pass := 0; pass < 2; pass++ {
			for _, r := range regions {
				p.Reset(0)
				if err := m.RegionLP(p, r); err != nil {
					b.Fatal(err)
				}
				warm.Feasible(p)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := regions[i%steps]
			p.Reset(0)
			if err := m.RegionLP(p, r); err != nil {
				b.Fatal(err)
			}
			if _, ok := warm.Feasible(p); !ok {
				b.Fatal("warm solver declined a seeded structure")
			}
		}
	})
}

func BenchmarkReplay(b *testing.B)    { benchExperiment(b, "replay") }
func BenchmarkExtension(b *testing.B) { benchExperiment(b, "extension") }
func BenchmarkErrata(b *testing.B)    { benchExperiment(b, "errata") }
