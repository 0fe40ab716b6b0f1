package repro

// Solver-equivalence property tests for the two-tier feasibility solver:
// across the full Table 3/5/7 model catalogue evaluated on simulated
// observations, the hybrid (float filter + exact certificate checking +
// exact fallback) must agree verdict-for-verdict with the exact rational
// simplex, and the exact simplex's int64 kernel tableau must agree
// verdict-for-verdict with the pure big.Rat reference tableau. Fallback
// and promotion rates are reported, not hidden (ISSUE 3 and ISSUE 5
// acceptance criteria); randomized-LP equivalence lives in
// internal/floatlp and internal/simplex.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/floatlp"
	"repro/internal/haswell"
	"repro/internal/pagetable"
	"repro/internal/simplex"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// hybridCorpus simulates a few observations with distinct workload shapes
// so the catalogue models split into feasible and refuted verdicts.
func hybridCorpus(t *testing.T) []*counters.Observation {
	t.Helper()
	type spec struct {
		label    string
		burst    bool
		locality float64
		seed     int64
	}
	specs := []spec{
		{"burst", true, 0.9, 3},
		{"uniform", false, 0.8, 5},
	}
	if !testing.Short() {
		specs = append(specs, spec{"local", false, 0.95, 7})
	}
	var corpus []*counters.Observation
	for _, s := range specs {
		sim := haswell.NewSimulator(haswell.DefaultConfig(pagetable.Page4K))
		var gen workloads.Generator
		var err error
		if s.burst {
			gen, err = workloads.NewRandomBurst(256<<20, 8, s.locality, s.seed)
		} else {
			gen, err = workloads.NewRandom(256<<20, s.locality, s.seed)
		}
		if err != nil {
			t.Fatal(err)
		}
		sim.Step(gen, 8000)
		o := haswell.WithAggregateWalkRef(sim.Observation(gen, 12, 6000))
		o.Label = s.label
		corpus = append(corpus, o)
	}
	return corpus
}

// TestHybridMatchesExactOnCatalogue is the end-to-end equivalence property
// over the paper's model catalogue, pinning BOTH solver equivalences at
// once: the hybrid (float filter + certificates) against the exact tier,
// and the exact tier's int64 kernel tableau against the pure big.Rat
// reference tableau. Zero divergence is required on every verdict; the
// kernel promotion (overflow fallback) rate is reported, never hidden.
// Every infeasible filter claim's phase-1 basis certificate is checked
// on its own as well: it may verify only where the exact tier refutes.
func TestHybridMatchesExactOnCatalogue(t *testing.T) {
	models := append(haswell.Table3Models(), haswell.Table7Models()...)
	if testing.Short() {
		models = models[:4]
	} else {
		models = append(models, haswell.Table5Models()...)
	}
	set := haswell.AnalysisSet()
	corpus := hybridCorpus(t)

	kernelWS := simplex.NewWorkspace()
	bigWS := simplex.NewWorkspace()
	bigWS.ForceBigRat = true
	hstats := &core.SolverStats{}
	hybrid := core.NewSolver(hstats)
	filter := floatlp.NewWorkspace()
	var cert simplex.Certifier

	var feasible, infeasible int
	var claims, basisCertified, unitRejected int
	var kernelFast, kernelPromoted int
	for _, nf := range models {
		m, err := haswell.BuildModel(nf.Name, nf.Features, set)
		if err != nil {
			t.Fatalf("%s: %v", nf.Name, err)
		}
		for _, o := range corpus {
			r, err := stats.NewRegion(o.Project(set), core.DefaultConfidence, stats.Correlated)
			if err != nil {
				t.Fatalf("%s/%s: %v", nf.Name, o.Label, err)
			}
			p := kernelWS.Prepare(0)
			if err := m.RegionLP(p, r); err != nil {
				t.Fatalf("%s/%s: %v", nf.Name, o.Label, err)
			}
			want := bigWS.SolveStatus(p) == simplex.Optimal
			kernelVerdict := kernelWS.SolveStatus(p) == simplex.Optimal
			if kernelVerdict != want {
				t.Fatalf("%s/%s: int64-kernel verdict %v, big.Rat verdict %v — divergence",
					nf.Name, o.Label, kernelVerdict, want)
			}
			if isKernel, promos := kernelWS.LastSolveKernel(); !isKernel {
				t.Fatalf("%s/%s: default workspace did not use the kernel", nf.Name, o.Label)
			} else if promos == 0 {
				kernelFast++
			} else {
				kernelPromoted++
			}
			got := hybrid.Feasible(p)
			if got != want {
				t.Fatalf("%s/%s: hybrid verdict %v, exact verdict %v — divergence",
					nf.Name, o.Label, got, want)
			}
			if out := filter.Feasibility(p); out.Status == floatlp.Infeasible {
				claims++
				if cert.CertifyFarkasBasis(p, out.Basis) {
					if want {
						t.Fatalf("%s/%s: basis certificate refutes a feasible LP", nf.Name, o.Label)
					}
					basisCertified++
				}
				unit := make([]float64, len(out.Basis.Scale))
				for i := range unit {
					unit[i] = 1
				}
				if !cert.CertifyFarkasBasis(p, simplex.FarkasBasis{Cols: out.Basis.Cols, Sign: out.Basis.Sign, Scale: unit}) {
					unitRejected++
				}
			}
			if want {
				feasible++
			} else {
				infeasible++
			}
		}
	}
	c := hstats.Snapshot()
	t.Logf("catalogue sweep: %d models × %d observations = %d verdicts (%d feasible, %d infeasible)",
		len(models), len(corpus), feasible+infeasible, feasible, infeasible)
	t.Logf("solver telemetry: %+v (filter hit rate %.0f%%, fallback rate %.0f%%)",
		c, 100*float64(c.FilterHits())/float64(c.Evaluations),
		100*float64(c.ExactFallbacks)/float64(c.Evaluations))
	t.Logf("kernel: %d fast solves, %d promoted solves (promotion rate %.0f%%)",
		kernelFast, kernelPromoted, 100*float64(kernelPromoted)/float64(kernelFast+kernelPromoted))
	t.Logf("basis certificates: %d of %d infeasible claims verified; unit artificial weights rejected on %d",
		basisCertified, claims, unitRejected)
	if feasible == 0 || infeasible == 0 {
		t.Fatalf("corpus did not split the catalogue (feasible=%d infeasible=%d): property coverage too thin",
			feasible, infeasible)
	}
	if c.FilterHits() == 0 {
		t.Fatal("float filter never certified a verdict across the whole catalogue")
	}
	if claims == 0 || 10*basisCertified < 9*claims {
		t.Fatalf("basis certificates verified %d of %d infeasible claims", basisCertified, claims)
	}
}

// TestWarmMatchesExactOnCatalogue sweeps the warm-start dual simplex over
// the same Table 3/5/7 catalogue: every (model, observation) pair becomes
// a three-step drift sequence (identical constraint rows, drifting
// bounds — the workload warm starts exist for), solved by a fresh
// WarmSolver alongside the exact workspace. The warm protocol seeds on
// the second sighting of a structure, so step 0 primes, step 1 cold-seeds
// and step 2 re-enters the cached basis with dual pivots. Zero divergence
// is required on every verdict the warm solver offers, and the sweep must
// actually exercise warm re-entries (not just declines).
func TestWarmMatchesExactOnCatalogue(t *testing.T) {
	models := append(haswell.Table3Models(), haswell.Table7Models()...)
	if testing.Short() {
		models = models[:4]
	} else {
		models = append(models, haswell.Table5Models()...)
	}
	set := haswell.AnalysisSet()
	corpus := hybridCorpus(t)

	ws := simplex.NewWorkspace()
	var verdicts, warmSolves, coldSeeds, declines int
	var pivots uint64
	for _, nf := range models {
		m, err := haswell.BuildModel(nf.Name, nf.Features, set)
		if err != nil {
			t.Fatalf("%s: %v", nf.Name, err)
		}
		for _, o := range corpus {
			proj := o.Project(set)
			warm := simplex.NewWarmSolver()
			p := simplex.NewProblem(0)
			for step, frac := range []float64{0, 0.001, 0.002} {
				r, err := stats.NewRegion(driftObservation(proj, frac), core.DefaultConfidence, stats.Correlated)
				if err != nil {
					t.Fatalf("%s/%s step %d: %v", nf.Name, o.Label, step, err)
				}
				p.Reset(0)
				if err := m.RegionLP(p, r); err != nil {
					t.Fatalf("%s/%s step %d: %v", nf.Name, o.Label, step, err)
				}
				want := ws.SolveStatus(p) == simplex.Optimal
				got, ok := warm.Feasible(p)
				if !ok {
					declines++
					continue
				}
				verdicts++
				if got != want {
					t.Fatalf("%s/%s step %d: warm verdict %v, exact verdict %v — divergence",
						nf.Name, o.Label, step, got, want)
				}
				if w, piv := warm.LastSolve(); w {
					warmSolves++
					pivots += piv
				} else {
					coldSeeds++
				}
			}
		}
	}
	t.Logf("catalogue warm sweep: %d verdicts compared (%d warm re-entries, %d cold seeds, %d primer declines), 0 diverged; %d dual pivots total",
		verdicts, warmSolves, coldSeeds, declines, pivots)
	if warmSolves == 0 {
		t.Fatal("warm-start path never re-entered a basis across the catalogue sweep")
	}
}
