package stats_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/haswell"
	"repro/internal/pagetable"
	"repro/internal/simplex"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// simulatedCorpus simulates six observations, bursty and uniform at three
// seeds each, so catalogue region LPs split into feasible and infeasible
// ones.
func simulatedCorpus(t *testing.T) []*counters.Observation {
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

// pmPairDraws returns k observations of m shaped like fresh /test
// requests: 12 samples in ± pairs around a non-negative integer
// combination of 8–14 of m's cone generators, the offsets moving each
// generator's weight by up to a quarter and each counter by up to 1/32.
// Three draws in four then have one random counter raised in every
// sample, by up to an eighth, a half or twice its centre value, which
// moves the region off the cone about as often as not.
func pmPairDraws(rng *rand.Rand, m *core.Model, k int) []*counters.Observation {
	gens := m.Cone().Counts()
	n := m.Set.Len()
	var out []*counters.Observation
	for d := 0; d < k; d++ {
		paths := make([]int, 8+rng.Intn(7))
		weights := make([]int64, len(paths))
		center := make([]int64, n)
		for i := range paths {
			paths[i], weights[i] = rng.Intn(len(gens)), 64+rng.Int63n(448)
			for j, s := range gens[paths[i]] {
				center[j] += weights[i] * s
			}
		}
		bump, by := rng.Intn(n), int64(0)
		if d%4 != 0 {
			by = rng.Int63n(center[bump]*[]int64{0, 1, 4, 16}[d%4]/8 + 2)
		}
		o := counters.NewObservation(fmt.Sprintf("%s-pm%d", m.Name, d), m.Set)
		for pair := 0; pair < 6; pair++ {
			delta := make([]int64, n)
			for i, p := range paths {
				q := weights[i] / 4
				dw := rng.Int63n(2*q+1) - q
				for j, s := range gens[p] {
					delta[j] += dw * s
				}
			}
			for j := range delta {
				if q := center[j] / 32; q > 0 {
					delta[j] += rng.Int63n(2*q+1) - q
				}
			}
			plus, minus := make([]float64, n), make([]float64, n)
			for j := range delta {
				plus[j], minus[j] = float64(center[j]+delta[j]), float64(center[j]-delta[j])
			}
			plus[bump] += float64(by)
			minus[bump] += float64(by)
			o.Append(plus)
			o.Append(minus)
		}
		out = append(out, o)
	}
	return out
}

// basisBand returns two regions bracketing every principal-axis box of
// o's covariance, whatever basis the box takes for the eigenspace of the
// (numerically) zero eigenvalues. Those are the slabs only the safety
// margin gives width: half-width at most twice the margin regionFromEigen
// adds, on an axis with more than one non-zero component (a constant
// counter's unit axis is the same in every basis). With k such slabs and
// half-widths between lo and hi in both regions, either region's slabs
// over that eigenspace contain the ball of radius lo and lie inside the
// ball of radius hi·√k, so narrow (those slabs of got at lo/√k) lies
// inside both and wide (at hi·√k) contains both, up to axis quantisation.
func basisBand(got, ref *stats.Region) (narrow, wide *stats.Region) {
	null := func(r *stats.Region) []int {
		hmax := r.MaxHalfWidth()
		var idx []int
		for i, axis := range r.Axes {
			dot, nz := 0.0, 0
			for j, x := range axis {
				dot += x * r.Mean[j]
				if x != 0 {
					nz++
				}
			}
			if nz > 1 && r.HalfWidths[i] <= 2*(1e-4*hmax+1e-6*(1+math.Abs(dot))) {
				idx = append(idx, i)
			}
		}
		return idx
	}
	lo, hi := math.Inf(1), 0.0
	for _, r := range []*stats.Region{got, ref} {
		for _, i := range null(r) {
			lo, hi = math.Min(lo, r.HalfWidths[i]), math.Max(hi, r.HalfWidths[i])
		}
	}
	idx := null(got)
	k := math.Sqrt(float64(len(idx)))
	n, w := *got, *got
	n.HalfWidths = append([]float64(nil), got.HalfWidths...)
	w.HalfWidths = append([]float64(nil), got.HalfWidths...)
	for _, i := range idx {
		n.HalfWidths[i], w.HalfWidths[i] = lo/k, hi*k
	}
	return &n, &w
}

// TestRegionVerdictsMatchJacobiReference is the verdict differential
// behind the region eigensolver: a region LP built from the deflated QL
// decomposition must be decided like the one built from the cyclic Jacobi
// reference (stats.ReferenceRegion, region construction as it was before
// the solver changed), on every catalogue model over each cumulative
// counter group and the analysis set against six simulated observations,
// and on every catalogue model over its own counters (as counterpointd
// compiles it) against ± pair draws shaped like fresh /test requests.
//
// The two regions differ by construction in one respect: the basis each
// solver picks for the eigenspace of the zero eigenvalues, which is not
// unique, and over which the box is only the safety margin wide. A
// verdict that turns on that basis is one whose cone passes within about
// a margin of the mean; basisBand brackets both boxes, and a divergence
// is an error unless the bracket's two verdicts differ too. Such draws
// are counted and must stay rare. -short checks the first six catalogue
// models only.
func TestRegionVerdictsMatchJacobiReference(t *testing.T) {
	catalog := haswell.Catalog()
	if testing.Short() {
		catalog = catalog[:6]
	}
	steps := counters.NewHaswellRegistry(false).CumulativeGroups(false)
	steps = append(steps, counters.GroupStep{Group: "analysis", Set: haswell.AnalysisSet()})
	type pair struct{ got, ref *stats.Region }
	build := func(o *counters.Observation) pair {
		t.Helper()
		got, err := stats.NewRegion(o, core.DefaultConfidence, stats.Correlated)
		if err != nil {
			t.Fatalf("%s: %v", o.Label, err)
		}
		ref, err := stats.ReferenceRegion(o, core.DefaultConfidence, stats.Correlated)
		if err != nil {
			t.Fatalf("%s: reference: %v", o.Label, err)
		}
		return pair{got, ref}
	}
	p := simplex.NewProblem(0)
	sv := core.NewSolver(nil)
	feasibleLP := func(label string, m *core.Model, r *stats.Region) bool {
		t.Helper()
		if err := m.RegionLP(p, r); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		v, err := m.TestRegionLP(sv, p, r, false)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return v.Feasible
	}
	var lps, feasible, inBand int
	decide := func(label string, m *core.Model, rp pair) {
		t.Helper()
		got, ref := feasibleLP(label, m, rp.got), feasibleLP(label, m, rp.ref)
		if got != ref {
			narrow, wide := basisBand(rp.got, rp.ref)
			if feasibleLP(label, m, narrow) == feasibleLP(label, m, wide) {
				t.Errorf("%s: feasible=%v on the QL region, %v on the Jacobi reference's", label, got, ref)
			} else {
				inBand++
				t.Logf("%s: feasible=%v on the QL region, %v on the Jacobi reference's, within the null-space basis band", label, got, ref)
			}
		}
		lps++
		if got {
			feasible++
		}
	}

	corpus := simulatedCorpus(t)
	for _, step := range steps {
		regions := make([]pair, len(corpus))
		for k, o := range corpus {
			regions[k] = build(o.Project(step.Set))
		}
		for _, cm := range catalog {
			m, err := haswell.BuildModel(cm.Name, cm.Features, step.Set)
			if err != nil {
				t.Fatalf("%s/%s: %v", cm.Name, step.Group, err)
			}
			for k, rp := range regions {
				decide(fmt.Sprintf("%s/%s/%d", cm.Name, step.Group, k), m, rp)
			}
		}
	}
	simulated, simFeasible := lps, feasible

	rng := rand.New(rand.NewSource(28))
	for _, cm := range catalog {
		m, err := core.ModelFromDSL(cm.Name, cm.Source, nil)
		if err != nil {
			t.Fatalf("%s: %v", cm.Name, err)
		}
		for _, o := range pmPairDraws(rng, m, 16) {
			decide(o.Label, m, build(o))
		}
	}
	t.Logf("%d simulated region LPs (%d feasible) and %d ± pair region LPs (%d feasible); %d divergences, all within the basis band",
		simulated, simFeasible, lps-simulated, feasible-simFeasible, inBand)
	if inBand*200 > lps {
		t.Errorf("%d of %d verdicts turn on the null-space basis, want under 0.5%%", inBand, lps)
	}
	for _, c := range []struct {
		what      string
		n, feasOK int
	}{{"simulated", simulated, simFeasible}, {"± pair", lps - simulated, feasible - simFeasible}} {
		if c.feasOK == 0 || c.feasOK == c.n {
			t.Fatalf("%s corpus is one-sided: %d of %d LPs feasible", c.what, c.feasOK, c.n)
		}
	}
}
