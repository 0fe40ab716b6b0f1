package haswell

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/pagetable"
	"repro/internal/stats"
	"repro/internal/workloads"
)

func totals(t *testing.T, sim *Simulator) counters.Vector {
	t.Helper()
	return sim.counts.Clone()
}

func TestGroundTruthBasicInvariants(t *testing.T) {
	sim := NewSimulator(DefaultConfig(pagetable.Page4K))
	gen, err := workloads.NewRandom(64<<20, 0.8, 3)
	if err != nil {
		t.Fatal(err)
	}
	sim.Step(gen, 200000)
	c := totals(t, sim)
	get := func(e counters.Event) float64 { return c.Get(e) }

	if get("load.ret") == 0 || get("store.ret") == 0 {
		t.Fatal("retirement counters should be active")
	}
	for _, ty := range counters.AccessTypes() {
		done := get(counters.E(ty, counters.WalkDone))
		sum := get(counters.E(ty, counters.WalkDone4K)) +
			get(counters.E(ty, counters.WalkDone2M)) +
			get(counters.E(ty, counters.WalkDone1G))
		if done != sum {
			t.Fatalf("%s: walk_done %g != size sum %g", ty, done, sum)
		}
		if done > get(counters.E(ty, counters.CausesWalk)) {
			t.Fatalf("%s: walk_done exceeds causes_walk", ty)
		}
		hit := get(counters.E(ty, counters.STLBHit))
		hitSum := get(counters.E(ty, counters.STLBHit4K)) + get(counters.E(ty, counters.STLBHit2M))
		if hit != hitSum {
			t.Fatalf("%s: stlb_hit %g != variant sum %g", ty, hit, hitSum)
		}
		if get(counters.E(ty, counters.RetSTLBMiss)) > get(counters.E(ty, counters.Ret)) {
			t.Fatalf("%s: ret_stlb_miss exceeds ret", ty)
		}
	}
	refs := get(counters.WalkRefL1) + get(counters.WalkRefL2) +
		get(counters.WalkRefL3) + get(counters.WalkRefMem)
	if refs == 0 {
		t.Fatal("walker should reference memory")
	}
}

func TestBurstsProduceThePaperAnomaly(t *testing.T) {
	// Merging + early PSC: merged requests miss the PDE cache without
	// causing walks, so pde$_miss > causes_walk (paper §1).
	sim := NewSimulator(DefaultConfig(pagetable.Page4K))
	gen, err := workloads.NewRandomBurst(512<<20, 16, 1.0, 5)
	if err != nil {
		t.Fatal(err)
	}
	sim.Step(gen, 150000)
	c := totals(t, sim)
	if c.Get("load.pde$_miss") <= c.Get("load.causes_walk") {
		t.Fatalf("anomaly missing: pde$_miss=%g causes_walk=%g",
			c.Get("load.pde$_miss"), c.Get("load.causes_walk"))
	}
	// Merging also makes retired STLB misses exceed completed walks
	// (violating Table 1 constraint (1) for non-merging models).
	if c.Get("load.ret_stlb_miss") <= c.Get("load.walk_done") {
		t.Fatalf("merging signature missing: rsm=%g done=%g",
			c.Get("load.ret_stlb_miss"), c.Get("load.walk_done"))
	}
}

func TestAnomalyRequiresEarlyPSCAndMerging(t *testing.T) {
	cfg := DefaultConfig(pagetable.Page4K)
	cfg.Features.EarlyPSC = false
	sim := NewSimulator(cfg)
	gen, _ := workloads.NewRandomBurst(512<<20, 16, 1.0, 5)
	sim.Step(gen, 150000)
	c := totals(t, sim)
	if c.Get("load.pde$_miss") > c.Get("load.causes_walk") {
		t.Fatal("without early PSC the anomaly must vanish")
	}
}

func TestReplaysCreateRefDeficit(t *testing.T) {
	// PDE-cache-friendly random: most walks read 1 entry; replays read 0.
	// Total refs must fall below completed walks — the walk-bypass
	// signature that refutes models m0–m3.
	sim := NewSimulator(DefaultConfig(pagetable.Page4K))
	gen, err := workloads.NewRandom(24<<20, 1.0, 7)
	if err != nil {
		t.Fatal(err)
	}
	sim.Step(gen, 100000) // warm up PDE cache and STLB pressure
	before := totals(t, sim)
	sim.Step(gen, 300000)
	after := totals(t, sim)
	delta := func(e counters.Event) float64 { return after.Get(e) - before.Get(e) }
	refs := delta(counters.WalkRefL1) + delta(counters.WalkRefL2) +
		delta(counters.WalkRefL3) + delta(counters.WalkRefMem)
	done := delta("load.walk_done") + delta("store.walk_done")
	if refs >= done {
		t.Fatalf("replay deficit missing: refs=%g done=%g", refs, done)
	}
}

func TestPrefetcherActivityWithWarmTLBs(t *testing.T) {
	// Small looping stencil: after warm-up there is no demand miss stream,
	// yet the LSQ prefetcher keeps injecting walker loads.
	sim := NewSimulator(DefaultConfig(pagetable.Page4K))
	gen, err := workloads.NewStencil(160<<10, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	sim.Step(gen, 50000) // warm up
	before := totals(t, sim)
	sim.Step(gen, 100000)
	after := totals(t, sim)
	delta := func(e counters.Event) float64 { return after.Get(e) - before.Get(e) }
	walks := delta("load.causes_walk") + delta("store.causes_walk")
	refs := delta(counters.WalkRefL1) + delta(counters.WalkRefL2) +
		delta(counters.WalkRefL3) + delta(counters.WalkRefMem)
	if walks > refs/10 {
		t.Fatalf("steady state should be walk-free but ref-ful: walks=%g refs=%g", walks, refs)
	}
	if refs == 0 {
		t.Fatal("prefetcher should inject walker loads")
	}
	// Without the prefetcher, steady state is silent.
	cfg := DefaultConfig(pagetable.Page4K)
	cfg.Features.TLBPrefetch = false
	quiet := NewSimulator(cfg)
	gen2, _ := workloads.NewStencil(160<<10, 1.0)
	quiet.Step(gen2, 50000)
	b2 := totals(t, quiet)
	quiet.Step(gen2, 100000)
	a2 := totals(t, quiet)
	refs2 := a2.Get(counters.WalkRefL1) + a2.Get(counters.WalkRefL2) +
		a2.Get(counters.WalkRefL3) + a2.Get(counters.WalkRefMem) -
		b2.Get(counters.WalkRefL1) - b2.Get(counters.WalkRefL2) -
		b2.Get(counters.WalkRefL3) - b2.Get(counters.WalkRefMem)
	if refs2 != 0 {
		t.Fatalf("prefetcher-less hardware should be silent, refs=%g", refs2)
	}
}

func TestStoreOnlyStreamsDoNotPrefetch(t *testing.T) {
	// Paper C.2: "no instances of our microbenchmark with a store-only
	// access pattern trigger TLB prefetching".
	sim := NewSimulator(DefaultConfig(pagetable.Page4K))
	gen, err := workloads.NewStencil(160<<10, 0.0)
	if err != nil {
		t.Fatal(err)
	}
	sim.Step(gen, 50000)
	before := totals(t, sim)
	sim.Step(gen, 100000)
	after := totals(t, sim)
	refs := after.Get(counters.WalkRefL1) + after.Get(counters.WalkRefL2) +
		after.Get(counters.WalkRefL3) + after.Get(counters.WalkRefMem) -
		before.Get(counters.WalkRefL1) - before.Get(counters.WalkRefL2) -
		before.Get(counters.WalkRefL3) - before.Get(counters.WalkRefMem)
	if refs != 0 {
		t.Fatalf("store-only stream must not trigger prefetches, refs=%g", refs)
	}
}

func TestHugePageCounters(t *testing.T) {
	sim := NewSimulator(DefaultConfig(pagetable.Page1G))
	gen, err := workloads.NewRandom(4<<40, 1.0, 9)
	if err != nil {
		t.Fatal(err)
	}
	sim.Step(gen, 100000)
	c := totals(t, sim)
	if c.Get("load.walk_done_1g") == 0 {
		t.Fatal("1G walks should complete")
	}
	if c.Get("load.walk_done_4k") != 0 || c.Get("load.walk_done_2m") != 0 {
		t.Fatal("only 1G completions expected")
	}
	// 1G probes always miss the PDE cache (leaf entries are not cached), so
	// every translation request counts a miss.
	if c.Get("load.pde$_miss") < c.Get("load.causes_walk") {
		t.Fatal("1G translation requests should always miss the PDE cache")
	}
}

func TestObservationDeltas(t *testing.T) {
	sim := NewSimulator(DefaultConfig(pagetable.Page4K))
	gen, _ := workloads.NewRandom(64<<20, 1.0, 11)
	o := sim.Observation(gen, 5, 10000)
	if o.Len() != 5 {
		t.Fatalf("samples: %d", o.Len())
	}
	tot := make([]float64, o.Set.Len())
	for _, row := range o.Samples {
		for i, x := range row {
			tot[i] += x
		}
	}
	final := sim.counts.Clone()
	for i, e := range o.Set.Events() {
		if tot[i] != final.Get(e) {
			t.Fatalf("%s: samples sum %g != final count %g", e, tot[i], final.Get(e))
		}
	}
	if sim.uops != 50000 {
		t.Fatalf("uops: %d", sim.uops)
	}
}

func TestWithAggregateWalkRef(t *testing.T) {
	set := GroundTruthSet()
	o := counters.NewObservation("x", set)
	row := make([]float64, set.Len())
	for i, e := range set.Events() {
		switch e {
		case counters.WalkRefL1:
			row[i] = 1
		case counters.WalkRefL2:
			row[i] = 2
		case counters.WalkRefL3:
			row[i] = 3
		case counters.WalkRefMem:
			row[i] = 4
		}
	}
	o.Append(row)
	ext := WithAggregateWalkRef(o)
	if got := ext.Samples[0][ext.Set.Len()-1]; got != 10 {
		t.Fatalf("aggregate: %g, want 10", got)
	}
	if !ext.Set.Contains(AggregateWalkRef) {
		t.Fatal("aggregate event missing")
	}
}

func TestCatalogSizes(t *testing.T) {
	if got := len(Table3Models()); got != 12 {
		t.Fatalf("Table 3 models: %d", got)
	}
	if got := len(Table5Models()); got != 18 {
		t.Fatalf("Table 5 models: %d", got)
	}
	if got := len(Table7Models()); got != 4 {
		t.Fatalf("Table 7 models: %d", got)
	}
	seen := map[string]bool{}
	for _, nf := range append(append(Table3Models(), Table5Models()...), Table7Models()...) {
		if seen[nf.Name] {
			t.Fatalf("duplicate model name %s", nf.Name)
		}
		seen[nf.Name] = true
	}
}

func TestAllCatalogModelsCompile(t *testing.T) {
	set := AnalysisSet()
	for _, nf := range append(append(Table3Models(), Table5Models()...), Table7Models()...) {
		m, err := BuildModel(nf.Name, nf.Features, set)
		if err != nil {
			t.Fatalf("%s: %v", nf.Name, err)
		}
		if m.NumPaths() < 10 {
			t.Fatalf("%s: suspiciously few μpaths (%d)", nf.Name, m.NumPaths())
		}
	}
}

func TestPerLevelRefModeCompiles(t *testing.T) {
	f := DiscoveredModelFeatures()
	f.TLBPrefetch = false // keep path count small for per-level refs
	f.RefMode = RefsPerLevel
	d, err := BuildDiagram("perlevel", f)
	if err != nil {
		t.Fatal(err)
	}
	set := d.Counters()
	for _, e := range []counters.Event{counters.WalkRefL1, counters.WalkRefMem} {
		if !set.Contains(e) {
			t.Fatalf("per-level mode should emit %s", e)
		}
	}
}

func TestGroundTruthFeasibleUnderM8(t *testing.T) {
	set := AnalysisSet()
	var m8 NamedFeatures
	for _, nf := range Table3Models() {
		if nf.Name == "m8" {
			m8 = nf
		}
	}
	m, err := BuildModel(m8.Name, m8.Features, set)
	if err != nil {
		t.Fatal(err)
	}
	sim := NewSimulator(DefaultConfig(pagetable.Page4K))
	gen, _ := workloads.NewRandomBurst(512<<20, 16, 0.8, 13)
	sim.Step(gen, 10000)
	obs := WithAggregateWalkRef(sim.Observation(gen, 10, 10000))
	v, err := m.TestObservation(obs, core.DefaultConfidence, stats.Correlated, false)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Feasible {
		t.Fatal("the discovered model must accept ground-truth data")
	}
	// And the featureless baseline must reject it.
	m0, err := BuildModel("m0", Table3Models()[0].Features, set)
	if err != nil {
		t.Fatal(err)
	}
	v0, err := m0.TestObservation(obs, core.DefaultConfidence, stats.Correlated, false)
	if err != nil {
		t.Fatal(err)
	}
	if v0.Feasible {
		t.Fatal("the baseline model must be refuted by ground-truth data")
	}
}

func TestQuickCorpus(t *testing.T) {
	corpus, err := BuildCorpus(QuickCorpusSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus) < 5 {
		t.Fatalf("quick corpus too small: %d", len(corpus))
	}
	for _, o := range corpus {
		if o.Len() == 0 {
			t.Fatalf("observation %s empty", o.Label)
		}
		if !o.Set.Contains(AggregateWalkRef) {
			t.Fatalf("observation %s missing aggregate", o.Label)
		}
	}
}

// TestSimulateEntriesFirstError checks that the worker pool reports the
// first failing entry in entry order, whichever worker reaches it first,
// and returns no corpus.
func TestSimulateEntriesFirstError(t *testing.T) {
	ok := func() (workloads.Generator, error) { return workloads.NewStencil(64<<10, 0.9) }
	fail := func(msg string) func() (workloads.Generator, error) {
		return func() (workloads.Generator, error) { return nil, errors.New(msg) }
	}
	cfg := DefaultConfig(pagetable.Page4K)
	entries := []Entry{
		{Label: "a", Config: cfg, Gen: ok},
		{Label: "b", Config: cfg, Gen: fail("first")},
		{Label: "c", Config: cfg, Gen: ok},
		{Label: "d", Config: cfg, Gen: fail("second")},
	}
	obs, err := SimulateEntries(context.Background(), entries, 2, 100)
	if err == nil || !strings.Contains(err.Error(), "corpus b: first") {
		t.Fatalf("err = %v, want entry b's error", err)
	}
	if obs != nil {
		t.Fatalf("failed run returned %d observations", len(obs))
	}
	obs, err = SimulateEntries(context.Background(), []Entry{entries[0], entries[2]}, 2, 100)
	if err != nil || len(obs) != 2 {
		t.Fatalf("good entries: %v, %d observations", err, len(obs))
	}
	if !strings.HasPrefix(obs[0].Label, "a/") || !strings.HasPrefix(obs[1].Label, "c/") {
		t.Fatalf("observations out of entry order: %q, %q", obs[0].Label, obs[1].Label)
	}
}

// cancellingGen counts the accesses drawn across every entry sharing
// drawn and ends the build's context at the limit-th one.
type cancellingGen struct {
	workloads.Generator
	drawn  *atomic.Int64
	limit  int64
	cancel func()
}

func (g cancellingGen) Next() workloads.Access {
	if g.drawn.Add(1) == g.limit {
		g.cancel()
	}
	return g.Generator.Next()
}

// TestSimulateEntriesCancelMidBuild checks that a context ended while
// entries are simulating stops each of them within one interval, and the
// build returns the context's error with no corpus.
func TestSimulateEntriesCancelMidBuild(t *testing.T) {
	const entries, samples, uops, limit = 4, 50, 2000, 10 * 2000
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var drawn atomic.Int64
	gen := func() (workloads.Generator, error) {
		g, err := workloads.NewRandom(24<<20, 1.0, 7)
		return cancellingGen{g, &drawn, limit, cancel}, err
	}
	table := make([]Entry, entries)
	for i := range table {
		table[i] = Entry{Label: fmt.Sprint(i), Config: DefaultConfig(pagetable.Page4K), Gen: gen}
	}
	obs, err := SimulateEntries(ctx, table, samples, uops)
	if !errors.Is(err, context.Canceled) || obs != nil {
		t.Fatalf("got %d observations, err %v; want none and %v", len(obs), err, context.Canceled)
	}
	// Past the limit, each entry finishes at most the interval (or the
	// warm-up) it is in.
	if got, most := drawn.Load(), int64(limit+entries*uops); got > most {
		t.Fatalf("%d accesses drawn, want at most %d of the %d a full build draws",
			got, most, entries*(samples+1)*uops)
	}
}

func TestSimulatorDeterminism(t *testing.T) {
	run := func() counters.Vector {
		sim := NewSimulator(DefaultConfig(pagetable.Page4K))
		gen, err := workloads.NewRandomBurst(128<<20, 8, 0.9, 21)
		if err != nil {
			t.Fatal(err)
		}
		sim.Step(gen, 50000)
		return sim.counts.Clone()
	}
	a, b := run(), run()
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			t.Fatalf("simulator not deterministic at %s: %g vs %g",
				a.Set.At(i), a.Values[i], b.Values[i])
		}
	}
}

func TestGenerateDSLDeterministic(t *testing.T) {
	f := DiscoveredModelFeatures()
	if GenerateDSL(f) != GenerateDSL(f) {
		t.Fatal("model generation must be deterministic")
	}
}

func TestFeatureStringDistinct(t *testing.T) {
	// Within each table, every model differs in at least one feature, so
	// the rendered strings must be distinct. (Across tables t0 ≡ m4 by
	// construction.)
	for _, tbl := range [][]NamedFeatures{Table3Models(), Table5Models(), Table7Models()} {
		seen := map[string]string{}
		for _, nf := range tbl {
			s := FeatureString(nf.Features)
			if prev, dup := seen[s]; dup {
				t.Fatalf("feature string %q shared by %s and %s", s, prev, nf.Name)
			}
			seen[s] = nf.Name
		}
	}
}
