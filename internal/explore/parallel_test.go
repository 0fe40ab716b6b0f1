package explore

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/engine"
	"repro/internal/haswell"
)

// wideBuilder spans a larger synthetic feature space than the Figure 6
// pair: "abort" is the fix the corpus demands, "redherring0..n" are inert
// switch features whose only effect is to widen every frontier.
func wideBuilder(extra []string) Builder {
	return func(fs FeatureSet) (*core.Model, error) {
		var b strings.Builder
		b.WriteString("do LookupPde$;\n")
		b.WriteString("switch Pde$Status {\n Hit => pass;\n Miss => {\n incr load.pde$_miss;\n")
		if fs["abort"] {
			b.WriteString(" switch Abort { Yes => done; No => pass; };\n")
		}
		b.WriteString(" };\n};\n")
		b.WriteString("incr load.causes_walk;\n")
		for _, f := range extra {
			if fs[f] {
				b.WriteString("switch S" + f + " { Yes => incr load.causes_walk; No => pass; };\n")
			}
		}
		b.WriteString("done;\n")
		set := counters.NewSet("load.causes_walk", "load.pde$_miss")
		return core.ModelFromDSL("feat:"+fs.Key(), b.String(), set)
	}
}

// runSearch drives a full discovery + elimination + classification pass
// and returns everything the acceptance criteria pin: the final model, the
// graph report (node-for-node evaluation order), the minimal models and
// the classification.
func runSearch(t *testing.T, workers int, universe []string, b Builder, obs []*counters.Observation, eng *engine.Engine) (final string, graph string, minimal []string, c Classification) {
	t.Helper()
	s := NewSearch(b, obs)
	s.Workers = workers
	s.Engine = eng
	fin, err := s.Discover(NewFeatureSet(), universe)
	if err != nil {
		t.Fatal(err)
	}
	var min []string
	if fin.Feasible() {
		nodes, err := s.Eliminate(fin, universe)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range nodes {
			min = append(min, n.Features.Key())
		}
	}
	return fin.Features.Key(), s.GraphReport(), min, s.Classify(universe)
}

// TestParallelMatchesSequential pins the tentpole determinism contract on
// a synthetic space: the frontier fan-out at 8 workers must reproduce the
// same fan-out bounded to one node in flight (Workers: 1) bit for bit —
// same final model, same node-for-node graph report, same minimal models,
// same classification.
func TestParallelMatchesSequential(t *testing.T) {
	universe := []string{"abort", "redherring0", "redherring1", "redherring2"}
	b := wideBuilder(universe[1:])
	obs := corpus()
	eng := engine.New(engine.WithWorkers(4))
	defer eng.Close()

	seqFinal, seqGraph, seqMin, seqC := runSearch(t, 1, universe, b, obs, eng)
	parFinal, parGraph, parMin, parC := runSearch(t, 8, universe, b, obs, eng)

	if parFinal != seqFinal {
		t.Fatalf("final model diverged: parallel %q, sequential %q", parFinal, seqFinal)
	}
	if parGraph != seqGraph {
		t.Fatalf("search graph diverged:\n--- sequential ---\n%s--- parallel ---\n%s", seqGraph, parGraph)
	}
	if strings.Join(parMin, ",") != strings.Join(seqMin, ",") {
		t.Fatalf("minimal models diverged: parallel %v, sequential %v", parMin, seqMin)
	}
	if strings.Join(parC.Required, ",") != strings.Join(seqC.Required, ",") ||
		strings.Join(parC.Optional, ",") != strings.Join(seqC.Optional, ",") {
		t.Fatalf("classification diverged: parallel %v/%v, sequential %v/%v",
			parC.Required, parC.Optional, seqC.Required, seqC.Optional)
	}
	if seqFinal != "abort" {
		t.Fatalf("search should converge on {abort}, got %q", seqFinal)
	}
}

// TestParallelMatchesSequentialCatalogue runs the same determinism check
// on the paper's Figure 7/8/10 catalogue search: the Table 3 feature space
// (haswell.SearchUniverse) over a simulated Haswell measurement corpus.
func TestParallelMatchesSequentialCatalogue(t *testing.T) {
	if testing.Short() {
		t.Skip("catalogue search simulates a measurement corpus; skipped in -short")
	}
	obs, err := haswell.BuildCorpus(haswell.QuickCorpusSpec())
	if err != nil {
		t.Fatal(err)
	}
	universe := haswell.SearchUniverse()
	set := haswell.AnalysisSet()
	builder := func(fs FeatureSet) (*core.Model, error) {
		f := haswell.SearchFeatures(func(name string) bool { return fs[name] })
		return haswell.BuildModel("search:"+fs.Key(), f, set)
	}
	// One engine for both runs: the second run hits warm region caches,
	// which must not change any verdict.
	eng := engine.New()
	defer eng.Close()

	seqFinal, seqGraph, seqMin, seqC := runSearch(t, 1, universe, builder, obs, eng)
	parFinal, parGraph, parMin, parC := runSearch(t, 0, universe, builder, obs, eng)

	if parFinal != seqFinal || parGraph != seqGraph || strings.Join(parMin, ",") != strings.Join(seqMin, ",") {
		t.Fatalf("catalogue search diverged:\nfinal %q vs %q\n--- sequential ---\n%s--- parallel ---\n%s",
			parFinal, seqFinal, seqGraph, parGraph)
	}
	if strings.Join(parC.Required, ",") != strings.Join(seqC.Required, ",") ||
		strings.Join(parC.Optional, ",") != strings.Join(seqC.Optional, ",") {
		t.Fatalf("catalogue classification diverged: parallel %v/%v, sequential %v/%v",
			parC.Required, parC.Optional, seqC.Required, seqC.Optional)
	}
	if !strings.Contains(seqFinal, "bypass") {
		t.Fatalf("catalogue discovery should adopt the walk-bypass feature, got %q", seqFinal)
	}
}

// TestSearchEvents checks the structured progress stream: every committed
// node is announced in commit order, adopted features and minimal models
// are called out, and infeasible eliminations are reported as pruned.
func TestSearchEvents(t *testing.T) {
	s := NewSearch(builder(t), corpus())
	s.Workers = 4
	var events []Event
	s.Events = func(ev Event) { events = append(events, ev) }

	final, err := s.Discover(NewFeatureSet(), []string{"abort", "doublewalk"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Eliminate(final, []string{"abort", "doublewalk"}); err != nil {
		t.Fatal(err)
	}

	var evaluated []string
	kinds := map[EventKind]int{}
	for _, ev := range events {
		kinds[ev.Kind]++
		if ev.Kind == EventNodeEvaluated {
			evaluated = append(evaluated, ev.Node.Features.Key())
		}
		if ev.Kind == EventFeatureAdopted && ev.Feature != "abort" {
			t.Fatalf("adopted feature %q, want abort", ev.Feature)
		}
	}
	nodes := s.Nodes()
	if len(evaluated) != len(nodes) {
		t.Fatalf("%d node events for %d nodes", len(evaluated), len(nodes))
	}
	for i, n := range nodes {
		if evaluated[i] != n.Features.Key() {
			t.Fatalf("event %d is %q, graph node %d is %q", i, evaluated[i], i, n.Features.Key())
		}
	}
	if kinds[EventFeatureAdopted] == 0 || kinds[EventMinimalModel] == 0 || kinds[EventSubtreePruned] == 0 {
		t.Fatalf("missing event kinds: %v", kinds)
	}
}

// TestRestoreSkipsEvaluation pins the checkpoint contract: a search
// restored from another's nodes must not rebuild them, and must finish
// with the identical graph.
func TestRestoreSkipsEvaluation(t *testing.T) {
	full := NewSearch(builder(t), corpus())
	if _, err := full.Discover(NewFeatureSet(), []string{"abort", "doublewalk"}); err != nil {
		t.Fatal(err)
	}
	checkpoint := full.Nodes()

	var builds atomic.Int64
	counting := func(fs FeatureSet) (*core.Model, error) {
		builds.Add(1)
		return builder(t)(fs)
	}
	resumed := NewSearch(counting, corpus())
	resumed.Restore(checkpoint)
	if _, err := resumed.Discover(NewFeatureSet(), []string{"abort", "doublewalk"}); err != nil {
		t.Fatal(err)
	}
	if n := builds.Load(); n != 0 {
		t.Fatalf("restored search rebuilt %d models; checkpoint covers the whole discovery phase", n)
	}
	if resumed.GraphReport() != full.GraphReport() {
		t.Fatalf("resumed graph diverged:\n--- original ---\n%s--- resumed ---\n%s",
			full.GraphReport(), resumed.GraphReport())
	}
}

// TestPartialRestoreReproducesSearch restores only a prefix of the graph —
// the checkpoint shape of a job cancelled mid-frontier — and checks the
// continuation reproduces the uninterrupted search exactly.
func TestPartialRestoreReproducesSearch(t *testing.T) {
	universe := []string{"abort", "redherring0", "redherring1"}
	b := wideBuilder(universe[1:])
	full := NewSearch(b, corpus())
	if _, err := full.Discover(NewFeatureSet(), universe); err != nil {
		t.Fatal(err)
	}
	nodes := full.Nodes()
	if len(nodes) < 3 {
		t.Fatalf("test needs a multi-node graph, got %d", len(nodes))
	}
	for cut := 1; cut < len(nodes); cut++ {
		resumed := NewSearch(b, corpus())
		resumed.Restore(nodes[:cut])
		if _, err := resumed.Discover(NewFeatureSet(), universe); err != nil {
			t.Fatal(err)
		}
		if resumed.GraphReport() != full.GraphReport() {
			t.Fatalf("cut at %d diverged:\n--- original ---\n%s--- resumed ---\n%s",
				cut, full.GraphReport(), resumed.GraphReport())
		}
	}
}

// TestFrontierEvaluatesConcurrently guards the parallel path against
// accidental serialization, which a wall-clock benchmark on a single-core
// machine cannot catch: a rendezvous builder requires two frontier
// evaluations to be in flight at once, so a serialized frontier fails
// (with a clear error) instead of deadlocking.
func TestFrontierEvaluatesConcurrently(t *testing.T) {
	universe := []string{"abort", "redherring0", "redherring1"}
	inner := wideBuilder(universe[1:])
	proceed := make(chan struct{})
	var arrivals atomic.Int32
	b := func(fs FeatureSet) (*core.Model, error) {
		if len(fs) > 0 { // frontier builds only; the initial node is sequential
			if arrivals.Add(1) == 2 {
				close(proceed)
			}
			select {
			case <-proceed:
			case <-time.After(10 * time.Second):
				return nil, fmt.Errorf("second frontier evaluation never started: frontier is serialized")
			}
		}
		return inner(fs)
	}
	s := NewSearch(b, corpus())
	s.Workers = 4
	final, err := s.Discover(NewFeatureSet(), universe)
	if err != nil {
		t.Fatal(err)
	}
	if !final.Feasible() {
		t.Fatalf("search did not converge: %s", final.Features)
	}
}

// TestSearchCancellation cancels mid-search and requires a prompt
// context error from both phases.
func TestSearchCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := NewSearch(builder(t), corpus())
	s.Ctx = ctx
	s.Workers = 4
	if _, err := s.Discover(NewFeatureSet(), []string{"abort", "doublewalk"}); err == nil {
		t.Fatal("cancelled discovery should fail")
	}
}
