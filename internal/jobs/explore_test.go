package jobs

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/explore"
)

// The test feature space is the Figure 6 example widened with inert
// red-herring features, so frontiers are wide enough for cancellation to
// land mid-frontier.
func testBuilder(extra int) explore.Builder {
	return func(fs explore.FeatureSet) (*core.Model, error) {
		var b strings.Builder
		b.WriteString("do LookupPde$;\n")
		b.WriteString("switch Pde$Status {\n Hit => pass;\n Miss => {\n incr load.pde$_miss;\n")
		if fs["abort"] {
			b.WriteString(" switch Abort { Yes => done; No => pass; };\n")
		}
		b.WriteString(" };\n};\n")
		b.WriteString("incr load.causes_walk;\n")
		for i := 0; i < extra; i++ {
			if fs[fmt.Sprintf("redherring%d", i)] {
				fmt.Fprintf(&b, "switch S%d { Yes => incr load.causes_walk; No => pass; };\n", i)
			}
		}
		b.WriteString("done;\n")
		set := counters.NewSet("load.causes_walk", "load.pde$_miss")
		return core.ModelFromDSL("feat:"+fs.Key(), b.String(), set)
	}
}

func testUniverse(extra int) []string {
	u := []string{"abort"}
	for i := 0; i < extra; i++ {
		u = append(u, fmt.Sprintf("redherring%d", i))
	}
	return u
}

func testCorpus() []*counters.Observation {
	set := counters.NewSet("load.causes_walk", "load.pde$_miss")
	mk := func(label string, cw, pm float64, seed int64) *counters.Observation {
		o := counters.NewObservation(label, set)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 200; i++ {
			o.Append([]float64{cw + rng.NormFloat64(), pm + rng.NormFloat64()})
		}
		return o
	}
	return []*counters.Observation{
		mk("benign", 500, 300, 1),
		mk("anomalous", 200, 500, 2),
	}
}

func testSpec(extra int) ExploreSpec {
	return ExploreSpec{
		Builder:    testBuilder(extra),
		Corpus:     testCorpus(),
		Candidates: testUniverse(extra),
	}
}

func TestExploreJobRunsToCompletion(t *testing.T) {
	m := NewManager(Options{})
	defer m.Close()
	j, err := m.SubmitExplore(testSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	res, ok := j.Result().(*ExploreResult)
	if !ok {
		t.Fatalf("result type %T", j.Result())
	}
	if !res.Converged || res.Final.Key != "abort" {
		t.Fatalf("result: %+v", res)
	}
	if len(res.Minimal) != 1 || res.Minimal[0].Key != "abort" {
		t.Fatalf("minimal: %+v", res.Minimal)
	}
	if len(res.Required) != 1 || res.Required[0] != "abort" {
		t.Fatalf("required: %v", res.Required)
	}
	if res.NodesEvaluated == 0 || res.Graph == "" {
		t.Fatalf("graph missing: %+v", res)
	}
	// The event log narrates the search: nodes, the adoption, the
	// terminal marker.
	kinds := map[string]int{}
	for ev := range j.Events(context.Background(), 0) {
		kinds[ev.Kind]++
	}
	if kinds[string(explore.EventNodeEvaluated)] != res.NodesEvaluated {
		t.Fatalf("node events %d, nodes %d", kinds[string(explore.EventNodeEvaluated)], res.NodesEvaluated)
	}
	if kinds[string(explore.EventFeatureAdopted)] == 0 || kinds["done"] != 1 {
		t.Fatalf("event kinds: %v", kinds)
	}
}

func TestExploreSpecValidation(t *testing.T) {
	m := NewManager(Options{})
	defer m.Close()
	bad := []ExploreSpec{
		{},
		{Builder: testBuilder(0)},
		{Builder: testBuilder(0), Corpus: testCorpus()},
		{Corpus: testCorpus(), Candidates: []string{"abort"}},
	}
	for i, spec := range bad {
		if _, err := m.SubmitExplore(spec); err == nil {
			t.Errorf("spec %d should be rejected", i)
		}
	}
}

// gatedSpec wraps testSpec so every non-initial model build blocks until
// release closes, signalling blocked on the first one. Cancelling between
// blocked and release is therefore guaranteed to land mid-frontier: the
// initial node is committed, the first discovery frontier is in flight,
// and nothing else has been evaluated.
func gatedSpec(extra int) (spec ExploreSpec, blocked chan struct{}, release chan struct{}) {
	spec = testSpec(extra)
	inner := spec.Builder
	blocked = make(chan struct{})
	release = make(chan struct{})
	var once sync.Once
	spec.Builder = func(fs explore.FeatureSet) (*core.Model, error) {
		if len(fs) > 0 {
			once.Do(func() { close(blocked) })
			<-release
		}
		return inner(fs)
	}
	return spec, blocked, release
}

// settleGoroutines waits for the goroutine count to drop back to baseline,
// in the style of the engine's leak regression suite.
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d at baseline, %d now\n%s",
				baseline, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// cancelMidFrontier drives a gated job to its deterministic mid-frontier
// point, cancels it there, and waits for the cancellation to finish.
func cancelMidFrontier(t *testing.T, m *Manager, j *Job, blocked <-chan struct{}, release chan struct{}) {
	t.Helper()
	select {
	case <-blocked:
	case <-time.After(10 * time.Second):
		t.Fatal("frontier never reached the gated builder")
	}
	if err := m.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := j.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("wait after cancel: %v", err)
	}
	if st := j.State(); st != StateCancelled {
		t.Fatalf("state: %s", st)
	}
}

// TestExploreJobCancelMidFrontierLeaksNothing is the jobs counterpart of
// the engine's leak regression suite: cancelling an exploration job while
// a frontier is being evaluated must release every goroutine — frontier
// workers, the private engine's pool, event forwarders, subscribers.
func TestExploreJobCancelMidFrontierLeaksNothing(t *testing.T) {
	baseline := runtime.NumGoroutine()
	m := NewManager(Options{})
	spec, blocked, release := gatedSpec(6)
	spec.Workers = 4
	j, err := m.SubmitExplore(spec)
	if err != nil {
		t.Fatal(err)
	}
	cancelMidFrontier(t, m, j, blocked, release)
	m.Close()
	settleGoroutines(t, baseline)
}

// TestExploreResumeEquivalence pins the checkpoint/resume contract: a job
// cancelled mid-search and resumed must finish with a result identical to
// an uninterrupted run — same final model, same graph, same
// classification.
func TestExploreResumeEquivalence(t *testing.T) {
	m := NewManager(Options{})
	defer m.Close()

	// Reference: an uninterrupted run of the same spec.
	ref, err := m.SubmitExplore(testSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := ref.Result().(*ExploreResult)

	// Interrupted run: cancel mid-frontier (deterministically, via the
	// gated builder), then resume. The closed release gate lets the
	// resumed run's builds through immediately.
	spec, blocked, release := gatedSpec(3)
	j, err := m.SubmitExplore(spec)
	if err != nil {
		t.Fatal(err)
	}
	cancelMidFrontier(t, m, j, blocked, release)
	cp, _ := j.Checkpoint().([]*explore.Node)
	if len(cp) != 1 {
		t.Fatalf("checkpoint should hold exactly the initial node, got %d", len(cp))
	}

	rj, err := m.Resume(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rj.Status().ResumedFrom != j.ID {
		t.Fatalf("resumed-from: %+v", rj.Status())
	}
	if err := rj.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	got := rj.Result().(*ExploreResult)
	if got.Final.Key != want.Final.Key || got.Graph != want.Graph ||
		fmt.Sprint(got.Required) != fmt.Sprint(want.Required) ||
		fmt.Sprint(got.Optional) != fmt.Sprint(want.Optional) ||
		got.NodesEvaluated != want.NodesEvaluated {
		t.Fatalf("resumed result diverged:\n--- reference ---\n%+v\n--- resumed ---\n%+v", want, got)
	}
	// The resumed job announced its checkpoint restore.
	restored := false
	for ev := range rj.Events(context.Background(), 0) {
		if ev.Kind == "restored" {
			restored = true
		}
	}
	if !restored {
		t.Fatal("resumed job emitted no restored event")
	}
}

func TestResumeRequiresTerminalExploreJob(t *testing.T) {
	m := NewManager(Options{})
	defer m.Close()
	started := make(chan string, 1)
	release := make(chan struct{})
	plain, _ := m.Submit("other", blockingRunner(started, release))
	<-started
	if _, err := m.Resume(plain.ID); err == nil {
		t.Fatal("resuming a non-explore job should fail")
	}
	close(release)
	plain.Wait(context.Background())

	spec, blocked, releaseGate := gatedSpec(4)
	spec.Workers = 2
	j, err := m.SubmitExplore(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-blocked // deterministically mid-search
	if _, err := m.Resume(j.ID); !errors.Is(err, ErrActive) {
		t.Fatalf("resuming an active job: %v", err)
	}
	m.Cancel(j.ID)
	close(releaseGate)
	j.Wait(context.Background())
	rj, err := m.Resume(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := rj.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestExploreCorpusFunc exercises the deferred-corpus path (the catalogue
// submission shape, where simulation happens inside the job).
func TestExploreCorpusFunc(t *testing.T) {
	m := NewManager(Options{})
	defer m.Close()
	spec := testSpec(0)
	corpus := spec.Corpus
	// Empty-but-non-nil, the shape a decoded JSON [] produces: it must
	// route through CorpusFunc exactly like nil.
	spec.Corpus = []*counters.Observation{}
	spec.CorpusFunc = func(ctx context.Context) ([]*counters.Observation, error) {
		return corpus, nil
	}
	j, err := m.SubmitExplore(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	sawCorpus := false
	for ev := range j.Events(context.Background(), 0) {
		if ev.Kind == "corpus" {
			sawCorpus = true
		}
	}
	if !sawCorpus {
		t.Fatal("corpus event missing")
	}
	spec.CorpusFunc = func(ctx context.Context) ([]*counters.Observation, error) {
		return nil, fmt.Errorf("simulator exploded")
	}
	j2, _ := m.SubmitExplore(spec)
	j2.Wait(context.Background())
	if st := j2.Status(); st.State != StateFailed || !strings.Contains(st.Error, "simulator exploded") {
		t.Fatalf("status: %+v", st)
	}

	// A CorpusFunc that produces nothing must fail the job, not report a
	// vacuous zero-observation convergence.
	spec.CorpusFunc = func(ctx context.Context) ([]*counters.Observation, error) {
		return []*counters.Observation{}, nil
	}
	j3, _ := m.SubmitExplore(spec)
	j3.Wait(context.Background())
	if st := j3.Status(); st.State != StateFailed || !strings.Contains(st.Error, "corpus is empty") {
		t.Fatalf("status: %+v", st)
	}
}

// TestExploreJobContainsBuilderPanic pins panic containment through the
// parallel frontier: a Builder that panics on one candidate must fail the
// job (checkpoint intact), never the process.
func TestExploreJobContainsBuilderPanic(t *testing.T) {
	m := NewManager(Options{})
	defer m.Close()
	spec := testSpec(4)
	spec.Workers = 4
	inner := spec.Builder
	spec.Builder = func(fs explore.FeatureSet) (*core.Model, error) {
		if fs["redherring2"] {
			panic("builder exploded")
		}
		return inner(fs)
	}
	j, err := m.SubmitExplore(spec)
	if err != nil {
		t.Fatal(err)
	}
	j.Wait(context.Background())
	st := j.Status()
	if st.State != StateFailed || !strings.Contains(st.Error, "panicked") {
		t.Fatalf("status: %+v", st)
	}
	if cp, _ := j.Checkpoint().([]*explore.Node); len(cp) == 0 {
		t.Fatal("checkpoint lost across builder panic")
	}
}
