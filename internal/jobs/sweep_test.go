package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/engine"
	"repro/internal/haswell"
	"repro/internal/sweep"
)

// sweepTestBase hand-builds a deterministic base corpus over the
// ground-truth set (no simulation — jobs tests exercise the scan
// machinery, not the simulator).
func sweepTestBase() []*counters.Observation {
	gt := haswell.GroundTruthSet()
	var out []*counters.Observation
	for k := 0; k < 2; k++ {
		// Integer-valued samples on purpose: the exact solver's rationals
		// stay small, so the cold (cache-miss) pass stays test-sized.
		o := counters.NewObservation("synthetic", gt)
		rng := rand.New(rand.NewSource(int64(k + 1)))
		for s := 0; s < 6; s++ {
			row := make([]float64, gt.Len())
			for j := range row {
				row[j] = float64((k*83+j*29)%300 + rng.Intn(25))
			}
			o.Append(row)
		}
		out = append(out, haswell.WithAggregateWalkRef(o))
	}
	return out
}

func sweepTestGrid() sweep.Grid {
	return sweep.Grid{
		Events: []uint8{0x42, sweep.EventPageWalkerLoads},
		Umasks: []uint8{0x01, 0x0F, 0x1F},
		Cmasks: []uint8{0x00, 0x10},
	}
}

// cellHook is an Options.AfterSweepCell for tests whose manager also runs
// reference and resumed scans: inert until armed, it runs fn on the first
// committed cell with the armed index and disarms itself.
type cellHook struct {
	index int
	fn    func()
	armed atomic.Bool
}

// arm must be called while no sweep runs on the manager.
func (h *cellHook) arm(index int, fn func()) {
	h.index, h.fn = index, fn
	h.armed.Store(true)
}

func (h *cellHook) hook(index int) {
	if h.armed.Load() && index == h.index && h.armed.CompareAndSwap(true, false) {
		h.fn()
	}
}

func testSweepSpec(eng *engine.Engine) SweepSpec {
	return SweepSpec{
		Grid:   sweepTestGrid(),
		Seed:   7,
		Base:   sweepTestBase(),
		Engine: eng,
	}
}

func TestSweepJobRunsToCompletionAndDedups(t *testing.T) {
	eng := engine.New()
	defer eng.Close()
	m := NewManager(Options{})
	defer m.Close()
	j, err := m.SubmitSweep(testSweepSpec(eng))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	res, ok := j.Result().(*SweepResult)
	if !ok {
		t.Fatalf("result type %T", j.Result())
	}
	grid := sweepTestGrid()
	if res.GridSize != grid.Size() || len(res.Cells) != grid.Size() {
		t.Fatalf("grid size: %+v", res)
	}
	if res.BaseObservations != 2 || res.Verdicts != grid.Size()*2 {
		t.Fatalf("verdict accounting: %+v", res)
	}
	if res.Consistent+res.Refuted != grid.Size() {
		t.Fatalf("partition: %+v", res)
	}
	// Umask 0x1F aliases 0x0F on both events, so the grid must plan to
	// strictly fewer behaviour classes than cells...
	if res.UniqueBehaviours >= grid.Size() {
		t.Fatalf("no dedup: %d behaviours for %d cells", res.UniqueBehaviours, grid.Size())
	}
	if res.ClassesPlanned != res.UniqueBehaviours || res.CellsAliased != grid.Size()-res.ClassesPlanned {
		t.Fatalf("plan accounting: %+v", res)
	}
	// ...and the engine must be asked once per class, never per cell:
	// dedup observable, not assumed. Evaluations counts LP solves, so
	// verdict-cache hits can only pull it below classes × observations.
	if res.ClassesEvaluated != res.ClassesPlanned {
		t.Fatalf("fresh scan evaluated %d of %d classes", res.ClassesEvaluated, res.ClassesPlanned)
	}
	if ev := eng.SolverStats().Evaluations; ev > uint64(res.ClassesPlanned*res.BaseObservations) {
		t.Fatalf("%d LP solves for %d classes x %d observations", ev, res.ClassesPlanned, res.BaseObservations)
	}
	ss := m.SweepStats()
	if ss.Jobs != 1 || ss.CellsCommitted != uint64(grid.Size()) ||
		ss.ClassesEvaluated != uint64(res.ClassesEvaluated) || ss.EvaluationsAvoided <= 0 {
		t.Fatalf("manager telemetry: %+v", ss)
	}
	classRep := map[int]SweepCell{}
	for i, c := range res.Cells {
		if c.Index != i {
			t.Fatalf("cell %d misindexed: %+v", i, c)
		}
		if c.Feasible+c.Infeasible != 2 {
			t.Fatalf("cell %d verdict count: %+v", i, c)
		}
		// Aliased cells carry their class and inherit its verdict verbatim.
		rep, ok := classRep[c.Class]
		if !ok {
			classRep[c.Class] = c
			continue
		}
		if rep.Sig != c.Sig || rep.Feasible != c.Feasible || rep.Infeasible != c.Infeasible {
			t.Fatalf("class %d diverges: %+v vs %+v", c.Class, rep, c)
		}
	}
	if len(classRep) != res.ClassesPlanned {
		t.Fatalf("%d classes across cells, planned %d", len(classRep), res.ClassesPlanned)
	}
	// The event log narrates the scan: one plan announcement, one cell
	// event per grid cell.
	kinds := map[string]int{}
	for ev := range j.Events(context.Background(), 0) {
		kinds[ev.Kind]++
		if ev.Kind == "planned" {
			data := ev.Data.(SweepEventData)
			if data.Count != grid.Size() || data.Classes != res.ClassesPlanned || data.Aliased != res.CellsAliased {
				t.Fatalf("planned event: %+v", data)
			}
		}
	}
	if kinds["cell"] != grid.Size() || kinds["planned"] != 1 || kinds["done"] != 1 {
		t.Fatalf("event kinds: %v", kinds)
	}
}

func TestSweepSpecValidation(t *testing.T) {
	m := NewManager(Options{})
	defer m.Close()
	bad := []SweepSpec{
		{},
		{Grid: sweep.Grid{Events: []uint8{1}}},
		{Grid: sweepTestGrid(), Confidence: 1.5},
		{Grid: sweepTestGrid(), Workers: -1},
		{Grid: sweepTestGrid(), Samples: 1_000_000_000},
		{Grid: sweepTestGrid(), Samples: MaxSweepSamples + 1, UopsPerSample: 1},
		// The default 12 samples count: one 2^31-uop interval alone is over
		// the bound, and so is the smallest uops that puts 12 over.
		{Grid: sweepTestGrid(), UopsPerSample: 1 << 31},
		{Grid: sweepTestGrid(), UopsPerSample: MaxSweepUops/sweep.DefaultBaseSpec().Samples + 1},
		{Grid: sweepTestGrid(), Samples: MaxSweepSamples, UopsPerSample: MaxSweepUops/MaxSweepSamples + 1},
	}
	for i, spec := range bad {
		if _, err := m.SubmitSweep(spec); err == nil {
			t.Fatalf("spec %d should be rejected", i)
		}
	}
	if n := m.Len(); n != 0 {
		t.Fatalf("%d jobs queued by rejected specs", n)
	}
	// At the bound, and over it with a supplied base whose sizes are
	// ignored, specs are valid (checked without running them).
	for i, spec := range []SweepSpec{
		{Grid: sweepTestGrid(), Samples: MaxSweepSamples, UopsPerSample: MaxSweepUops / MaxSweepSamples},
		{Grid: sweepTestGrid(), Samples: 1, UopsPerSample: MaxSweepUops},
		{Grid: sweepTestGrid(), UopsPerSample: MaxSweepUops / sweep.DefaultBaseSpec().Samples},
		{Grid: sweepTestGrid(), Samples: 1_000_000_000, Base: sweepTestBase()},
	} {
		if err := spec.validate(); err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
	}
}

// TestSweepResumeEquivalence cancels a sweep mid-grid and checks the
// resumed job's cell list is bit-identical to an uninterrupted reference
// run — the acceptance bar for checkpoint/resume on this job kind.
func TestSweepResumeEquivalence(t *testing.T) {
	eng := engine.New()
	defer eng.Close()
	var gate cellHook
	m := NewManager(Options{AfterSweepCell: gate.hook})
	defer m.Close()

	ref, err := m.SubmitSweep(testSweepSpec(eng))
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := ref.Result().(*SweepResult)

	// Gate the second run after cell 3 commits, cancel while it is
	// blocked, then release it into the cancelled context.
	blocked := make(chan struct{})
	release := make(chan struct{})
	gate.arm(3, func() {
		close(blocked)
		<-release
	})
	j, err := m.SubmitSweep(testSweepSpec(eng))
	if err != nil {
		t.Fatal(err)
	}
	<-blocked
	if err := m.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := j.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("wait: %v", err)
	}
	if j.State() != StateCancelled {
		t.Fatalf("state: %s", j.State())
	}
	cp, ok := j.Checkpoint().([]SweepCell)
	if !ok || len(cp) == 0 || len(cp) >= sweepTestGrid().Size() {
		t.Fatalf("checkpoint: %d cells (ok=%v)", len(cp), ok)
	}

	r, err := m.Resume(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if r.Status().ResumedFrom != j.ID {
		t.Fatalf("resumed_from: %q", r.Status().ResumedFrom)
	}
	got := r.Result().(*SweepResult)
	if !reflect.DeepEqual(got.Cells, want.Cells) {
		t.Fatalf("resumed cells differ from reference:\n got %+v\nwant %+v", got.Cells, want.Cells)
	}
	if got.Consistent != want.Consistent || got.Refuted != want.Refuted || got.Verdicts != want.Verdicts {
		t.Fatalf("resumed summary differs: %+v vs %+v", got, want)
	}
	// The resumed job announces its restored prefix.
	restored := false
	for ev := range r.Events(context.Background(), 0) {
		if ev.Kind == "restored" {
			restored = true
		}
	}
	if !restored {
		t.Fatal("no restored event")
	}
}

func TestResumeDispatchesByKind(t *testing.T) {
	eng := engine.New()
	defer eng.Close()
	m := NewManager(Options{})
	defer m.Close()

	if _, err := m.Resume("nope"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("unknown id: %v", err)
	}

	// Sweep jobs resume through the generic entry point.
	j, err := m.SubmitSweep(testSweepSpec(eng))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Resume(j.ID); !errors.Is(err, ErrActive) {
		t.Fatalf("active job: %v", err)
	}
	if err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	r, err := m.Resume(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Result().(*SweepResult).Cells, j.Result().(*SweepResult).Cells) {
		t.Fatal("generic resume of a finished sweep should replay its cells")
	}

	// Explore jobs dispatch too.
	e, err := m.SubmitExplore(testSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Resume(e.ID); err != nil {
		t.Fatalf("explore dispatch: %v", err)
	}

	// Jobs with no resumable spec are rejected.
	plain, err := m.Submit("noop", func(ctx context.Context, job *Job) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Resume(plain.ID); err == nil {
		t.Fatal("plain job should not be resumable")
	}
}

// benchmarkSweep runs full cold small-grid scans: every iteration gets a
// fresh engine and manager, built and torn down outside the timer, so no
// verdict cache carries over and the per-op figures do not depend on
// b.N. A dedup regression (planner loss) or a solver-tier regression
// shows up directly in ns/op and allocs/op — as does a regression in the
// pooled per-class corpus materialisation. The spec carries a prebuilt
// base corpus (sweepTestBase), so these figures exclude corpus
// synthesis, which dominates a daemon's sweep job; BenchmarkBaseCorpus
// in internal/sweep times that part.
func benchmarkSweep(b *testing.B, workers int) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng := engine.New()
		m := NewManager(Options{})
		spec := testSweepSpec(eng)
		spec.Workers = workers
		b.StartTimer()
		j, err := m.SubmitSweep(spec)
		if err != nil {
			b.Fatal(err)
		}
		if err := j.Wait(context.Background()); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if j.Result().(*SweepResult).Verdicts == 0 {
			b.Fatal("no verdicts")
		}
		m.Close()
		eng.Close()
		b.StartTimer()
	}
}

// BenchmarkSweepGrid evaluates one behaviour class at a time (a worker
// bound of 1 over the same pipeline).
func BenchmarkSweepGrid(b *testing.B) { benchmarkSweep(b, 1) }

// BenchmarkSweepGridBatched is the batched fan-out (4 class evaluations
// in flight); against BenchmarkSweepGrid it records the fan-out's
// speedup on a multi-core box.
func BenchmarkSweepGridBatched(b *testing.B) { benchmarkSweep(b, 4) }

// TestSweepBasisCertificatesMatchExact pins the basis-certificate tier on
// a cold scan: the small grid's refutations are certified from the float
// filter's phase-1 basis without a single exact-simplex fallback, and the
// committed cells are byte-identical to a scan forced onto the exact
// solver.
func TestSweepBasisCertificatesMatchExact(t *testing.T) {
	cells := func(forceExact bool) ([]byte, core.SolverCounts) {
		eng := engine.New()
		defer eng.Close()
		m := NewManager(Options{})
		defer m.Close()
		spec := testSweepSpec(eng)
		spec.ForceExact = forceExact
		j, err := m.SubmitSweep(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(j.Result().(*SweepResult).Cells)
		if err != nil {
			t.Fatal(err)
		}
		return raw, eng.SolverStats()
	}
	hybrid, hs := cells(false)
	exact, _ := cells(true)
	if string(hybrid) != string(exact) {
		t.Fatalf("two-tier cells diverge from the exact solver's:\nhybrid %s\nexact  %s", hybrid, exact)
	}
	if hs.ExactFallbacks != 0 || hs.FilterInfeasible == 0 {
		t.Fatalf("solver telemetry: %+v (want no exact fallbacks and basis-certified refutations)", hs)
	}
	t.Logf("solver telemetry: %+v", hs)
}
