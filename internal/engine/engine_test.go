package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/stats"
)

const initialModelSrc = `
incr load.causes_walk;
do LookupPde$;
switch Pde$Status {
    Hit  => pass;
    Miss => incr load.pde$_miss;
};
done;
`

func pdeSet() *counters.Set {
	return counters.NewSet("load.causes_walk", "load.pde$_miss")
}

func pdeModel(t testing.TB) *core.Model {
	t.Helper()
	m, err := core.ModelFromDSL("initial", initialModelSrc, pdeSet())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func obsAround(label string, cw, pm float64, samples int, seed int64) *counters.Observation {
	o := counters.NewObservation(label, pdeSet())
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < samples; i++ {
		o.Append([]float64{cw + rng.NormFloat64(), pm + rng.NormFloat64()})
	}
	return o
}

func mixedCorpus() []*counters.Observation {
	return []*counters.Observation{
		obsAround("ok1", 500, 100, 100, 10),
		obsAround("ok2", 300, 299, 100, 11),
		obsAround("bad1", 100, 400, 100, 12),
		obsAround("bad2", 50, 200, 100, 13),
	}
}

// TestEvaluateCorpus is the engine port of the seed's core corpus test.
func TestEvaluateCorpus(t *testing.T) {
	e := New()
	defer e.Close()
	s, err := e.NewSession(pdeModel(t), Config{IdentifyViolations: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Evaluate(context.Background(), mixedCorpus())
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 4 {
		t.Fatalf("total: %d", res.Total)
	}
	if res.Infeasible != 2 {
		t.Fatalf("infeasible: %d, want 2", res.Infeasible)
	}
	if res.ViolatedConstraints["load.pde$_miss <= load.causes_walk"] != 2 {
		t.Fatalf("violation counts: %v", res.ViolatedConstraints)
	}
	if len(res.Verdicts) != 4 {
		t.Fatalf("verdicts: %d", len(res.Verdicts))
	}
	// Verdicts come back in corpus order despite parallel completion.
	for i, want := range []string{"ok1", "ok2", "bad1", "bad2"} {
		if res.Verdicts[i].Observation != want {
			t.Fatalf("verdict %d is %q, want %q", i, res.Verdicts[i].Observation, want)
		}
	}
}

// TestSessionMatchesCorePerCall checks the cached engine path agrees with
// core's uncached per-call path on every observation.
func TestSessionMatchesCorePerCall(t *testing.T) {
	e := New()
	defer e.Close()
	m := pdeModel(t)
	s, err := e.NewSession(m, Config{IdentifyViolations: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range mixedCorpus() {
		got, err := s.Test(context.Background(), o)
		if err != nil {
			t.Fatal(err)
		}
		want, err := m.TestObservation(o, core.DefaultConfidence, stats.Correlated, true)
		if err != nil {
			t.Fatal(err)
		}
		if got.Feasible != want.Feasible {
			t.Fatalf("%s: engine %v, core %v", o.Label, got.Feasible, want.Feasible)
		}
		if len(got.Violations) != len(want.Violations) {
			t.Fatalf("%s: violations %v vs %v", o.Label, got.Violations, want.Violations)
		}
	}
}

// evalWorkers are the pool sizes the evaluation-core contract is pinned
// on: a serial pool, and one wide enough that chunks complete out of
// order.
var evalWorkers = []int{1, 4}

// TestEvaluateEachDelivery checks EvaluateEach calls fn once per
// observation, in corpus order, at every worker count.
func TestEvaluateEachDelivery(t *testing.T) {
	for _, workers := range evalWorkers {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			e := New(WithWorkers(workers))
			defer e.Close()
			s, err := e.NewSession(pdeModel(t), Config{BatchSize: 2})
			if err != nil {
				t.Fatal(err)
			}
			corpus := append(mixedCorpus(), mixedCorpus()...)
			next := 0
			res, err := s.EvaluateEach(context.Background(), corpus, func(i int, v *core.Verdict, err error) {
				if err != nil {
					t.Fatal(err)
				}
				if i != next {
					t.Fatalf("callback for index %d, want %d", i, next)
				}
				if v.Observation != corpus[i].Label {
					t.Fatalf("index %d delivered %q, want %q", i, v.Observation, corpus[i].Label)
				}
				next++
			})
			if err != nil {
				t.Fatal(err)
			}
			if next != len(corpus) {
				t.Fatalf("%d callbacks, want %d", next, len(corpus))
			}
			if res.Total != len(corpus) || res.Infeasible != 4 {
				t.Fatalf("aggregate %d/%d", res.Infeasible, res.Total)
			}
			for i, v := range res.Verdicts {
				if v.Observation != corpus[i].Label {
					t.Fatalf("Verdicts[%d] is %q, want %q", i, v.Observation, corpus[i].Label)
				}
			}
		})
	}
}

// TestStopOnInfeasible checks the early-exit mode stops exactly after the
// first refutation in corpus order: the callbacks cover indices 0..k, the
// result is that prefix, and 20 repeated runs agree at every worker count.
func TestStopOnInfeasible(t *testing.T) {
	const k = 5 // the first refuting index
	var corpus []*counters.Observation
	for i := 0; i < 48; i++ {
		corpus = append(corpus, obsAround(fmt.Sprintf("ok-%d", i), 500, 100, 80, int64(i+2)))
	}
	corpus[k] = obsAround("bad", 100, 400, 80, 1)
	corpus[30] = obsAround("later-bad", 100, 400, 80, 99) // must never be reached
	type summary struct {
		Total, Infeasible int
		Violated          map[string]int
		Labels            []string
	}
	for _, workers := range evalWorkers {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			e := New(WithWorkers(workers))
			defer e.Close()
			s, err := e.NewSession(pdeModel(t), Config{StopOnInfeasible: true, BatchSize: 2, IdentifyViolations: true})
			if err != nil {
				t.Fatal(err)
			}
			var first *summary
			for run := 0; run < 20; run++ {
				var seen []int
				res, err := s.EvaluateEach(context.Background(), corpus, func(i int, v *core.Verdict, err error) {
					if err != nil {
						t.Fatal(err)
					}
					seen = append(seen, i)
				})
				if err != nil {
					t.Fatal(err)
				}
				for i, idx := range seen {
					if idx != i {
						t.Fatalf("run %d: callback %d has index %d", run, i, idx)
					}
				}
				if len(seen) != k+1 || res.Total != k+1 || res.Infeasible != 1 {
					t.Fatalf("run %d: %d callbacks, aggregate %d/%d; want 1/%d", run, len(seen), res.Infeasible, res.Total, k+1)
				}
				if last := res.Verdicts[len(res.Verdicts)-1]; last.Feasible || last.Observation != "bad" {
					t.Fatalf("run %d: prefix ends at %q (feasible %v)", run, last.Observation, last.Feasible)
				}
				got := &summary{Total: res.Total, Infeasible: res.Infeasible, Violated: res.ViolatedConstraints}
				for _, v := range res.Verdicts {
					got.Labels = append(got.Labels, v.Observation)
				}
				if first == nil {
					first = got
				} else if !reflect.DeepEqual(got, first) {
					t.Fatalf("run %d: %+v differs from run 0: %+v", run, got, first)
				}
			}
		})
	}
}

// TestStreamDeliversErrorItems checks an evaluation error reaches fn at its
// own index after exactly the verdicts before it, stops the run there even
// when a later chunk fails first, and is returned.
func TestStreamDeliversErrorItems(t *testing.T) {
	const j = 3 // the first failing index
	var corpus []*counters.Observation
	for i := 0; i < 16; i++ {
		corpus = append(corpus, obsAround(fmt.Sprintf("ok-%d", i), 500, 100, 40, int64(i+1)))
	}
	corpus[j] = counters.NewObservation("empty", pdeSet()) // no samples: region error
	corpus[9] = counters.NewObservation("empty-later", pdeSet())
	for _, workers := range evalWorkers {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			e := New(WithWorkers(workers))
			defer e.Close()
			s, err := e.NewSession(pdeModel(t), Config{BatchSize: 1})
			if err != nil {
				t.Fatal(err)
			}
			verdicts := 0
			var fnErr error
			res, err := s.EvaluateEach(context.Background(), corpus, func(i int, v *core.Verdict, err error) {
				if fnErr != nil {
					t.Fatalf("callback for index %d after the error", i)
				}
				if err != nil {
					if i != j {
						t.Fatalf("error delivered at index %d, want %d", i, j)
					}
					fnErr = err
					return
				}
				if i != verdicts {
					t.Fatalf("verdict callback for index %d, want %d", i, verdicts)
				}
				verdicts++
			})
			if fnErr == nil {
				t.Fatal("fn never received the error")
			}
			if err != fnErr {
				t.Fatalf("EvaluateEach returned %v, fn received %v", err, fnErr)
			}
			if verdicts != j || res.Total != j || len(res.Verdicts) != j {
				t.Fatalf("%d verdict callbacks, total %d, %d verdicts; want %d", verdicts, res.Total, len(res.Verdicts), j)
			}
		})
	}
}

// TestEvaluateEachPanicIsError checks a panic inside one verdict
// evaluation (s.test dereferences a nil observation) comes back from
// EvaluateEach as an error instead of ending the process on a pool
// worker, with the result ending just before the panicking chunk and no
// goroutine left behind.
func TestEvaluateEachPanicIsError(t *testing.T) {
	const j, size = 5, 2 // the nil observation and the batch size
	for _, workers := range evalWorkers {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			before := runtime.NumGoroutine()
			e := New(WithWorkers(workers))
			s, err := e.NewSession(pdeModel(t), Config{BatchSize: size})
			if err != nil {
				t.Fatal(err)
			}
			corpus := leakCorpus(16)
			corpus[j] = nil
			res, err := s.EvaluateEach(context.Background(), corpus, nil)
			if err == nil || !strings.Contains(err.Error(), "panicked") {
				t.Fatalf("EvaluateEach error = %v, want a panic error", err)
			}
			if want := j / size * size; res.Total != want || len(res.Verdicts) != want {
				t.Fatalf("total %d, %d verdicts; want the %d before the panicking chunk", res.Total, len(res.Verdicts), want)
			}
			for i, v := range res.Verdicts {
				if v.Observation != corpus[i].Label {
					t.Fatalf("result is not a prefix: Verdicts[%d] is %q", i, v.Observation)
				}
			}
			settleGoroutines(t, before+e.Workers())
			e.Close()
			settleGoroutines(t, before)
		})
	}
}

// TestEvaluateEachCancellation is the leak-and-promptness test: cancel
// from the callback mid-run, require a prompt partial result that is a
// corpus prefix, and no goroutines left behind.
func TestEvaluateEachCancellation(t *testing.T) {
	before := runtime.NumGoroutine()

	e := New(WithWorkers(2))
	s, err := e.NewSession(pdeModel(t), Config{BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	corpus := make([]*counters.Observation, 256)
	for i := range corpus {
		corpus[i] = obsAround(fmt.Sprintf("obs-%d", i), 500, 100, 60, int64(i))
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := s.EvaluateEach(ctx, corpus, func(i int, v *core.Verdict, err error) {
		if err != nil {
			t.Fatal(err)
		}
		if i == 4 {
			cancel()
		}
	})
	if err != context.Canceled {
		t.Fatalf("EvaluateEach error = %v, want context.Canceled", err)
	}
	if res.Total < 5 || res.Total == len(corpus) {
		t.Fatalf("partial result covers %d of %d observations", res.Total, len(corpus))
	}
	if len(res.Verdicts) != res.Total {
		t.Fatalf("verdicts %d vs total %d", len(res.Verdicts), res.Total)
	}
	for i, v := range res.Verdicts {
		if v.Observation != corpus[i].Label {
			t.Fatalf("partial result is not a prefix: Verdicts[%d] is %q", i, v.Observation)
		}
	}
	// No task outlives the call: only the pool's own workers remain.
	settleGoroutines(t, before+e.Workers())
	e.Close()
	settleGoroutines(t, before)
}

// TestBlockedCallbackDoesNotWedgePool checks that a caller whose callback
// blocks (a stalled NDJSON client) holds no pool worker: another session's
// Evaluate on the same two-worker engine completes while the callback is
// stuck, and the stuck run returns once its context is cancelled.
func TestBlockedCallbackDoesNotWedgePool(t *testing.T) {
	e := New(WithWorkers(2))
	defer e.Close()
	stuck, err := e.NewSession(pdeModel(t), Config{BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	other, err := e.NewSession(pdeModel(t), Config{IdentifyViolations: true})
	if err != nil {
		t.Fatal(err)
	}
	corpus := make([]*counters.Observation, 24)
	for i := range corpus {
		corpus[i] = obsAround("ok", 500, 100, 40, int64(i))
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	blocked := make(chan struct{})
	stuckDone := make(chan error, 1)
	go func() {
		_, err := stuck.EvaluateEach(ctx, corpus, func(i int, v *core.Verdict, err error) {
			if i == 0 {
				close(blocked)
				<-ctx.Done()
			}
		})
		stuckDone <- err
	}()
	<-blocked

	done := make(chan error, 1)
	go func() {
		res, err := other.Evaluate(context.Background(), mixedCorpus())
		if err == nil && res.Total != 4 {
			err = fmt.Errorf("total %d", res.Total)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("worker pool wedged by the blocked callback")
	}
	cancel()
	select {
	case err := <-stuckDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("blocked run returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("blocked run never returned after cancel")
	}
}

// TestRestrictSharing checks restricted models are memoised engine-wide.
func TestRestrictSharing(t *testing.T) {
	e := New()
	defer e.Close()
	s, err := e.NewSession(pdeModel(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	sub := counters.NewSet("load.causes_walk")
	r1, err := s.Restrict(sub)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Restrict(sub)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Model() != r2.Model() {
		t.Fatal("restricted model was rebuilt instead of shared")
	}
	if r1.Model().Set.Len() != 1 {
		t.Fatalf("restricted set: %v", r1.Model().Set.Events())
	}
	// Restricting to the session's own set returns the same model.
	same, err := s.Restrict(pdeSet())
	if err != nil {
		t.Fatal(err)
	}
	if same.Model() != s.Model() {
		t.Fatal("identity restrict should not rebuild the model")
	}
}

// TestSessionValidation covers config validation and eager constraint
// deduction failure propagation.
func TestSessionValidation(t *testing.T) {
	e := New()
	defer e.Close()
	if _, err := e.NewSession(pdeModel(t), Config{Confidence: 1.5}); err == nil {
		t.Fatal("confidence 1.5 should be rejected")
	}
	s, err := e.NewSession(pdeModel(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Config().Confidence; got != core.DefaultConfidence {
		t.Fatalf("default confidence %g", got)
	}
	if got := s.Config().BatchSize; got != DefaultBatchSize {
		t.Fatalf("default batch size %d", got)
	}
}

// TestEvaluateAfterClose checks submissions against a closed engine fail
// with ErrClosed rather than hanging or masquerading as a clean run.
func TestEvaluateAfterClose(t *testing.T) {
	e := New(WithWorkers(1))
	s, err := e.NewSession(pdeModel(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	res, err := s.Evaluate(context.Background(), mixedCorpus())
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("Evaluate after Close: err = %v, want ErrClosed", err)
	}
	if res.Total != 0 {
		t.Fatalf("closed engine evaluated %d observations", res.Total)
	}
}

// TestSessionForSharing checks SessionFor memoises per (model, normalised
// config): the steady state of a service handling many requests against
// one registered model.
func TestSessionForSharing(t *testing.T) {
	e := New()
	defer e.Close()
	m := pdeModel(t)
	s1, err := e.SessionFor(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// An explicitly-spelled default config shares the normalised session.
	s2, err := e.SessionFor(m, Config{Confidence: core.DefaultConfidence, BatchSize: DefaultBatchSize})
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatal("equivalent configs built distinct sessions")
	}
	s3, err := e.SessionFor(m, Config{Confidence: 0.95})
	if err != nil {
		t.Fatal(err)
	}
	if s3 == s1 {
		t.Fatal("distinct configs shared a session")
	}
	// The deprecated EphemeralObservations flag is normalised away.
	if s4, err := e.SessionFor(m, Config{EphemeralObservations: true}); err != nil || s4 != s1 {
		t.Fatalf("EphemeralObservations split the session (err %v)", err)
	}
	if _, err := e.SessionFor(m, Config{Confidence: math.NaN()}); err == nil {
		t.Fatal("NaN confidence must be rejected")
	}
}
