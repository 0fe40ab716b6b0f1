package ordered

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// scenario plants failures at fixed indices; -1 plants none.
type scenario struct {
	name        string
	evalErr     int // eval returns an error
	evalPanic   int // eval panics
	commitErr   int // commit returns an error
	cancelAt    int // commit cancels ctx
	refuseAt    int // the executor refuses to start the task
	preCanceled bool
}

// firstFailure is the lowest planted index that stops a run, or n.
func (sc scenario) firstFailure(n int) int {
	f := n
	for _, i := range []int{sc.evalErr, sc.evalPanic, sc.commitErr, sc.cancelAt, sc.refuseAt} {
		if i >= 0 && i < f {
			f = i
		}
	}
	return f
}

func scenarios(n int, rng *rand.Rand) []scenario {
	none := scenario{evalErr: -1, evalPanic: -1, commitErr: -1, cancelAt: -1, refuseAt: -1}
	out := []scenario{none}
	with := func(name string, set func(*scenario)) {
		sc := none
		sc.name = name
		set(&sc)
		out = append(out, sc)
	}
	out[0].name = "clean"
	with("canceled", func(sc *scenario) { sc.preCanceled = true })
	if n == 0 {
		return out
	}
	at := func() int { return rng.Intn(n) }
	with("eval-error", func(sc *scenario) { sc.evalErr = at() })
	with("eval-panic", func(sc *scenario) { sc.evalPanic = at() })
	with("commit-error", func(sc *scenario) { sc.commitErr = at() })
	with("cancel-in-commit", func(sc *scenario) { sc.cancelAt = at() })
	with("error-and-panic", func(sc *scenario) { sc.evalErr, sc.evalPanic = at(), at() })
	with("last-item-fails", func(sc *scenario) { sc.evalErr = n - 1 })
	with("exec-refused", func(sc *scenario) { sc.refuseAt = at() })
	return out
}

// executor is Run's exec argument.
type executor = func(context.Context, func()) error

// inline runs each task before it returns: the plain loop's executor.
func inline(_ context.Context, task func()) error {
	task()
	return nil
}

// plainLoop is the sequential reference Run must reproduce; exec must run
// the task before it returns.
func plainLoop[T any](ctx context.Context, n int, exec executor, eval func(context.Context, int) (T, error), commit func(int, T) error) error {
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		var v T
		var err error
		if xerr := exec(ctx, func() { v, err = call(ctx, i, eval) }); xerr != nil {
			return xerr
		}
		if err != nil {
			return err
		}
		if err := commit(i, v); err != nil {
			return err
		}
	}
	return nil
}

// outcome is what one run externalises.
type outcome struct {
	committed []int
	err       string
	evaluated []bool
	maxFlight int32
	running   int32 // evaluations still running when run returned
}

// testPool is a fixed set of workers taking tasks from one unbuffered
// channel: the shape of the engine's pool.
type testPool struct {
	tasks chan func()
	wg    sync.WaitGroup
}

func newTestPool(workers int) *testPool {
	p := &testPool{tasks: make(chan func())}
	p.wg.Add(workers)
	for range workers {
		go func() {
			defer p.wg.Done()
			for task := range p.tasks {
				task()
			}
		}()
	}
	return p
}

// submit blocks until a worker takes task or ctx ends.
func (p *testPool) submit(ctx context.Context, task func()) error {
	select {
	case p.tasks <- task:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (p *testPool) close() {
	close(p.tasks)
	p.wg.Wait()
}

// runScenario drives sc through run (Run or plainLoop) with items that
// sleep delays[i] before answering i*i, started through exec; the
// executor refuses index sc.refuseAt (Run calls exec once per index, in
// index order).
func runScenario(sc scenario, n int, delays []time.Duration, exec executor,
	run func(context.Context, executor, func(context.Context, int) (int, error), func(int, int) error) error) outcome {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if sc.preCanceled {
		cancel()
	}
	var (
		mu        sync.Mutex
		out       = outcome{evaluated: make([]bool, n)}
		inFlight  atomic.Int32
		maxFlight atomic.Int32
	)
	eval := func(_ context.Context, i int) (int, error) {
		f := inFlight.Add(1)
		defer inFlight.Add(-1)
		for m := maxFlight.Load(); f > m && !maxFlight.CompareAndSwap(m, f); m = maxFlight.Load() {
		}
		mu.Lock()
		out.evaluated[i] = true
		mu.Unlock()
		time.Sleep(delays[i])
		switch i {
		case sc.evalPanic:
			panic(fmt.Sprintf("planted panic at %d", i))
		case sc.evalErr:
			return 0, fmt.Errorf("planted error at %d", i)
		}
		return i * i, nil
	}
	commit := func(i, v int) error {
		if v != i*i {
			return fmt.Errorf("commit %d got value %d", i, v)
		}
		out.committed = append(out.committed, i)
		if i == sc.cancelAt {
			cancel()
		}
		if i == sc.commitErr {
			return fmt.Errorf("planted commit error at %d", i)
		}
		return nil
	}
	calls := 0
	refusing := func(ctx context.Context, task func()) error {
		i := calls
		calls++
		if i == sc.refuseAt {
			return fmt.Errorf("planted refusal at %d", i)
		}
		return exec(ctx, task)
	}
	if err := run(ctx, refusing, eval, commit); err != nil {
		out.err = err.Error()
	}
	out.running = inFlight.Load()
	out.maxFlight = maxFlight.Load()
	return out
}

// TestRunMatchesPlainLoop checks Run against the sequential loop for
// every window, on plain goroutines (ordered.Go) and on a pool with fewer
// workers than most windows: the same commits in the same order, the same
// error, no more than min(window, pool workers) items in flight, nothing
// evaluated more than window-1 past the first failure, no evaluation
// still running when Run returns, and no goroutine left behind. A refused
// start must act like an eval error at its index. Subtest names keep
// calling the window "workers", so the names already pinned stay valid.
func TestRunMatchesPlainLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, 64} {
		for _, window := range []int{1, 2, 8} {
			poolSize := (window + 1) / 2
			for _, onPool := range []bool{false, true} {
				for _, sc := range scenarios(n, rng) {
					name := fmt.Sprintf("n=%d/workers=%d/%s", n, window, sc.name)
					if onPool {
						name = fmt.Sprintf("n=%d/workers=%d/pool=%d/%s", n, window, poolSize, sc.name)
					}
					t.Run(name, func(t *testing.T) {
						delays := make([]time.Duration, n)
						for i := range delays {
							delays[i] = time.Duration(rng.Intn(300)) * time.Microsecond
						}
						want := runScenario(sc, n, delays, inline, func(ctx context.Context, exec executor, eval func(context.Context, int) (int, error), commit func(int, int) error) error {
							return plainLoop(ctx, n, exec, eval, commit)
						})
						exec, inFlight := executor(Go), window
						if onPool {
							p := newTestPool(poolSize)
							defer p.close()
							exec, inFlight = p.submit, min(window, poolSize)
						}
						baseline := runtime.NumGoroutine()
						got := runScenario(sc, n, delays, exec, func(ctx context.Context, exec executor, eval func(context.Context, int) (int, error), commit func(int, int) error) error {
							return Run(ctx, n, window, exec, eval, commit)
						})
						settle(t, baseline)

						if got.running != 0 {
							t.Fatalf("%d evaluations still running after Run returned", got.running)
						}
						if fmt.Sprint(got.committed) != fmt.Sprint(want.committed) {
							t.Fatalf("committed %v, plain loop committed %v", got.committed, want.committed)
						}
						if got.err != want.err {
							t.Fatalf("error %q, plain loop returned %q", got.err, want.err)
						}
						if int(got.maxFlight) > inFlight {
							t.Fatalf("%d evaluations in flight at once, bound is %d", got.maxFlight, inFlight)
						}
						limit := sc.firstFailure(n) + window - 1
						if sc.preCanceled {
							limit = -1
						}
						for i, ev := range got.evaluated {
							if ev && i > limit {
								t.Fatalf("index %d evaluated; nothing past %d may be", i, limit)
							}
						}
					})
				}
			}
		}
	}
}

// TestRunCommitPanicLeavesNoGoroutine: a panic in commit unwinds through
// Run to its caller, like the same panic in a plain loop, after every
// worker has stopped.
func TestRunCommitPanicLeavesNoGoroutine(t *testing.T) {
	baseline := runtime.NumGoroutine()
	func() {
		defer func() {
			if p := recover(); p != "commit detonated" {
				t.Fatalf("recovered %v, want the commit panic", p)
			}
		}()
		Run(context.Background(), 16, 4, Go,
			func(context.Context, int) (int, error) { return 0, nil },
			func(i, _ int) error {
				if i == 3 {
					panic("commit detonated")
				}
				return nil
			})
	}()
	settle(t, baseline)
}

// settle waits for workers that have signalled completion to finish
// returning, then fails if more goroutines run than at baseline.
func settle(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left running after Run returned (baseline %d)", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}
