// Package ordered fans independent evaluations out over an executor and
// commits their results in index order on the caller's goroutine. It is
// the one ordered fan-out behind corpus evaluation (on the engine's worker
// pool), the sweep's behaviour classes, the exploration frontiers and
// corpus simulation (on goroutines of their own).
//
// With any window and executor, Run commits and returns exactly what this
// plain loop would:
//
//	for i := 0; i < n; i++ {
//		if err := ctx.Err(); err != nil {
//			return err
//		}
//		v, err := eval(ctx, i) // a panic or a refused start becomes an error
//		if err != nil {
//			return err
//		}
//		if err := commit(i, v); err != nil {
//			return err
//		}
//	}
//	return nil
//
// The one difference is timing: when another goroutine ends ctx while
// item i is evaluated, Run returns ctx.Err() without committing i.
package ordered

import (
	"context"
	"fmt"
	"sync"
)

// Go is the executor that starts every task on a goroutine of its own.
func Go(_ context.Context, task func()) error {
	go task()
	return nil
}

// Run evaluates indices 0..n-1, each as one task started through exec,
// and calls commit for each on the calling goroutine, in index order, as
// soon as every lower index has committed.
//
// Indices are claimed in ascending order, never more than window
// (clamped to [1, n]) past the lowest uncommitted one; exec is called on
// the calling goroutine, once per claim, and may block until it can start
// the task. An exec error means the task never runs. The first failure (an
// exec error, an eval error, a panic inside eval, or a commit error) stops
// new claims: evaluations already in flight finish, every lower index
// still commits, and Run returns the lowest-index failure. Once ctx ends,
// nothing more is claimed or committed and Run returns ctx.Err().
//
// eval and exec receive a context derived from ctx, which Run cancels as
// it returns, before it waits for the tasks still in flight: nothing is
// cancelled that must still commit, and no task outlives Run, on any
// executor and even when commit panics.
func Run[T any](ctx context.Context, n, window int,
	exec func(ctx context.Context, task func()) error,
	eval func(ctx context.Context, i int) (T, error),
	commit func(i int, v T) error) error {
	if n <= 0 {
		return nil
	}
	window = min(max(window, 1), n)
	type result struct {
		i   int
		v   T
		err error
	}
	// At most window indices are claimed and uncommitted at once, so a
	// task delivering its result never blocks.
	results := make(chan result, window)
	tctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	defer func() {
		cancel()
		wg.Wait()
	}()

	// Results waiting for their turn, in a ring indexed by i % window.
	pending := make([]*result, window)
	next, committed := 0, 0 // next index to claim, next to commit
	failed := false
	for {
		for committed < next && pending[committed%window] != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
			r := pending[committed%window]
			pending[committed%window] = nil
			if r.err != nil {
				return r.err
			}
			if err := commit(committed, r.v); err != nil {
				return err
			}
			committed++
		}
		if committed == n {
			return nil
		}
		if !failed && next < n && next < committed+window && ctx.Err() == nil {
			i := next
			next++
			wg.Add(1)
			err := exec(tctx, func() {
				defer wg.Done()
				v, err := call(tctx, i, eval)
				results <- result{i, v, err}
			})
			if err != nil {
				wg.Done()
				pending[i%window] = &result{i: i, err: err}
				failed = true
			}
			continue
		}
		if next == committed {
			// Nothing in flight and nothing left to claim: only a
			// cancelled ctx stops a run with no failure.
			return ctx.Err()
		}
		r := <-results
		pending[r.i%window] = &r
		failed = failed || r.err != nil
	}
}

// call runs eval for one index, turning a panic into an error: on a
// goroutine or pool worker an unrecovered panic would end the whole
// process.
func call[T any](ctx context.Context, i int, eval func(context.Context, int) (T, error)) (v T, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("ordered: item %d panicked: %v", i, p)
		}
	}()
	return eval(ctx, i)
}
