// Package ordered fans independent evaluations out over a bounded set of
// goroutines and commits their results in index order on the caller's
// goroutine. It is the one worker pool behind the sweep's behaviour
// classes, the exploration frontiers and corpus simulation.
//
// With any worker count, Run commits and returns exactly what this plain
// loop would:
//
//	for i := 0; i < n; i++ {
//		if err := ctx.Err(); err != nil {
//			return err
//		}
//		v, err := eval(ctx, i) // a panic becomes an error
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

// Run evaluates indices 0..n-1 on up to workers goroutines (clamped to
// [1, n]) and calls commit for each on the calling goroutine, in index
// order, as soon as every lower index has committed.
//
// Indices are claimed in ascending order, never more than workers past
// the lowest uncommitted one. The first failure (an eval error, a panic
// inside eval, or a commit error) stops new claims: evaluations already
// in flight finish, every lower index still commits, and Run returns the
// lowest-index failure. Once ctx ends, nothing more is claimed or
// committed and Run returns ctx.Err(). No goroutine outlives Run, even
// when commit panics.
func Run[T any](ctx context.Context, n, workers int,
	eval func(ctx context.Context, i int) (T, error),
	commit func(i int, v T) error) error {
	if n <= 0 {
		return nil
	}
	workers = min(max(workers, 1), n)
	type result struct {
		i   int
		v   T
		err error
	}
	claims := make(chan int)
	// At most workers indices are claimed and uncommitted at once, so
	// delivering a result never blocks.
	results := make(chan result, workers)
	var wg sync.WaitGroup
	defer func() {
		close(claims)
		wg.Wait()
	}()
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range claims {
				v, err := call(ctx, i, eval)
				results <- result{i, v, err}
			}
		}()
	}

	// Results waiting for their turn, in a ring indexed by i % workers.
	pending := make([]*result, workers)
	next, committed := 0, 0 // next index to claim, next to commit
	failed := false
	for {
		for committed < next && pending[committed%workers] != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
			r := pending[committed%workers]
			pending[committed%workers] = nil
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
		var claim chan<- int
		if !failed && next < n && next < committed+workers && ctx.Err() == nil {
			claim = claims
		} else if next == committed {
			// Nothing in flight and nothing left to claim: only a
			// cancelled ctx stops a run with no failure.
			return ctx.Err()
		}
		select {
		case claim <- next:
			next++
		case r := <-results:
			pending[r.i%workers] = &r
			failed = failed || r.err != nil
		}
	}
}

// call runs eval for one index, turning a panic into an error: on a
// worker goroutine an unrecovered panic would end the whole process.
func call[T any](ctx context.Context, i int, eval func(context.Context, int) (T, error)) (v T, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("ordered: item %d panicked: %v", i, p)
		}
	}()
	return eval(ctx, i)
}
