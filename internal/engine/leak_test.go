package engine

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/counters"
)

// This file is the goroutine-leak regression suite for EvaluateEach, the
// evaluation core counterpointd exposes to the network: every way a run
// can be walked away from — cancelled from its own callback mid-flight,
// or orphaned by a client disconnect while the callback is stuck writing
// — must return promptly and leave no goroutine behind once the call
// returns, since a long-lived service pays for every leak on every
// request.

// settleGoroutines waits for the goroutine count to drop back to baseline,
// failing with a full stack dump if it never does.
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

// leakCorpus is large enough that a run is still in flight when it is
// walked away from.
func leakCorpus(n int) []*counters.Observation {
	corpus := make([]*counters.Observation, n)
	for i := range corpus {
		corpus[i] = obsAround(fmt.Sprintf("obs-%d", i), 500, 100, 40, int64(i))
	}
	return corpus
}

// TestStreamLeakMidStreamCancel cancels from the callback while later
// multi-observation chunks are still mid-evaluation: the run must stop
// with context.Canceled and leave only the pool's own workers behind.
func TestStreamLeakMidStreamCancel(t *testing.T) {
	baseline := runtime.NumGoroutine()
	e := New(WithWorkers(2))
	s, err := e.NewSession(pdeModel(t), Config{BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	corpus := leakCorpus(512)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := s.EvaluateEach(ctx, corpus, func(i int, v *core.Verdict, err error) {
		if err != nil {
			t.Fatal(err)
		}
		if i >= 3 {
			cancel()
		}
	})
	if err != context.Canceled {
		t.Fatalf("EvaluateEach error = %v, want context.Canceled", err)
	}
	if res.Total == len(corpus) {
		t.Fatal("cancellation did not stop the run")
	}
	settleGoroutines(t, baseline+e.Workers())
	e.Close()
	settleGoroutines(t, baseline)
}

// TestStreamLeakServerDisconnect models the service shape: the run's
// context is a request context cancelled by another goroutine when the
// client goes away, while the handler's callback is stuck on the dead
// connection. The handler must unwind with context.Canceled and the
// engine's internals with it.
func TestStreamLeakServerDisconnect(t *testing.T) {
	baseline := runtime.NumGoroutine()
	e := New(WithWorkers(2))
	s, err := e.NewSession(pdeModel(t), Config{BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	reqCtx, disconnect := context.WithCancel(context.Background())
	defer disconnect()
	corpus := leakCorpus(512)
	vanished := make(chan struct{})
	go func() {
		<-vanished
		disconnect() // client vanished mid-response
	}()
	handlerDone := make(chan error, 1)
	go func() {
		// The handler: write each verdict until the run ends — exactly
		// what the NDJSON endpoint does.
		n := 0
		_, err := s.EvaluateEach(reqCtx, corpus, func(i int, v *core.Verdict, err error) {
			n++
			if n == 4 {
				close(vanished)
				<-reqCtx.Done() // the write blocks until the disconnect lands
			}
		})
		handlerDone <- err
	}()
	select {
	case err := <-handlerDone:
		if err != context.Canceled {
			t.Fatalf("handler result error = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("handler never unwound after the disconnect")
	}
	settleGoroutines(t, baseline+e.Workers())
	e.Close()
	settleGoroutines(t, baseline)
}
