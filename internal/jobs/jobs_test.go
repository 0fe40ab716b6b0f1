package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// blockingRunner returns a runner that signals started, then parks until
// release closes or its context ends.
func blockingRunner(started chan<- string, release <-chan struct{}) Runner {
	return func(ctx context.Context, job *Job) (any, error) {
		if started != nil {
			started <- job.ID
		}
		select {
		case <-release:
			return "ok", nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

func TestSubmitRunsToCompletion(t *testing.T) {
	m := NewManager(Options{})
	defer m.Close()
	j, err := m.Submit("test", func(ctx context.Context, job *Job) (any, error) {
		job.Emit("progress", map[string]int{"step": 1})
		return 42, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := j.Status()
	if st.State != StateDone || st.Result != 42 || st.Events != 2 {
		t.Fatalf("status: %+v", st)
	}
	if st.Started == nil || st.Finished == nil {
		t.Fatalf("timestamps missing: %+v", st)
	}
}

// TestBoundedConcurrency pins the job-slot semantics: with one slot, a
// second submission stays queued until the first finishes.
func TestBoundedConcurrency(t *testing.T) {
	m := NewManager(Options{MaxConcurrent: 1})
	defer m.Close()
	started := make(chan string, 2)
	release := make(chan struct{})
	j1, _ := m.Submit("test", blockingRunner(started, release))
	j2, _ := m.Submit("test", blockingRunner(started, release))
	if id := <-started; id != j1.ID {
		t.Fatalf("first started: %s", id)
	}
	// j2 must hold at queued: no second start signal while j1 runs.
	select {
	case id := <-started:
		t.Fatalf("job %s started beyond the slot bound", id)
	case <-time.After(50 * time.Millisecond):
	}
	if st := j2.State(); st != StateQueued {
		t.Fatalf("second job state: %s", st)
	}
	close(release)
	if err := j1.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := j2.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if id := <-started; id != j2.ID {
		t.Fatalf("second started: %s", id)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	m := NewManager(Options{MaxConcurrent: 1})
	defer m.Close()
	release := make(chan struct{})
	defer close(release)
	started := make(chan string, 1)
	m.Submit("test", blockingRunner(started, release))
	<-started
	j2, _ := m.Submit("test", blockingRunner(nil, release))
	if err := m.Cancel(j2.ID); err != nil {
		t.Fatal(err)
	}
	if err := j2.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("wait: %v", err)
	}
	if st := j2.State(); st != StateCancelled {
		t.Fatalf("state: %s", st)
	}
	if st := j2.Status(); st.Started != nil {
		t.Fatal("cancelled-while-queued job should never start")
	}
}

func TestCancelRunningJob(t *testing.T) {
	m := NewManager(Options{})
	defer m.Close()
	started := make(chan string, 1)
	j, _ := m.Submit("test", blockingRunner(started, nil))
	<-started
	if err := m.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("wait: %v", err)
	}
	if st := j.State(); st != StateCancelled {
		t.Fatalf("state: %s", st)
	}
}

func TestPanickingRunnerFailsJob(t *testing.T) {
	m := NewManager(Options{})
	defer m.Close()
	j, _ := m.Submit("test", func(ctx context.Context, job *Job) (any, error) {
		job.SetCheckpoint("salvaged")
		panic("boom")
	})
	j.Wait(context.Background())
	st := j.Status()
	if st.State != StateFailed || st.Error == "" {
		t.Fatalf("status: %+v", st)
	}
	if cp, _ := j.Checkpoint().(string); cp != "salvaged" {
		t.Fatalf("checkpoint lost across panic: %v", j.Checkpoint())
	}
}

func TestEventsReplayAndLive(t *testing.T) {
	m := NewManager(Options{})
	defer m.Close()
	gate := make(chan struct{})
	j, _ := m.Submit("test", func(ctx context.Context, job *Job) (any, error) {
		job.Emit("early", nil)
		<-gate
		job.Emit("late", nil)
		return nil, nil
	})
	// Subscribe after the first event: it must be replayed, then the live
	// events and the terminal marker delivered, then the channel closed.
	var kinds []string
	ch := j.Events(context.Background(), 0)
	if ev := <-ch; ev.Kind != "early" || ev.Seq != 0 {
		t.Fatalf("first event: %+v", ev)
	}
	close(gate)
	for ev := range ch {
		kinds = append(kinds, ev.Kind)
	}
	if fmt.Sprint(kinds) != "[late done]" {
		t.Fatalf("events after replay: %v", kinds)
	}
	// A from= subscription skips the replayed prefix.
	var tail []string
	for ev := range j.Events(context.Background(), 2) {
		tail = append(tail, ev.Kind)
	}
	if fmt.Sprint(tail) != "[done]" {
		t.Fatalf("from=2 events: %v", tail)
	}
}

// TestLogBoundedReplay pins a bounded log (a live stream's): past its
// limit the oldest events leave, Seq keeps counting, a subscriber from an
// evicted Seq starts at the oldest retained event, and appends after the
// terminal event are dropped.
func TestLogBoundedReplay(t *testing.T) {
	l := NewLog(3)
	for i := 0; i < 100; i++ {
		l.Append("tick", i, false, nil)
	}
	l.Append("closed", nil, true, nil)
	l.Append("late", nil, false, nil)
	if n := l.Len(); n != 101 {
		t.Fatalf("Len %d, want 101", n)
	}
	if err := l.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, from := range []int{0, 98, 99, 100, 101} {
		var seqs []int
		for ev := range l.Events(context.Background(), from) {
			seqs = append(seqs, ev.Seq)
		}
		want := map[int]string{0: "[98 99 100]", 98: "[98 99 100]", 99: "[99 100]", 100: "[100]", 101: "[]"}[from]
		if fmt.Sprint(seqs) != want {
			t.Fatalf("from=%d: seqs %v, want %s", from, seqs, want)
		}
	}

	// Live: subscribers following a bounded log while it is appended to
	// see strictly increasing Seqs (gaps allowed) ending in the terminal.
	l = NewLog(4)
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		ch := l.Events(context.Background(), 0)
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := Event{Seq: -1}
			for ev := range ch {
				if ev.Seq <= last.Seq {
					t.Errorf("seq %d after %d", ev.Seq, last.Seq)
				}
				last = ev
			}
			if last.Kind != "closed" || last.Seq != 1000 {
				t.Errorf("last event %+v, want closed at seq 1000", last)
			}
		}()
	}
	for i := 0; i < 1000; i++ {
		l.Append("tick", i, false, nil)
	}
	l.Append("closed", nil, true, nil)
	wg.Wait()
}

func TestEventsSubscriberCancel(t *testing.T) {
	m := NewManager(Options{})
	defer m.Close()
	started := make(chan string, 1)
	release := make(chan struct{})
	j, _ := m.Submit("test", blockingRunner(started, release))
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	ch := j.Events(ctx, 0)
	cancel()
	for range ch {
	}
	// The subscription must close promptly even though the job runs on.
	if st := j.State(); st != StateRunning {
		t.Fatalf("job state changed by subscriber cancel: %s", st)
	}
	close(release)
	j.Wait(context.Background())
}

// TestRetentionRing pins the retained-result ring: past MaxRetained, the
// oldest finished job is evicted and becomes unknown.
func TestRetentionRing(t *testing.T) {
	m := NewManager(Options{MaxRetained: 2})
	defer m.Close()
	var ids []string
	for i := 0; i < 4; i++ {
		j, err := m.Submit("test", func(ctx context.Context, job *Job) (any, error) { return i, nil })
		if err != nil {
			t.Fatal(err)
		}
		j.Wait(context.Background())
		ids = append(ids, j.ID)
	}
	list := m.List()
	if len(list) != 2 {
		t.Fatalf("retained %d jobs, want 2: %+v", len(list), list)
	}
	if _, ok := m.Get(ids[0]); ok {
		t.Fatal("oldest job should be evicted")
	}
	if _, ok := m.Get(ids[3]); !ok {
		t.Fatal("newest job should be retained")
	}
}

// TestRetentionTTL expires finished jobs by age using the clock hook.
func TestRetentionTTL(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1000, 0)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	m := NewManager(Options{RetainFor: time.Minute, now: clock})
	defer m.Close()
	j, _ := m.Submit("test", func(ctx context.Context, job *Job) (any, error) { return nil, nil })
	j.Wait(context.Background())
	if _, ok := m.Get(j.ID); !ok {
		t.Fatal("fresh job should be retained")
	}
	mu.Lock()
	now = now.Add(2 * time.Minute)
	mu.Unlock()
	if _, ok := m.Get(j.ID); ok {
		t.Fatal("expired job should be dropped")
	}
}

func TestRemove(t *testing.T) {
	m := NewManager(Options{})
	defer m.Close()
	started := make(chan string, 1)
	release := make(chan struct{})
	j, _ := m.Submit("test", blockingRunner(started, release))
	<-started
	if err := m.Remove(j.ID); !errors.Is(err, ErrActive) {
		t.Fatalf("removing a running job: %v", err)
	}
	close(release)
	j.Wait(context.Background())
	if err := m.Remove(j.ID); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Get(j.ID); ok {
		t.Fatal("removed job still visible")
	}
	if err := m.Remove(j.ID); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("double remove: %v", err)
	}
}

func TestCloseCancelsEverything(t *testing.T) {
	m := NewManager(Options{MaxConcurrent: 1})
	started := make(chan string, 1)
	j1, _ := m.Submit("test", blockingRunner(started, nil))
	j2, _ := m.Submit("test", blockingRunner(nil, nil))
	<-started
	m.Close()
	if st := j1.State(); st != StateCancelled {
		t.Fatalf("running job after close: %s", st)
	}
	if st := j2.State(); st != StateCancelled {
		t.Fatalf("queued job after close: %s", st)
	}
	if _, err := m.Submit("test", blockingRunner(nil, nil)); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v", err)
	}
}

// TestQueueBackpressure pins the submission bound: MaxQueued waiting jobs
// reject further submissions with ErrQueueFull instead of pinning their
// payloads without limit.
func TestQueueBackpressure(t *testing.T) {
	m := NewManager(Options{MaxConcurrent: 1, MaxQueued: 2})
	defer m.Close()
	started := make(chan string, 1)
	release := make(chan struct{})
	defer close(release)
	m.Submit("test", blockingRunner(started, release))
	<-started
	for i := 0; i < 2; i++ {
		if _, err := m.Submit("test", blockingRunner(nil, release)); err != nil {
			t.Fatalf("queued submission %d: %v", i, err)
		}
	}
	if _, err := m.Submit("test", blockingRunner(nil, release)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-queue submission: %v", err)
	}
}

func TestUnknownJobErrors(t *testing.T) {
	m := NewManager(Options{})
	defer m.Close()
	if err := m.Cancel("j999999"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("cancel: %v", err)
	}
	if _, err := m.ResumeExplore("j999999"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("resume: %v", err)
	}
}
