package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/explore"
)

// recordingJournal is an in-memory jobs.Journal that logs the call
// sequence — the panic-containment tests assert that panicking runners
// still drive the full durability protocol (final checkpoint, terminal
// event, terminal record) through it.
type recordingJournal struct {
	mu  sync.Mutex
	ops []string // "submit:<id>", "event:<id>:<kind>", "checkpoint:<id>", "finished:<id>:<state>"

	lastCheckpoint map[string]any
	finishedState  map[string]State
	finishedErr    map[string]string
}

func newRecordingJournal() *recordingJournal {
	return &recordingJournal{
		lastCheckpoint: map[string]any{},
		finishedState:  map[string]State{},
		finishedErr:    map[string]string{},
	}
}

func (r *recordingJournal) JobSubmitted(id, kind, resumedFrom string, created time.Time, spec any) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops = append(r.ops, "submit:"+id)
	return nil
}

func (r *recordingJournal) JobEvent(id string, ev Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops = append(r.ops, "event:"+id+":"+ev.Kind)
}

func (r *recordingJournal) JobCheckpoint(id string, cp any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops = append(r.ops, "checkpoint:"+id)
	r.lastCheckpoint[id] = cp
}

func (r *recordingJournal) JobFinished(id string, state State, errMsg string, result any, started, finished time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops = append(r.ops, "finished:"+id+":"+string(state))
	r.finishedState[id] = state
	r.finishedErr[id] = errMsg
}

func (r *recordingJournal) JobRemoved(id string) {}

// lastIndex returns the position of the last op with the given prefix,
// or -1.
func (r *recordingJournal) lastIndex(prefix string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := len(r.ops) - 1; i >= 0; i-- {
		if strings.HasPrefix(r.ops[i], prefix) {
			return i
		}
	}
	return -1
}

// TestSweepPanicStillJournalsCheckpointAndTerminal: a runner panic is
// contained to its job, and the exit path still writes the final
// checkpoint and the terminal journal record — so a journaled daemon
// can resume the wreckage. The resumed run must be bit-identical to an
// uninterrupted one.
func TestSweepPanicStillJournalsCheckpointAndTerminal(t *testing.T) {
	ctx := context.Background()
	eng := engine.New()
	defer eng.Close()
	jr := newRecordingJournal()
	var gate cellHook
	m := NewManager(Options{Journal: jr, AfterSweepCell: gate.hook})
	defer m.Close()

	ref, err := m.SubmitSweep(testSweepSpec(eng))
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(ref.Result().(*SweepResult).Cells)
	if err != nil {
		t.Fatal(err)
	}

	gate.arm(2, func() { panic("sweep cell detonated") })
	j, err := m.SubmitSweep(testSweepSpec(eng))
	if err != nil {
		t.Fatal(err)
	}
	err = j.Wait(ctx)
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panicking sweep finished with err = %v, want contained panic", err)
	}
	if j.State() != StateFailed {
		t.Fatalf("state = %s, want failed", j.State())
	}

	// The journal saw the protocol through: last checkpoint holds the
	// three committed cells, the terminal "failed" event and the terminal
	// record landed after it.
	cp, ok := jr.lastCheckpoint[j.ID].([]SweepCell)
	if !ok || len(cp) != 3 {
		t.Fatalf("journaled checkpoint = %T len %d, want 3 cells", jr.lastCheckpoint[j.ID], len(cp))
	}
	if st := jr.finishedState[j.ID]; st != StateFailed {
		t.Fatalf("journaled terminal state = %s, want failed", st)
	}
	if msg := jr.finishedErr[j.ID]; !strings.Contains(msg, "panicked") {
		t.Fatalf("journaled terminal error = %q", msg)
	}
	ci := jr.lastIndex("checkpoint:" + j.ID)
	ei := jr.lastIndex("event:" + j.ID + ":failed")
	fi := jr.lastIndex("finished:" + j.ID)
	if ci < 0 || ei < 0 || fi < 0 || ci > ei || ei > fi {
		t.Fatalf("journal order: checkpoint@%d failed-event@%d finished@%d", ci, ei, fi)
	}

	// The manager survived the panic and resumes the job bit-identically
	// (the panic hook disarmed itself when it fired).
	r, err := m.ResumeSweep(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Wait(ctx); err != nil {
		t.Fatalf("resumed sweep failed: %v", err)
	}
	got, err := json.Marshal(r.Result().(*SweepResult).Cells)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("resumed cells diverge:\nwant %s\ngot  %s", want, got)
	}
}

// TestExplorePanicMidFrontierResumesBitIdentically: same contract for
// exploration — a Builder that panics mid-frontier fails only its job,
// the committed search graph is checkpointed on the panic exit path, and
// the resumed search finishes bit-identical to an uninterrupted run.
func TestExplorePanicMidFrontierResumesBitIdentically(t *testing.T) {
	ctx := context.Background()
	jr := newRecordingJournal()
	m := NewManager(Options{Journal: jr})
	defer m.Close()

	ref, err := m.SubmitExplore(testSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(ref.Result())
	if err != nil {
		t.Fatal(err)
	}

	// Panic on the third model build ever — mid-frontier, after some
	// nodes have committed. Resumed runs restore those nodes instead of
	// rebuilding them, so the counter never reaches 3 again.
	var builds atomic.Int64
	spec := testSpec(2)
	inner := spec.Builder
	spec.Builder = func(fs explore.FeatureSet) (*core.Model, error) {
		if builds.Add(1) == 3 {
			panic("builder detonated")
		}
		return inner(fs)
	}
	spec.Workers = 1
	j, err := m.SubmitExplore(spec)
	if err != nil {
		t.Fatal(err)
	}
	err = j.Wait(ctx)
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panicking explore finished with err = %v, want contained panic", err)
	}

	cp, ok := jr.lastCheckpoint[j.ID].([]*explore.Node)
	if !ok || len(cp) == 0 {
		t.Fatalf("journaled checkpoint = %T len %d, want committed nodes", jr.lastCheckpoint[j.ID], len(cp))
	}
	if st := jr.finishedState[j.ID]; st != StateFailed {
		t.Fatalf("journaled terminal state = %s, want failed", st)
	}
	ci := jr.lastIndex("checkpoint:" + j.ID)
	fi := jr.lastIndex("finished:" + j.ID)
	if ci < 0 || fi < 0 || ci > fi {
		t.Fatalf("journal order: checkpoint@%d finished@%d", ci, fi)
	}

	r, err := m.ResumeExplore(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Wait(ctx); err != nil {
		t.Fatalf("resumed explore failed: %v", err)
	}
	got, err := json.Marshal(r.Result())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("resumed explore result diverges:\nwant %s\ngot  %s", want, got)
	}
}
