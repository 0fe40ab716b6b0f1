// Package jobs runs CounterPoint's long-lived asynchronous work — guided
// exploration searches above all — behind a small job manager: submit,
// status, cancel, list; bounded concurrent execution with a bounded
// waiting queue (ErrQueueFull is the backpressure signal); a
// retained-result ring with a TTL so finished jobs stay queryable without
// growing without bound; and a per-job event log whose subscribers replay
// the full history before receiving live events.
//
// The manager is deliberately generic — a Job runs any Runner — while
// explore.go in this package provides the exploration-specific glue:
// progress-event forwarding, search-graph checkpointing after every
// committed node, and resume-from-checkpoint for cancelled or crashed
// jobs. internal/server puts the manager behind HTTP (POST /v1/explore,
// GET /v1/jobs, ...), which is how counterpointd serves the paper's §5 /
// Appendix C workflow to clients without a Go toolchain.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// State is a job's lifecycle phase.
type State string

// Job lifecycle states.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Event is one record in a Log: a job's progress, or a live stream's
// verdicts. A job's log is retained for the life of the job, so late
// subscribers replay the full history; Seq is the event's position in it.
// The job's terminal state is appended as a final event (kind "done",
// "failed" or "cancelled") so streaming consumers get closure in-band.
type Event struct {
	Seq  int    `json:"seq"`
	Kind string `json:"kind"`
	Data any    `json:"data,omitempty"`
}

// Runner is the work a job performs. It must honour ctx — cancellation is
// the manager's only way to stop it — and may report progress through
// job.Emit and record resumable state through job.SetCheckpoint. The
// returned value becomes the job's result. A panicking runner fails its
// job (with the panic recorded as the error) instead of taking the process
// down; its checkpoint survives for resumption.
type Runner func(ctx context.Context, job *Job) (any, error)

// Manager errors.
var (
	// ErrUnknownJob reports a lookup of an id that was never submitted or
	// has already been evicted from the retained ring.
	ErrUnknownJob = errors.New("jobs: unknown job")
	// ErrClosed is returned by Submit after Close.
	ErrClosed = errors.New("jobs: manager closed")
	// ErrActive reports an operation that needs a terminal job (Remove,
	// resume) applied to one still queued or running.
	ErrActive = errors.New("jobs: job is still active")
	// ErrQueueFull rejects a submission when MaxQueued jobs are already
	// waiting — the manager's backpressure signal.
	ErrQueueFull = errors.New("jobs: queue is full")
	// ErrJournal wraps a journal failure on the submission path: the job
	// was NOT accepted, because accepting it without a durable spec would
	// silently downgrade the durability contract. Callers should retry
	// later (the server maps it to 503 + Retry-After).
	ErrJournal = errors.New("jobs: journal write failed")
)

// Journal receives every durable lifecycle transition of a manager's
// jobs; internal/jobstore implements it over an append-only checksummed
// file. JobSubmitted is the only call that can veto (a submission is
// acked only once its spec is durable); the rest are best-effort — a
// failing journal degrades to in-memory operation rather than stopping
// running jobs (the store surfaces its own health separately).
//
// Specs are passed as submitted. A spec that implements
//
//	DurableSpec() (any, bool)
//
// is journaled via that wire form (ExploreSpec's closures, for example,
// are rebuilt from ExploreWire on recovery); other specs are journaled
// as-is if they marshal, or as null.
type Journal interface {
	// JobSubmitted records a new job. An error rejects the submission.
	JobSubmitted(id, kind, resumedFrom string, created time.Time, spec any) error
	// JobEvent records one appended event (terminal events included).
	JobEvent(id string, ev Event)
	// JobCheckpoint records the latest resumable state. Implementations
	// may coalesce bursts; the pending checkpoint must still be made
	// durable no later than the job's JobFinished record.
	JobCheckpoint(id string, cp any)
	// JobFinished records the terminal outcome. errMsg is empty on
	// success.
	JobFinished(id string, state State, errMsg string, result any, started, finished time.Time)
	// JobRemoved records that a job left the retained ring (expiry or
	// DELETE); recovery must not re-list it.
	JobRemoved(id string)
}

// Default Options values.
const (
	DefaultMaxConcurrent = 2
	DefaultMaxQueued     = 32
	DefaultMaxRetained   = 64
	DefaultRetainFor     = time.Hour
)

// Options configures a Manager.
type Options struct {
	// MaxConcurrent bounds simultaneously running jobs; submissions beyond
	// it queue and run in strict submission order. 0 means
	// DefaultMaxConcurrent.
	MaxConcurrent int
	// MaxQueued bounds the waiting queue: submissions beyond it fail with
	// ErrQueueFull instead of pinning their payloads (an exploration
	// job's spec holds its whole uploaded corpus) without bound. 0 means
	// DefaultMaxQueued.
	MaxQueued int
	// MaxRetained bounds the ring of finished jobs kept for status and
	// result queries; the oldest finished job is evicted first. 0 means
	// DefaultMaxRetained.
	MaxRetained int
	// RetainFor expires finished jobs even before the ring fills. 0 means
	// DefaultRetainFor.
	RetainFor time.Duration
	// Journal, when set, receives every durable lifecycle transition
	// (counterpointd wires internal/jobstore here behind -job-db). nil
	// keeps the manager purely in-memory.
	Journal Journal
	// AfterSweepCell, when set, runs on the sweep runner's goroutine after
	// each committed grid cell, once the cell's event is emitted and
	// checkpointed: a test hook that holds a scan at a known cell, so a
	// cancellation lands mid-grid by construction. Production leaves it
	// nil.
	AfterSweepCell func(index int)

	// now is the test hook for retention-TTL clocks.
	now func() time.Time
}

func (o Options) withDefaults() Options {
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = DefaultMaxConcurrent
	}
	if o.MaxQueued <= 0 {
		o.MaxQueued = DefaultMaxQueued
	}
	if o.MaxRetained <= 0 {
		o.MaxRetained = DefaultMaxRetained
	}
	if o.RetainFor <= 0 {
		o.RetainFor = DefaultRetainFor
	}
	if o.now == nil {
		o.now = time.Now
	}
	return o
}

// Manager owns a set of jobs. Create with NewManager; it is safe for
// concurrent use. Close cancels everything and waits for runners to exit.
type Manager struct {
	opts   Options
	ctx    context.Context
	cancel context.CancelFunc

	// sweep accumulates batched-sweep dedup telemetry across every sweep
	// job of this manager (surfaced by SweepStats / GET /stats).
	sweep sweepStats

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []*Job // submission order, live + retained
	retained []*Job // terminal jobs, oldest first
	queue    []*Job // submitted but not yet granted an execution slot
	running  int
	nextID   int
	closed   bool
	wg       sync.WaitGroup
}

// NewManager builds a manager from opts.
func NewManager(opts Options) *Manager {
	opts = opts.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	return &Manager{
		opts:   opts,
		ctx:    ctx,
		cancel: cancel,
		jobs:   map[string]*Job{},
	}
}

// Submit queues a job running run and returns it immediately. kind labels
// the job in listings ("explore", ...).
func (m *Manager) Submit(kind string, run Runner) (*Job, error) {
	return m.submit(kind, run, nil, "")
}

func (m *Manager) submit(kind string, run Runner, spec any, resumedFrom string) (*Job, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	if len(m.queue) >= m.opts.MaxQueued {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w (%d waiting)", ErrQueueFull, len(m.queue))
	}
	m.nextID++
	id := fmt.Sprintf("j%06d", m.nextID)
	created := m.opts.now()
	m.mu.Unlock()

	// Durability gate, outside m.mu (the journal fsyncs): the submission
	// is acked only once its spec is on disk, so a crash can never lose a
	// job the client was told exists. The ID is already reserved; a
	// failed journal write burns it, which is harmless.
	if m.opts.Journal != nil {
		if err := m.opts.Journal.JobSubmitted(id, kind, resumedFrom, created, spec); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrJournal, err)
		}
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		if m.opts.Journal != nil {
			m.opts.Journal.JobRemoved(id)
		}
		return nil, ErrClosed
	}
	ctx, cancel := context.WithCancel(m.ctx)
	j := &Job{
		ID:          id,
		Kind:        kind,
		ctx:         ctx,
		cancel:      cancel,
		run:         run,
		state:       StateQueued,
		log:         NewLog(0),
		start:       make(chan struct{}),
		created:     created,
		spec:        spec,
		resumedFrom: resumedFrom,
		journal:     m.opts.Journal,
	}
	m.jobs[j.ID] = j
	m.order = append(m.order, j)
	m.queue = append(m.queue, j)
	m.dispatchLocked()
	m.expireLocked()
	m.wg.Add(1)
	m.mu.Unlock()
	go m.runJob(j)
	return j, nil
}

// dispatchLocked grants execution slots to queued jobs in strict
// submission order. Called under m.mu whenever a slot frees or the queue
// grows.
func (m *Manager) dispatchLocked() {
	for m.running < m.opts.MaxConcurrent && len(m.queue) > 0 {
		j := m.queue[0]
		m.queue = m.queue[1:]
		m.running++
		close(j.start)
	}
}

// runJob waits for an execution slot, runs the job, and retires it.
func (m *Manager) runJob(j *Job) {
	defer m.wg.Done()
	select {
	case <-j.start:
	case <-j.ctx.Done():
		// Cancelled (or the manager closed) while queued — unless the
		// dispatcher granted the slot in the same instant, in which case
		// the grant wins and the cancellation is handled below.
		m.mu.Lock()
		granted := false
		select {
		case <-j.start:
			granted = true
		default:
			for i, q := range m.queue {
				if q == j {
					m.queue = append(m.queue[:i], m.queue[i+1:]...)
					break
				}
			}
		}
		m.mu.Unlock()
		if !granted {
			m.retire(j, nil, j.ctx.Err())
			return
		}
	}
	defer func() {
		m.mu.Lock()
		m.running--
		m.dispatchLocked()
		m.mu.Unlock()
	}()
	if err := j.ctx.Err(); err != nil {
		// Cancelled between the slot grant and here: never run.
		m.retire(j, nil, err)
		return
	}
	j.setRunning(m.opts.now())
	var (
		res any
		err error
	)
	func() {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("jobs: job %s panicked: %v", j.ID, p)
			}
		}()
		res, err = j.run(j.ctx, j)
	}()
	m.retire(j, res, err)
}

// retire finalises the job and moves it into the retained ring — unless a
// caller raced us and already Removed it (the job turns terminal in
// finalize, before this lock, so a fast DELETE can land in between); a
// removed job must not re-enter the ring as an unlistable ghost.
func (m *Manager) retire(j *Job, res any, err error) {
	j.finalize(res, err, m.opts.now())
	m.mu.Lock()
	if _, ok := m.jobs[j.ID]; ok {
		m.retained = append(m.retained, j)
		m.expireLocked()
	}
	m.mu.Unlock()
}

// expireLocked enforces the retained ring's cap and TTL. Called under
// m.mu from every mutation and listing, so expiry needs no background
// goroutine.
func (m *Manager) expireLocked() {
	cutoff := m.opts.now().Add(-m.opts.RetainFor)
	drop := 0
	for _, j := range m.retained {
		if len(m.retained)-drop > m.opts.MaxRetained || j.FinishedAt().Before(cutoff) {
			drop++
			continue
		}
		break
	}
	if drop == 0 {
		return
	}
	dropped := map[string]bool{}
	for _, j := range m.retained[:drop] {
		dropped[j.ID] = true
		delete(m.jobs, j.ID)
		if m.opts.Journal != nil {
			m.opts.Journal.JobRemoved(j.ID)
		}
	}
	m.retained = append([]*Job(nil), m.retained[drop:]...)
	keep := m.order[:0]
	for _, j := range m.order {
		if !dropped[j.ID] {
			keep = append(keep, j)
		}
	}
	m.order = keep
}

// Get returns the job with the given id, if it is live or still retained.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.expireLocked()
	j, ok := m.jobs[id]
	return j, ok
}

// Len counts the live and retained jobs (after expiry) without building
// status snapshots — the cheap form for health gauges.
func (m *Manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.expireLocked()
	return len(m.jobs)
}

// List returns a status snapshot of every live and retained job in
// submission order.
func (m *Manager) List() []Status {
	m.mu.Lock()
	m.expireLocked()
	jobs := append([]*Job(nil), m.order...)
	m.mu.Unlock()
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	return out
}

// Cancel cancels the job with the given id. Cancelling a queued job
// retires it without running; cancelling a running job ends its context
// and lets the runner unwind. Cancelling a terminal job is a no-op.
func (m *Manager) Cancel(id string) error {
	j, ok := m.Get(id)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	j.cancel()
	return nil
}

// Remove drops a terminal job from the retained ring (its events and
// result become unreachable). Cancel active jobs first.
func (m *Manager) Remove(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	if !j.State().Terminal() {
		return fmt.Errorf("%w: %s is %s", ErrActive, id, j.State())
	}
	delete(m.jobs, id)
	for i, r := range m.retained {
		if r.ID == id {
			m.retained = append(m.retained[:i:i], m.retained[i+1:]...)
			break
		}
	}
	for i, r := range m.order {
		if r.ID == id {
			m.order = append(m.order[:i:i], m.order[i+1:]...)
			break
		}
	}
	if m.opts.Journal != nil {
		m.opts.Journal.JobRemoved(id)
	}
	return nil
}

// AdoptedJob is a terminal job reconstructed from a durable journal,
// handed to Adopt by the recovery path (jobstore.Recover) so a restarted
// daemon re-lists its pre-crash jobs with their original IDs, events and
// results.
type AdoptedJob struct {
	ID          string
	Kind        string
	State       State // must be terminal
	Error       string
	Result      any
	Spec        any
	Checkpoint  any
	Events      []Event
	Created     time.Time
	Started     time.Time
	Finished    time.Time
	ResumedFrom string
}

// Adopt installs a recovered terminal job into the manager's retained
// ring without running anything. The job is marked restored in its
// Status, keeps its journaled ID (the ID counter advances past it so new
// submissions never collide), and behaves like any other finished job:
// queryable, streamable (the journaled history replays), resumable via
// Resume when its spec and checkpoint were rebuilt, and subject to the
// ring's cap and TTL.
func (m *Manager) Adopt(a AdoptedJob) (*Job, error) {
	if !a.State.Terminal() {
		return nil, fmt.Errorf("jobs: adopt %s: state %q is not terminal", a.ID, a.State)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	if _, dup := m.jobs[a.ID]; dup {
		return nil, fmt.Errorf("jobs: adopt %s: id already present", a.ID)
	}
	var n int
	if _, err := fmt.Sscanf(a.ID, "j%06d", &n); err == nil && n > m.nextID {
		m.nextID = n
	}
	// Pre-cancelled context: the job never runs, Cancel is a no-op.
	ctx, cancel := context.WithCancel(m.ctx)
	cancel()
	var jerr error
	if a.Error != "" {
		jerr = errors.New(a.Error)
	}
	log := NewLog(0)
	log.events, log.next, log.terminal = append([]Event(nil), a.Events...), len(a.Events), true
	j := &Job{
		ID:          a.ID,
		Kind:        a.Kind,
		ctx:         ctx,
		cancel:      cancel,
		journal:     m.opts.Journal,
		restored:    true,
		state:       a.State,
		err:         jerr,
		result:      a.Result,
		log:         log,
		created:     a.Created,
		started:     a.Started,
		finished:    a.Finished,
		checkpoint:  a.Checkpoint,
		spec:        a.Spec,
		resumedFrom: a.ResumedFrom,
	}
	m.jobs[j.ID] = j
	m.order = append(m.order, j)
	m.retained = append(m.retained, j)
	// A job that outlived its TTL or the ring's cap while the daemon was
	// down expires right here — normal retention, not an error.
	m.expireLocked()
	return j, nil
}

// Close cancels every job and waits for all runners to exit. Submissions
// after Close fail with ErrClosed. Close is idempotent.
func (m *Manager) Close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.cancel()
	m.wg.Wait()
}

// Job is one submitted unit of work. All methods are safe for concurrent
// use; the exported fields are immutable after creation.
type Job struct {
	ID   string
	Kind string

	ctx    context.Context
	cancel context.CancelFunc
	run    Runner
	start  chan struct{} // closed by the dispatcher when a slot is granted
	// journal mirrors Manager.opts.Journal (nil when not durable);
	// restored marks a job adopted from the journal after a restart.
	journal  Journal
	restored bool

	mu          sync.Mutex
	state       State
	err         error
	result      any
	log         *Log
	created     time.Time
	started     time.Time
	finished    time.Time
	checkpoint  any
	spec        any
	resumedFrom string
}

// Status is a JSON-ready snapshot of a job.
type Status struct {
	ID          string     `json:"id"`
	Kind        string     `json:"kind"`
	State       State      `json:"state"`
	Error       string     `json:"error,omitempty"`
	Events      int        `json:"events"`
	Created     time.Time  `json:"created"`
	Started     *time.Time `json:"started,omitempty"`
	Finished    *time.Time `json:"finished,omitempty"`
	ResumedFrom string     `json:"resumed_from,omitempty"`
	// Restored marks a job recovered from the durable journal after a
	// daemon restart (its events and result are the journaled history).
	Restored bool `json:"restored,omitempty"`
	Result   any  `json:"result,omitempty"`
}

// Status snapshots the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:          j.ID,
		Kind:        j.Kind,
		State:       j.state,
		Events:      j.log.Len(),
		Created:     j.created,
		ResumedFrom: j.resumedFrom,
		Restored:    j.restored,
		Result:      j.result,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	return st
}

// State returns the job's current lifecycle phase.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Err returns the job's terminal error, if any.
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Result returns the runner's result (nil until the job is done).
func (j *Job) Result() any {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// FinishedAt returns when the job reached a terminal state (zero if it
// has not).
func (j *Job) FinishedAt() time.Time {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.finished
}

// Emit appends one progress event to the job's log (the runner-side API).
// Events after the terminal event are dropped.
func (j *Job) Emit(kind string, data any) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var commit func(Event)
	if j.journal != nil {
		commit = func(ev Event) { j.journal.JobEvent(j.ID, ev) }
	}
	j.log.Append(kind, data, false, commit)
}

// SetCheckpoint records the runner's latest resumable state. The
// exploration runner stores the committed search graph here after every
// run, so a cancelled or crashed job can continue from its last completed
// frontier (see Manager.ResumeExplore).
func (j *Job) SetCheckpoint(cp any) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.checkpoint = cp
	if j.journal != nil {
		// The journal may coalesce bursts (sweeps checkpoint per cell);
		// the contract is only that the latest checkpoint is durable by
		// the time the terminal record is.
		j.journal.JobCheckpoint(j.ID, cp)
	}
}

// EmitCheckpoint is Emit followed by SetCheckpoint(cp) as one step: the
// event reaches subscribers only once the journal holds both it and cp,
// so a watcher that saw the event (and then killed the daemon) can count
// on a resume from at least cp, within the journal's checkpoint window.
func (j *Job) EmitCheckpoint(kind string, data, cp any) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.log.Append(kind, data, false, func(ev Event) {
		j.checkpoint = cp
		if j.journal != nil {
			j.journal.JobEvent(j.ID, ev)
			j.journal.JobCheckpoint(j.ID, cp)
		}
	})
}

// Checkpoint returns the latest checkpoint recorded with SetCheckpoint or
// EmitCheckpoint.
func (j *Job) Checkpoint() any {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.checkpoint
}

// Spec returns the submission payload recorded for resumption (nil for
// plain Submit jobs).
func (j *Job) Spec() any {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.spec
}

func (j *Job) setRunning(now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return
	}
	j.state = StateRunning
	j.started = now
}

// finalize classifies the runner's outcome, appends the terminal event,
// and wakes every subscriber.
func (j *Job) finalize(res any, err error, now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	state := StateDone
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		state = StateCancelled
	default:
		state = StateFailed
	}
	var data any
	if err != nil {
		data = map[string]string{"error": err.Error()}
	}
	j.state = state
	j.err = err
	j.result = res
	j.finished = now
	var commit func(Event)
	if j.journal != nil {
		// The terminal record is the commit point: the journal flushes any
		// coalesced checkpoint and fsyncs here, so the panic/cancel exit
		// paths (which SetCheckpoint before unwinding into finalize) land
		// their final frontier durably.
		errMsg := ""
		if err != nil {
			errMsg = err.Error()
		}
		commit = func(ev Event) {
			j.journal.JobEvent(j.ID, ev)
			j.journal.JobFinished(j.ID, state, errMsg, res, j.started, now)
		}
	}
	j.log.Append(string(state), data, true, commit)
}

// Wait blocks until the job reaches a terminal state (returning its error)
// or ctx ends (returning the context error).
func (j *Job) Wait(ctx context.Context) error {
	if err := j.log.Wait(ctx); err != nil {
		return err
	}
	// finalize sets the error and appends the terminal event under j.mu,
	// so once the log is terminal, Err returns the final error.
	return j.Err()
}

// Events streams the job's event log: every event with Seq >= from (the
// full history for from = 0), then live events as they land, closing
// after the terminal event or when ctx ends (see Log.Events).
func (j *Job) Events(ctx context.Context, from int) <-chan Event {
	return j.log.Events(ctx, from)
}
