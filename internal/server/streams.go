package server

// The online-refutation stream API: a live ingest tier over
// engine.Session.Test and engine.StreamFold. A stream binds one
// registered model to one evaluation configuration; observations arrive
// as NDJSON lines on POST /v1/streams/{id}/ingest, verdicts and monotone
// stream state flow out as events on GET /v1/streams/{id}/events, and the
// whole lifecycle (create / describe / close, idle-TTL reaping) is
// bounded: a per-stream queue no deeper than the configured high-water
// mark, a bounded jobs.Log (the event log the jobs API uses), and an
// explicit backpressure policy when the producer outruns the solver —
//
//   - "block"  (default): the ingest request stops reading until the
//     queue drains — backpressure propagates to the producer through
//     HTTP flow control;
//   - "drop":   the newest observation is dropped, counted, and reported
//     (a coalesced "dropped" event + the ingest summary + /stats);
//   - "reject": the ingest request fails fast with 429 at the first
//     full-queue line.
//
// Malformed ingest lines are never silently skipped: each one produces a
// per-line "error" event and an entry in the ingest summary. Stream
// verdict state is monotone (feasible → refuted is one-way) and
// bit-identical to a batch evaluation of the same observations — see
// engine.StreamFold and DESIGN.md "Online refutation".

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math/bits"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/engine"
	"repro/internal/jobs"
)

// Stream-tier defaults.
const (
	// DefaultMaxStreams bounds concurrently open streams per server
	// (counterpointd -max-streams); creation beyond it is a 429.
	DefaultMaxStreams = 64
	// DefaultStreamBuffer is the per-stream queue capacity — the
	// high-water mark backpressure engages at (counterpointd
	// -stream-buffer). Per-stream overrides may only shrink it.
	DefaultStreamBuffer = 1024
	// DefaultStreamIdleTTL reaps streams with no ingest activity
	// (counterpointd -stream-ttl): live idle streams are closed, closed
	// ones are removed.
	DefaultStreamIdleTTL = 5 * time.Minute
	// DefaultMaxStreamLineBytes bounds one NDJSON ingest line; an
	// oversized line is a per-line error that ends the request (the line
	// boundary is lost past the cap, so resynchronisation is impossible).
	DefaultMaxStreamLineBytes = 1 << 20
	// streamEventLimit bounds the retained event log per stream; late
	// subscribers to a hot stream replay only the retained tail.
	streamEventLimit = 4096
	// maxReportedLineErrors caps the per-line error detail echoed in one
	// ingest summary; the full count is always reported.
	maxReportedLineErrors = 100
)

// Backpressure policies.
const (
	PolicyBlock  = "block"
	PolicyDrop   = "drop"
	PolicyReject = "reject"
)

// enqueue dispositions.
type disposition int

const (
	dispQueued disposition = iota
	dispDropped
	dispFull   // reject policy: queue full
	dispClosed // stream closed while ingesting
)

// latencyHist is a lock-free log2-bucketed latency histogram: bucket i
// counts durations with bits.Len64(ns) == i, so quantiles resolve to the
// power-of-two upper bound of their bucket — coarse, but allocation-free
// on the hot path and monotone, which is all operational telemetry needs.
// The maximum is tracked exactly.
type latencyHist struct {
	buckets [64]atomic.Uint64
	count   atomic.Uint64
	maxNS   atomic.Uint64
}

func (h *latencyHist) record(d time.Duration) {
	ns := uint64(d)
	if d < 0 {
		ns = 0
	}
	h.buckets[bits.Len64(ns)].Add(1)
	h.count.Add(1)
	for {
		cur := h.maxNS.Load()
		if ns <= cur || h.maxNS.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// quantile returns the upper bound (in ns) of the bucket holding the
// pct-th percentile observation, the one of nearest rank ⌈pct·N/100⌉
// (computed in integers, so no rounding moves the rank), or 0 when
// nothing was recorded. The estimate is clamped to the exact maximum:
// when the quantile lands in the same bucket as the max, the bucket's
// power-of-two bound can exceed every duration actually observed, and a
// p50 above the max reads as nonsense.
func (h *latencyHist) quantile(pct uint64) uint64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	target := (pct*total + 99) / 100
	var cum uint64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if cum >= target {
			if i == 0 {
				return 0
			}
			ub := uint64(1) << i
			if max := h.maxNS.Load(); ub > max {
				return max
			}
			return ub
		}
	}
	return h.maxNS.Load()
}

// latencyJSON is the wire form of a latency histogram snapshot
// (microseconds; p50/p99 are log2-bucket upper bounds, max is exact).
type latencyJSON struct {
	Count    uint64  `json:"count"`
	P50Micro float64 `json:"p50_us"`
	P99Micro float64 `json:"p99_us"`
	MaxMicro float64 `json:"max_us"`
}

func (h *latencyHist) snapshot() latencyJSON {
	return latencyJSON{
		Count:    h.count.Load(),
		P50Micro: float64(h.quantile(50)) / 1e3,
		P99Micro: float64(h.quantile(99)) / 1e3,
		MaxMicro: float64(h.maxNS.Load()) / 1e3,
	}
}

// queuedObs is one observation waiting for the stream worker, stamped at
// enqueue time so the recorded verdict latency covers queue wait + solve.
type queuedObs struct {
	o   *counters.Observation
	enq time.Time
}

// stream is one live ingest session: a bounded queue in front of an
// engine session, drained by one worker goroutine so verdicts land in
// strict ingest order.
type stream struct {
	id      string
	model   *core.Model
	policy  string
	buffer  int
	created time.Time

	mgr  *streamManager
	sess *engine.Session
	log  *jobs.Log

	queue    chan queuedObs
	closedCh chan struct{} // closed exactly once, under qmu
	done     chan struct{} // worker exited (queue drained, terminal event appended)

	// ingestMu serialises ingest requests: concurrent POSTs to the same
	// stream would interleave lines nondeterministically, breaking the
	// no-reordering guarantee, so the second request waits.
	ingestMu sync.Mutex

	// qmu serialises enqueue admission against the closed transition. A
	// blocking enqueue holds it across the channel send — close therefore
	// cannot race an in-flight send, and after closedCh is closed no
	// sender can be mid-send, so the worker's final drain observes every
	// queued observation. Nothing else takes qmu: readers load closed,
	// and read closeReason (written once, before closed is set) only once
	// closed reads true, so a backpressured producer stalls no one but
	// the stream's own closers.
	qmu         sync.Mutex
	closed      atomic.Bool
	closeReason string

	lat latencyHist

	mu         sync.Mutex
	fold       engine.StreamFold
	lastActive time.Time
	ingested   uint64 // observations queued
	dropped    uint64
	lineErrors uint64
	evalErrors uint64
	hwm        int
}

func (st *stream) isClosed() bool { return st.closed.Load() }

func (st *stream) terminal() bool {
	select {
	case <-st.done:
		return true
	default:
		return false
	}
}

// state snapshots the stream's verdict state.
func (st *stream) state() engine.StreamState {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.fold.State
}

func (st *stream) touch(now time.Time) {
	st.mu.Lock()
	st.lastActive = now
	st.mu.Unlock()
}

// enqueue admits one observation under the stream's backpressure policy.
func (st *stream) enqueue(ctx context.Context, o *counters.Observation) disposition {
	st.qmu.Lock()
	defer st.qmu.Unlock()
	if st.closed.Load() {
		return dispClosed
	}
	qo := queuedObs{o: o, enq: time.Now()}
	switch st.policy {
	case PolicyDrop, PolicyReject:
		select {
		case st.queue <- qo:
		default:
			if st.policy == PolicyDrop {
				st.mu.Lock()
				st.dropped++
				st.mu.Unlock()
				st.mgr.counts.dropped.Add(1)
				return dispDropped
			}
			return dispFull
		}
	default: // PolicyBlock
		select {
		case st.queue <- qo:
		case <-ctx.Done():
			return dispClosed
		}
	}
	now := st.mgr.now()
	st.mu.Lock()
	st.ingested++
	st.lastActive = now
	if d := len(st.queue); d > st.hwm {
		st.hwm = d
	}
	st.mu.Unlock()
	st.mgr.counts.ingested.Add(1)
	return dispQueued
}

// run is the stream worker: it drains the queue into the stream's fold
// one observation at a time (strict FIFO — the no-reordering
// guarantee), and on close finishes the queued backlog before appending
// the terminal event. Exactly one worker runs per stream.
func (st *stream) run() {
	defer close(st.done)
	finish := func() {
		for {
			select {
			case qo := <-st.queue:
				st.process(qo)
			default:
				st.log.Append("closed", map[string]any{
					"reason": st.closeReason,
					"state":  st.state(),
				}, true, nil)
				return
			}
		}
	}
	for {
		select {
		case qo := <-st.queue:
			st.process(qo)
		case <-st.closedCh:
			finish()
			return
		}
	}
}

// verdictEventJSON is the payload of one "verdict" event: the
// observation's verdict plus the monotone stream state after folding it
// in (confidence tightens with each refuting observation).
type verdictEventJSON struct {
	Index       int                `json:"index"`
	Observation string             `json:"observation"`
	Feasible    bool               `json:"feasible"`
	Violations  []string           `json:"violations,omitempty"`
	State       engine.StreamState `json:"state"`
}

// process evaluates one observation and folds its verdict into the
// stream state. Its latency is recorded first, so a reader that sees
// Total n also sees at least n latencies. A failed evaluation is counted
// in eval_errors and never folded in.
func (st *stream) process(qo queuedObs) {
	v, err := st.sess.Test(context.Background(), qo.o)
	d := time.Since(qo.enq)
	st.lat.record(d)
	st.mgr.lat.record(d)
	if err != nil {
		st.mu.Lock()
		st.evalErrors++
		st.mu.Unlock()
		st.mgr.counts.evalErrors.Add(1)
		st.log.Append("error", map[string]any{
			"observation": qo.o.Label,
			"error":       err.Error(),
		}, false, nil)
		return
	}
	st.mu.Lock()
	idx := st.fold.Add(v)
	state := st.fold.State
	st.mu.Unlock()
	st.mgr.counts.verdicts.Add(1)
	ev := verdictEventJSON{
		Index:       idx,
		Observation: v.Observation,
		Feasible:    v.Feasible,
		State:       state,
	}
	for _, k := range v.Violations {
		ev.Violations = append(ev.Violations, k.String())
	}
	st.log.Append("verdict", ev, false, nil)
}

// streamCounters is the manager-wide stream telemetry (GET /stats).
type streamCounters struct {
	created    atomic.Uint64
	closed     atomic.Uint64
	reaped     atomic.Uint64
	rejected   atomic.Uint64 // 429s: create over cap + reject-policy full queues
	ingested   atomic.Uint64
	verdicts   atomic.Uint64
	dropped    atomic.Uint64
	lineErrors atomic.Uint64
	evalErrors atomic.Uint64
}

// StreamCounts is a point-in-time snapshot of the stream tier's
// telemetry, shaped for JSON (counterpointd's /stats endpoint).
type StreamCounts struct {
	// Active counts open (unclosed) streams; Created/Closed/Reaped count
	// lifecycle transitions since boot (Reaped is the subset of Closed
	// performed by the idle-TTL janitor).
	Active  int    `json:"active"`
	Created uint64 `json:"created"`
	Closed  uint64 `json:"closed"`
	Reaped  uint64 `json:"reaped"`
	// Rejected counts 429 responses: stream creation over -max-streams
	// plus reject-policy ingests that hit a full queue.
	Rejected uint64 `json:"rejected"`
	// Ingested counts queued observations, Verdicts the evaluations that
	// completed, Dropped the drop-policy discards, LineErrors the
	// malformed NDJSON lines, EvalErrors failed evaluations.
	Ingested   uint64 `json:"ingested"`
	Verdicts   uint64 `json:"verdicts"`
	Dropped    uint64 `json:"dropped"`
	LineErrors uint64 `json:"line_errors"`
	EvalErrors uint64 `json:"eval_errors"`
	// QueueHighWater is the deepest any stream queue has been since boot
	// — by construction never above the configured buffer.
	QueueHighWater int `json:"queue_high_water"`
	// Latency aggregates ingest→verdict latency (queue wait + solve)
	// across every stream since boot.
	Latency latencyJSON `json:"latency"`
}

// streamManager owns the server's streams: creation against the cap,
// lookup, closing, and the idle-TTL janitor. The janitor starts lazily
// with the first stream and stops with the manager.
type streamManager struct {
	eng        *engine.Engine
	maxStreams int
	buffer     int
	idleTTL    time.Duration
	maxLine    int
	now        func() time.Time

	counts streamCounters
	lat    latencyHist

	mu          sync.Mutex
	streams     map[string]*stream
	order       []*stream
	nextID      int
	closed      bool
	janitorStop chan struct{}
	wg          sync.WaitGroup

	// workerHold, when non-nil, holds every stream worker created while
	// it is set until the channel closes. Tests set it (under mu) so a
	// burst overflows a small queue by construction rather than by timing.
	workerHold chan struct{}
}

func newStreamManager(eng *engine.Engine, maxStreams, buffer int, idleTTL time.Duration, now func() time.Time) *streamManager {
	if maxStreams <= 0 {
		maxStreams = DefaultMaxStreams
	}
	if buffer <= 0 {
		buffer = DefaultStreamBuffer
	}
	if idleTTL <= 0 {
		idleTTL = DefaultStreamIdleTTL
	}
	if now == nil {
		now = time.Now
	}
	return &streamManager{
		eng:        eng,
		maxStreams: maxStreams,
		buffer:     buffer,
		idleTTL:    idleTTL,
		maxLine:    DefaultMaxStreamLineBytes,
		now:        now,
		streams:    map[string]*stream{},
	}
}

// create opens a stream. A nil error means the stream's worker is
// running and the "created" event is in its log.
func (m *streamManager) create(model *core.Model, cfg engine.Config, policy string, buffer int) (*stream, error) {
	sess, err := m.eng.SessionFor(model, cfg)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, errStreamsClosed
	}
	active := 0
	for _, st := range m.streams {
		if !st.isClosed() {
			active++
		}
	}
	if active >= m.maxStreams {
		m.counts.rejected.Add(1)
		return nil, errTooManyStreams
	}
	if buffer <= 0 || buffer > m.buffer {
		buffer = m.buffer
	}
	m.nextID++
	now := m.now()
	st := &stream{
		id:         fmt.Sprintf("s%06d", m.nextID),
		model:      model,
		policy:     policy,
		buffer:     buffer,
		created:    now,
		lastActive: now,
		mgr:        m,
		sess:       sess,
		fold:       engine.NewStreamFold(sess.Config().Confidence),
		log:        jobs.NewLog(streamEventLimit),
		queue:      make(chan queuedObs, buffer),
		closedCh:   make(chan struct{}),
		done:       make(chan struct{}),
	}
	m.streams[st.id] = st
	m.order = append(m.order, st)
	m.counts.created.Add(1)
	st.log.Append("created", map[string]any{
		"stream": st.id,
		"model":  model.Name,
		"policy": policy,
		"buffer": buffer,
	}, false, nil)
	m.wg.Add(1)
	hold := m.workerHold
	go func() {
		defer m.wg.Done()
		if hold != nil {
			<-hold
		}
		st.run()
	}()
	if m.janitorStop == nil {
		m.janitorStop = make(chan struct{})
		m.wg.Add(1)
		go m.janitor(m.janitorStop)
	}
	return st, nil
}

var (
	errTooManyStreams = fmt.Errorf("server: stream cap reached")
	errStreamsClosed  = fmt.Errorf("server: stream tier shut down")
)

func (m *streamManager) get(id string) (*stream, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.streams[id]
	return st, ok
}

func (m *streamManager) list() []*stream {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]*stream(nil), m.order...)
}

// closeStream transitions a stream to closed (idempotent); the worker
// drains the queued backlog, appends the terminal event and exits.
func (m *streamManager) closeStream(st *stream, reason string) bool {
	st.qmu.Lock()
	if st.closed.Load() {
		st.qmu.Unlock()
		return false
	}
	st.closeReason = reason
	st.closed.Store(true)
	close(st.closedCh)
	st.qmu.Unlock()
	st.touch(m.now())
	m.counts.closed.Add(1)
	return true
}

// remove unregisters a closed stream; its worker (if still draining)
// finishes on its own.
func (m *streamManager) remove(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.streams[id]; !ok {
		return
	}
	delete(m.streams, id)
	for i, st := range m.order {
		if st.id == id {
			m.order = append(m.order[:i:i], m.order[i+1:]...)
			break
		}
	}
}

// reap applies the idle TTL as of now: live streams with no ingest
// activity are closed (reason "idle"), terminal ones are removed.
// Exposed for tests; the janitor calls it on a timer.
func (m *streamManager) reap(now time.Time) {
	cutoff := now.Add(-m.idleTTL)
	for _, st := range m.list() {
		st.mu.Lock()
		last := st.lastActive
		st.mu.Unlock()
		if !last.Before(cutoff) {
			continue
		}
		if !st.isClosed() {
			if m.closeStream(st, "idle") {
				m.counts.reaped.Add(1)
			}
		} else if st.terminal() {
			m.remove(st.id)
		}
	}
}

func (m *streamManager) janitor(stop chan struct{}) {
	defer m.wg.Done()
	interval := m.idleTTL / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	if interval > 30*time.Second {
		interval = 30 * time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			m.reap(m.now())
		case <-stop:
			return
		}
	}
}

// close shuts the stream tier down: every stream is closed (reason
// "shutdown"), the janitor stops, and close blocks until every worker
// has drained its backlog and exited. Idempotent.
func (m *streamManager) close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		return
	}
	m.closed = true
	stop := m.janitorStop
	m.janitorStop = nil
	m.mu.Unlock()
	if stop != nil {
		close(stop)
	}
	for _, st := range m.list() {
		m.closeStream(st, "shutdown")
	}
	m.wg.Wait()
}

func (m *streamManager) stats() StreamCounts {
	active := 0
	hwm := 0
	for _, st := range m.list() {
		if !st.isClosed() {
			active++
		}
		st.mu.Lock()
		if st.hwm > hwm {
			hwm = st.hwm
		}
		st.mu.Unlock()
	}
	return StreamCounts{
		Active:         active,
		Created:        m.counts.created.Load(),
		Closed:         m.counts.closed.Load(),
		Reaped:         m.counts.reaped.Load(),
		Rejected:       m.counts.rejected.Load(),
		Ingested:       m.counts.ingested.Load(),
		Verdicts:       m.counts.verdicts.Load(),
		Dropped:        m.counts.dropped.Load(),
		LineErrors:     m.counts.lineErrors.Load(),
		EvalErrors:     m.counts.evalErrors.Load(),
		QueueHighWater: hwm,
		Latency:        m.lat.snapshot(),
	}
}

// --- HTTP surface ---

// streamJSON is the describe/list wire form of one stream.
type streamJSON struct {
	ID                  string             `json:"id"`
	Model               string             `json:"model"`
	Policy              string             `json:"policy"`
	Buffer              int                `json:"buffer"`
	State               engine.StreamState `json:"state"`
	ViolatedConstraints map[string]int     `json:"violated_constraints,omitempty"`
	Depth               int                `json:"depth"`
	HighWater           int                `json:"high_water"`
	Ingested            uint64             `json:"ingested"`
	Dropped             uint64             `json:"dropped"`
	LineErrors          uint64             `json:"line_errors"`
	EvalErrors          uint64             `json:"eval_errors"`
	Events              int                `json:"events"`
	Closed              bool               `json:"closed"`
	CloseReason         string             `json:"close_reason,omitempty"`
	Created             time.Time          `json:"created"`
	LastActive          time.Time          `json:"last_active"`
	Latency             latencyJSON        `json:"latency"`
}

func (st *stream) describe() streamJSON {
	closed, reason := st.closed.Load(), ""
	if closed {
		reason = st.closeReason
	}
	st.mu.Lock()
	out := streamJSON{
		ID:          st.id,
		Model:       st.model.Name,
		Policy:      st.policy,
		Buffer:      st.buffer,
		Depth:       len(st.queue),
		HighWater:   st.hwm,
		Ingested:    st.ingested,
		Dropped:     st.dropped,
		LineErrors:  st.lineErrors,
		EvalErrors:  st.evalErrors,
		Closed:      closed,
		CloseReason: reason,
		Created:     st.created,
		LastActive:  st.lastActive,
		State:       st.fold.State,
	}
	if len(st.fold.Violated) > 0 {
		out.ViolatedConstraints = maps.Clone(st.fold.Violated)
	}
	st.mu.Unlock()
	out.Events = st.log.Len()
	out.Latency = st.lat.snapshot()
	return out
}

// --- POST /v1/streams ---

type streamCreateJSON struct {
	Model string `json:"model"`
	// Policy selects the backpressure behaviour: "block" (default),
	// "drop" or "reject".
	Policy string `json:"policy,omitempty"`
	// Buffer shrinks the per-stream queue below the server's
	// -stream-buffer (values above it, or 0, use the server default).
	Buffer int `json:"buffer,omitempty"`
}

func (s *Server) handleStreamCreate(w http.ResponseWriter, r *http.Request) {
	var req streamCreateJSON
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, bodyStatus(err), "decode request: %v", err)
		return
	}
	e, err := s.reg.Get(req.Model)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	m, err := e.Model()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	cfg, err := s.requestConfig(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	switch req.Policy {
	case "":
		req.Policy = PolicyBlock
	case PolicyBlock, PolicyDrop, PolicyReject:
	default:
		writeError(w, http.StatusBadRequest,
			"unknown policy %q (want %q, %q or %q)", req.Policy, PolicyBlock, PolicyDrop, PolicyReject)
		return
	}
	if req.Buffer < 0 {
		writeError(w, http.StatusBadRequest, "buffer must be non-negative, got %d", req.Buffer)
		return
	}
	st, err := s.streams.create(m, cfg, req.Policy, req.Buffer)
	switch {
	case err == errTooManyStreams:
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests,
			"stream cap reached (%d active; server -max-streams); close one or retry later", s.streams.maxStreams)
		return
	case err == errStreamsClosed:
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, st.describe())
}

// --- GET /v1/streams ---

type streamListJSON struct {
	Streams []streamJSON `json:"streams"`
}

func (s *Server) handleStreamList(w http.ResponseWriter, r *http.Request) {
	out := streamListJSON{Streams: []streamJSON{}}
	for _, st := range s.streams.list() {
		out.Streams = append(out.Streams, st.describe())
	}
	writeJSON(w, http.StatusOK, out)
}

// lookupStream resolves the {id} path value, writing the 404 when it
// cannot.
func (s *Server) lookupStream(w http.ResponseWriter, r *http.Request) (*stream, bool) {
	id := r.PathValue("id")
	st, ok := s.streams.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown stream %q", id)
		return nil, false
	}
	return st, true
}

// --- GET /v1/streams/{id} ---

func (s *Server) handleStreamDescribe(w http.ResponseWriter, r *http.Request) {
	st, ok := s.lookupStream(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, st.describe())
}

// --- POST /v1/streams/{id}/ingest ---

// lineErrorJSON reports one malformed NDJSON line in an ingest summary.
type lineErrorJSON struct {
	Line  int    `json:"line"`
	Error string `json:"error"`
}

// ingestSummaryJSON is the ingest response: the disposition of every
// line of the request body. received = queued + dropped + rejected +
// error_lines; blank lines are ignored and counted by none of them.
type ingestSummaryJSON struct {
	Stream     string          `json:"stream"`
	Received   int             `json:"received"`
	Queued     int             `json:"queued"`
	Dropped    int             `json:"dropped,omitempty"`
	Rejected   int             `json:"rejected,omitempty"`
	ErrorLines int             `json:"error_lines,omitempty"`
	Errors     []lineErrorJSON `json:"errors,omitempty"`
	// State snapshots the stream verdict state at response time; queued
	// observations not yet evaluated are not in it (follow the events
	// stream for the verdict-by-verdict view).
	State engine.StreamState `json:"state"`
}

// decodeStreamObs decodes and validates one NDJSON ingest line against
// the stream's model: well-formed observation JSON, at least one sample,
// and coverage of every model counter.
func decodeStreamObs(line []byte, m *core.Model) (*counters.Observation, error) {
	o, err := counters.DecodeObservation(line)
	if err != nil {
		return nil, err
	}
	if err := checkObservation(m, o); err != nil {
		return nil, err
	}
	return o, nil
}

// scanNDJSON drives one ingest body: each non-blank line is decoded and
// validated, then handed to deliver; malformed lines go to onError with
// their 1-based line number and are never silently skipped. deliver
// returning false stops the scan (reject-policy full queue, closed
// stream). It returns the non-blank line count and the scanner error.
// That error aborts the scan: bufio.ErrTooLong for an oversized line (the
// line boundary is lost, so the scan cannot resynchronise) or the body's
// read error (such as the body cap). The aborted line is counted, its
// 1-based number is returned for the caller to report, and the fragment
// a read error cut short is never decoded.
func scanNDJSON(r io.Reader, maxLine int, m *core.Model, deliver func(line int, o *counters.Observation) bool, onError func(line int, err error)) (received, aborted int, err error) {
	body := &readErrReader{r: r}
	sc := bufio.NewScanner(body)
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		if atEOF && body.err != nil && bytes.IndexByte(data, '\n') < 0 {
			return 0, nil, nil // the fragment the read error cut short
		}
		return bufio.ScanLines(data, atEOF)
	})
	// The scanner's effective cap is max(cap(buf), maxLine) — keep the
	// initial buffer at or under maxLine so the cap actually binds.
	initial := 64 * 1024
	if initial > maxLine {
		initial = maxLine
	}
	sc.Buffer(make([]byte, initial), maxLine)
	line := 0
	for sc.Scan() {
		line++
		b := bytes.TrimSpace(sc.Bytes())
		if len(b) == 0 {
			continue
		}
		received++
		o, err := decodeStreamObs(b, m)
		if err != nil {
			onError(line, err)
			continue
		}
		if !deliver(line, o) {
			break
		}
	}
	if err := sc.Err(); err != nil {
		return received + 1, line + 1, err
	}
	return received, 0, nil
}

// readErrReader records the first read error other than io.EOF.
type readErrReader struct {
	r   io.Reader
	err error
}

func (b *readErrReader) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	if err != nil && err != io.EOF && b.err == nil {
		b.err = err
	}
	return n, err
}

func (s *Server) handleStreamIngest(w http.ResponseWriter, r *http.Request) {
	st, ok := s.lookupStream(w, r)
	if !ok {
		return
	}
	if st.isClosed() {
		writeError(w, http.StatusConflict, "stream %s is closed", st.id)
		return
	}
	// One ingest request at a time per stream: concurrent bodies would
	// interleave observations nondeterministically.
	st.ingestMu.Lock()
	defer st.ingestMu.Unlock()

	sum := ingestSummaryJSON{Stream: st.id}
	status := http.StatusOK
	onError := func(line int, err error) {
		sum.ErrorLines++
		st.mu.Lock()
		st.lineErrors++
		st.mu.Unlock()
		s.streams.counts.lineErrors.Add(1)
		if len(sum.Errors) < maxReportedLineErrors {
			sum.Errors = append(sum.Errors, lineErrorJSON{Line: line, Error: err.Error()})
		}
		st.log.Append("error", map[string]any{"line": line, "error": err.Error()}, false, nil)
	}
	deliver := func(line int, o *counters.Observation) bool {
		switch st.enqueue(r.Context(), o) {
		case dispQueued:
			sum.Queued++
			return true
		case dispDropped:
			sum.Dropped++
			return true
		case dispFull:
			sum.Rejected++
			s.streams.counts.rejected.Add(1)
			status = http.StatusTooManyRequests
			return false
		default: // dispClosed
			sum.Rejected++
			status = http.StatusConflict
			return false
		}
	}
	received, aborted, scanErr := scanNDJSON(r.Body, s.streams.maxLine, st.model, deliver, onError)
	sum.Received = received
	switch {
	case scanErr == nil:
	case scanErr == bufio.ErrTooLong:
		onError(aborted, fmt.Errorf("line exceeds %d bytes; ingest aborted", s.streams.maxLine))
	case bodyStatus(scanErr) == http.StatusRequestEntityTooLarge:
		onError(aborted, fmt.Errorf("body exceeds %d bytes; ingest aborted", s.bodyLimit))
		status = http.StatusRequestEntityTooLarge
	default:
		onError(aborted, fmt.Errorf("reading body: %v; ingest aborted", scanErr))
	}
	if sum.Dropped > 0 {
		st.log.Append("dropped", map[string]any{"count": sum.Dropped}, false, nil)
	}
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	sum.State = st.state()
	writeJSON(w, status, sum)
}

// --- GET /v1/streams/{id}/events ---

func (s *Server) handleStreamEvents(w http.ResponseWriter, r *http.Request) {
	if st, ok := s.lookupStream(w, r); ok {
		serveEvents(w, r, st.log.Events)
	}
}

// --- DELETE /v1/streams/{id} ---

type streamDeleteJSON struct {
	ID      string `json:"id"`
	Closed  bool   `json:"closed,omitempty"`
	Removed bool   `json:"removed,omitempty"`
}

// handleStreamDelete closes a live stream (its queued backlog is still
// evaluated; the terminal "closed" event follows the last verdict) or
// removes an already-closed one from the listing.
func (s *Server) handleStreamDelete(w http.ResponseWriter, r *http.Request) {
	st, ok := s.lookupStream(w, r)
	if !ok {
		return
	}
	if s.streams.closeStream(st, "client") {
		writeJSON(w, http.StatusOK, streamDeleteJSON{ID: st.id, Closed: true})
		return
	}
	s.streams.remove(st.id)
	writeJSON(w, http.StatusOK, streamDeleteJSON{ID: st.id, Removed: true})
}
