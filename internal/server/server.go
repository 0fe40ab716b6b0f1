// Package server is counterpointd's HTTP/JSON feasibility service: a
// network-facing surface over internal/engine, so verdicts no longer
// require a local Go caller.
//
// A Server owns a Registry of named models (seeded from the haswell
// catalogue at boot, extended by uploads) and one long-lived Engine whose
// region/LP/model caches amortise across requests — the steady state the
// paper's Figure 9 sweeps characterise. Each (model, Config) pair shares a
// single engine session via Engine.SessionFor, so concurrent requests
// against the same model hit warm caches instead of rebuilding them.
//
// Endpoints (all JSON unless noted):
//
//	GET  /v1/models                      list registered model names
//	POST /v1/models                      compile + register DSL source
//	GET  /v1/models/{name}               constraints and counter signatures
//	POST /v1/models/{name}/test          one observation -> one verdict
//	POST /v1/models/{name}/evaluate      corpus (JSON or multipart CSV) -> aggregate
//	POST /v1/models/{name}/evaluate/stream  corpus -> NDJSON verdict stream
//	POST /v1/explore                     submit an exploration job
//	POST /v1/sweep                       submit a hidden-event-space sweep job
//	GET  /v1/jobs                        list jobs
//	GET  /v1/jobs/{id}                   job status and result
//	GET  /v1/jobs/{id}/events            NDJSON progress stream (replay + live)
//	POST /v1/jobs/{id}/resume            resume a terminal job from its checkpoint
//	DELETE /v1/jobs/{id}                 cancel a running job / drop a finished one
//	POST /v1/streams                     open an online-refutation stream
//	GET  /v1/streams                     list streams
//	GET  /v1/streams/{id}                stream state, depth, latency telemetry
//	POST /v1/streams/{id}/ingest         NDJSON observations in (bounded queue)
//	GET  /v1/streams/{id}/events         NDJSON verdict/state events out
//	DELETE /v1/streams/{id}              close a live stream / drop a closed one
//	GET  /healthz                        liveness and cache statistics
//	GET  /stats                          engine solver telemetry (two-tier counters)
//
// Evaluation endpoints accept per-request overrides as query parameters:
// confidence, mode (correlated|independent), identify, first, batch, exact
// (force the exact LP tier, bypassing the float filter).
// Streaming honours client disconnects: when the request context ends the
// underlying engine stream is cancelled and its goroutines exit. The jobs
// endpoints are the asynchronous counterpart (see jobs.go and
// internal/jobs): exploration searches outlive any one request, progress
// streams replay and resume, and a disconnected watcher never cancels the
// job it was watching. POST /v1/sweep scans a raw event×umask×cmask config
// grid for encodings consistent with the page-walker reference count
// (sweep.go and internal/sweep); sweeps share the engine, so their grid-
// cell dedup shows up in /stats. The /v1/streams endpoints are the online
// counterpart of batch evaluation: each stream runs Session.Test behind
// a bounded queue with an explicit backpressure policy, folds verdicts
// into a monotone state bit-identical to a batch evaluation of the same
// observations, and publishes them on the jobs event log (streams.go). See
// docs/API.md for the full endpoint reference.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"mime/multipart"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/engine"
	"repro/internal/jobs"
	"repro/internal/jobstore"
	"repro/internal/stats"
)

// DefaultMaxBodyBytes bounds request bodies (corpus uploads included)
// unless Options.MaxBodyBytes says otherwise.
const DefaultMaxBodyBytes = 64 << 20

// Model is a (name, DSL source) pair for seeding a server's registry.
type Model struct {
	Name   string
	Source string
}

// Options configures a Server.
type Options struct {
	// Engine is the evaluation runtime; nil uses engine.Default().
	Engine *engine.Engine
	// Defaults seeds every request's evaluation configuration; query
	// parameters override individual fields per request.
	Defaults engine.Config
	// MaxConcurrent caps simultaneous verdict-producing requests (test,
	// evaluate, stream). 0 means unlimited. Requests beyond the cap queue
	// until a slot frees or their context ends.
	MaxConcurrent int
	// MaxBodyBytes bounds request bodies; 0 means DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// Catalog seeds the registry at construction (sources compile lazily).
	Catalog []Model
	// Jobs manages the asynchronous jobs behind /v1/explore, /v1/sweep
	// and /v1/jobs. nil creates a manager with jobs.Options defaults; pass
	// one explicitly to tune concurrency/retention and to Close it on
	// shutdown (counterpointd does).
	Jobs *jobs.Manager
	// JobStore is the durable journal behind Jobs (counterpointd's
	// -job-db). When set, /healthz and /stats surface its health, and new
	// durable submissions are shed with 503 + Retry-After while the store
	// is degraded — the daemon itself keeps serving reads and running
	// jobs from memory. nil means jobs are memory-only.
	JobStore *jobstore.Store
	// MaxSweepCells caps the expanded grid size a POST /v1/sweep request
	// may submit; 0 means DefaultMaxSweepCells.
	MaxSweepCells int
	// MaxStreams caps concurrently open online-refutation streams; 0
	// means DefaultMaxStreams. Creation beyond the cap is a 429.
	MaxStreams int
	// StreamBuffer is the per-stream ingest queue capacity — the
	// high-water mark at which the backpressure policy engages; 0 means
	// DefaultStreamBuffer. Streams may request smaller buffers, never
	// larger.
	StreamBuffer int
	// StreamIdleTTL reaps streams with no ingest activity: live idle
	// streams are closed (reason "idle"), closed ones removed. 0 means
	// DefaultStreamIdleTTL.
	StreamIdleTTL time.Duration

	// streamNow, when set (by tests), replaces time.Now for stream
	// idle-TTL accounting so reaps are deterministic.
	streamNow func() time.Time
}

// Server is the HTTP feasibility service. Create with New; it implements
// http.Handler and is safe for concurrent use.
type Server struct {
	eng       *engine.Engine
	reg       *Registry
	defaults  engine.Config
	sem       chan struct{}
	bodyLimit int64
	mux       *http.ServeMux
	jobs      *jobs.Manager
	store     *jobstore.Store
	streams   *streamManager

	maxSweepCells int
}

// New builds a Server from opts.
func New(opts Options) *Server {
	s := &Server{
		eng:       opts.Engine,
		reg:       NewRegistry(),
		defaults:  opts.Defaults,
		bodyLimit: opts.MaxBodyBytes,
		mux:       http.NewServeMux(),
		jobs:      opts.Jobs,
		store:     opts.JobStore,

		maxSweepCells: opts.MaxSweepCells,
	}
	if s.maxSweepCells <= 0 {
		s.maxSweepCells = DefaultMaxSweepCells
	}
	if s.eng == nil {
		s.eng = engine.Default()
	}
	if s.jobs == nil {
		s.jobs = jobs.NewManager(jobs.Options{})
	}
	if s.bodyLimit <= 0 {
		s.bodyLimit = DefaultMaxBodyBytes
	}
	if opts.MaxConcurrent > 0 {
		s.sem = make(chan struct{}, opts.MaxConcurrent)
	}
	s.streams = newStreamManager(s.eng, opts.MaxStreams, opts.StreamBuffer, opts.StreamIdleTTL, opts.streamNow)
	for _, m := range opts.Catalog {
		s.reg.Seed(m.Name, m.Source)
	}
	s.mux.HandleFunc("GET /v1/models", s.handleList)
	s.mux.HandleFunc("POST /v1/models", s.handleRegister)
	s.mux.HandleFunc("GET /v1/models/{name}", s.handleDescribe)
	s.mux.HandleFunc("POST /v1/models/{name}/test", s.handleTest)
	s.mux.HandleFunc("POST /v1/models/{name}/evaluate", s.handleEvaluate)
	s.mux.HandleFunc("POST /v1/models/{name}/evaluate/stream", s.handleEvaluateNDJSON)
	s.mux.HandleFunc("POST /v1/explore", s.handleExploreSubmit)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweepSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobsList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("POST /v1/jobs/{id}/resume", s.handleJobResume)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobDelete)
	s.mux.HandleFunc("POST /v1/streams", s.handleStreamCreate)
	s.mux.HandleFunc("GET /v1/streams", s.handleStreamList)
	s.mux.HandleFunc("GET /v1/streams/{id}", s.handleStreamDescribe)
	s.mux.HandleFunc("POST /v1/streams/{id}/ingest", s.handleStreamIngest)
	s.mux.HandleFunc("GET /v1/streams/{id}/events", s.handleStreamEvents)
	s.mux.HandleFunc("DELETE /v1/streams/{id}", s.handleStreamDelete)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	return s
}

// Registry exposes the server's model registry.
func (s *Server) Registry() *Registry { return s.reg }

// Jobs exposes the server's exploration job manager.
func (s *Server) Jobs() *jobs.Manager { return s.jobs }

// Close shuts down the server's stream tier: every open stream is closed
// (reason "shutdown"), queued observations are drained, and Close blocks
// until the last stream worker exits. The jobs manager and engine are
// not owned by the Server and are closed by the caller (counterpointd
// does, after Close). Idempotent.
func (s *Server) Close() {
	s.streams.close()
}

// ServeHTTP dispatches to the service mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.bodyLimit)
	s.mux.ServeHTTP(w, r)
}

// acquire claims an evaluation slot, waiting until one frees or ctx ends.
func (s *Server) acquire(ctx context.Context) error {
	if s.sem == nil {
		return nil
	}
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) release() {
	if s.sem != nil {
		<-s.sem
	}
}

// errorJSON is the uniform error body.
type errorJSON struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorJSON{Error: fmt.Sprintf(format, args...)})
}

// bodyBuffers recycles request-body buffers: the observation decoders
// copy out everything they keep, so a buffer is free again once its body
// is decoded.
var bodyBuffers = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBody bounds the buffers kept for reuse, so one large upload
// does not stay pinned.
const maxPooledBody = 1 << 20

// readBody reads the request body whole, bounded by ServeHTTP's
// MaxBytesReader, into a pooled buffer. The caller hands the buffer back
// with putBody once it has decoded the bytes.
func readBody(r *http.Request) (*bytes.Buffer, error) {
	buf := bodyBuffers.Get().(*bytes.Buffer)
	buf.Reset()
	_, err := buf.ReadFrom(r.Body)
	return buf, err
}

func putBody(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBody {
		bodyBuffers.Put(buf)
	}
}

// bodyStatus is the status for a request body that could not be read or
// decoded: 413 when it ran past MaxBodyBytes, 400 otherwise.
func bodyStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// serveEvents writes an event log as NDJSON: the events from ?from=seq
// onward, then live ones, until the terminal event or the client leaves.
// The subscription runs under the request context, so a disconnected
// watcher unsubscribes without touching the job or stream it watched.
func serveEvents(w http.ResponseWriter, r *http.Request, subscribe func(context.Context, int) <-chan jobs.Event) {
	from := 0
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "from must be a non-negative integer, got %q", v)
			return
		}
		from = n
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	rc.Flush()
	enc := json.NewEncoder(w)
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	events := subscribe(ctx, from)
	for ev := range events {
		if err := enc.Encode(ev); err != nil {
			// The write failed (client gone): cancel the subscription and
			// drain it so its goroutine exits before the handler does.
			cancel()
			for range events {
			}
			return
		}
		rc.Flush()
	}
}

// durableOK gates endpoints that would journal new work (submit,
// resume). While the durable store is degraded the daemon keeps serving
// reads and running jobs from memory, but accepting a submission it
// cannot journal would silently break the crash-safety contract — so it
// sheds the request with 503 and a Retry-After matching the store's next
// reopen probe.
func (s *Server) durableOK(w http.ResponseWriter) bool {
	if s.store == nil || !s.store.Degraded() {
		return true
	}
	h := s.store.Health()
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(h.RetryInMS)))
	writeError(w, http.StatusServiceUnavailable, "durable job store degraded: %s", h.LastError)
	return false
}

// writeJournalError maps a jobs.ErrJournal submission failure — the
// journal write that would have made the job durable failed — to the
// same 503 + Retry-After contract as durableOK.
func (s *Server) writeJournalError(w http.ResponseWriter, err error) {
	retry := 1
	if s.store != nil {
		retry = retryAfterSeconds(s.store.Health().RetryInMS)
	}
	w.Header().Set("Retry-After", strconv.Itoa(retry))
	writeError(w, http.StatusServiceUnavailable, "%v", err)
}

// retryAfterSeconds rounds a probe countdown up to whole seconds, with a
// floor of 1 so clients never busy-loop on Retry-After: 0.
func retryAfterSeconds(ms int64) int {
	if ms <= 0 {
		return 1
	}
	return int((ms + 999) / 1000)
}

// lookup resolves the {name} path value to a compiled model, writing the
// appropriate error response when it cannot.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*core.Model, bool) {
	name := r.PathValue("name")
	e, err := s.reg.Get(name)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return nil, false
	}
	m, err := e.Model()
	if err != nil {
		// A seeded source that fails to compile is a server-side defect,
		// not a client error.
		writeError(w, http.StatusInternalServerError, "%v", err)
		return nil, false
	}
	return m, true
}

// requestConfig layers query-parameter overrides over the server defaults.
func (s *Server) requestConfig(r *http.Request) (engine.Config, error) {
	cfg := s.defaults
	q := r.URL.Query()
	if v := q.Get("confidence"); v != "" {
		c, err := strconv.ParseFloat(v, 64)
		// The negated range form also rejects NaN at the API boundary.
		if err != nil || !(c > 0 && c < 1) {
			return cfg, fmt.Errorf("confidence must be a number in (0,1), got %q", v)
		}
		cfg.Confidence = c
	}
	switch v := q.Get("mode"); v {
	case "":
	case "correlated":
		cfg.Mode = stats.Correlated
	case "independent":
		cfg.Mode = stats.Independent
	default:
		return cfg, fmt.Errorf("mode must be correlated or independent, got %q", v)
	}
	for _, b := range []struct {
		key string
		dst *bool
	}{
		{"identify", &cfg.IdentifyViolations},
		{"first", &cfg.StopOnInfeasible},
		{"exact", &cfg.ForceExact},
	} {
		if v := q.Get(b.key); v != "" {
			on, err := strconv.ParseBool(v)
			if err != nil {
				return cfg, fmt.Errorf("%s must be a boolean, got %q", b.key, v)
			}
			*b.dst = on
		}
	}
	if v := q.Get("batch"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return cfg, fmt.Errorf("batch must be a positive integer, got %q", v)
		}
		cfg.BatchSize = n
	}
	return cfg, nil
}

// missingCounters lists the model counters an observation did not record.
// Testing such an observation would silently substitute constant 0 for
// the unrecorded events — a confidently wrong verdict — so the handlers
// reject it instead (the counterpoint CLI guards the same way, by
// intersecting counter sets up front).
func missingCounters(m *core.Model, o *counters.Observation) []string {
	var missing []string
	for _, e := range m.Set.Events() {
		if !o.Set.Contains(e) {
			missing = append(missing, string(e))
		}
	}
	return missing
}

// checkCovers validates every observation against the session's model,
// writing a 400 naming the unrecorded counters on failure.
func checkCovers(w http.ResponseWriter, sess *engine.Session, corpus ...*counters.Observation) bool {
	for _, o := range corpus {
		if missing := missingCounters(sess.Model(), o); len(missing) > 0 {
			writeError(w, http.StatusBadRequest,
				"observation %q does not record model counters %v (see GET /v1/models/%s for the full set)",
				o.Label, missing, sess.Model().Name)
			return false
		}
	}
	return true
}

// session resolves model and per-request configuration to the shared
// engine session for the pair.
func (s *Server) session(w http.ResponseWriter, r *http.Request) (*engine.Session, bool) {
	m, ok := s.lookup(w, r)
	if !ok {
		return nil, false
	}
	cfg, err := s.requestConfig(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return nil, false
	}
	sess, err := s.eng.SessionFor(m, cfg)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return nil, false
	}
	return sess, true
}

// --- GET /healthz ---

type healthJSON struct {
	Status  string `json:"status"`
	Models  int    `json:"models"`
	Workers int    `json:"workers"`
	Regions int    `json:"cached_regions"`
	Jobs    int    `json:"jobs"`
	Streams int    `json:"streams"`
	// Durable reports whether a job journal is attached; Degraded carries
	// the store's failure detail (last error, probe countdown, drop
	// count) while it is shedding durable work — and flips Status to
	// "degraded", since acked submissions are temporarily not crash-safe.
	Durable  bool             `json:"durable"`
	Degraded *jobstore.Health `json:"degraded,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := healthJSON{
		Status:  "ok",
		Models:  s.reg.Len(),
		Workers: s.eng.Workers(),
		Regions: s.eng.CacheStats().RegionEntries,
		Jobs:    s.jobs.Len(),
		Streams: s.streams.stats().Active,
		Durable: s.store != nil,
	}
	if s.store != nil {
		if sh := s.store.Health(); sh.State != "ok" {
			h.Status = "degraded"
			h.Degraded = &sh
		}
	}
	writeJSON(w, http.StatusOK, h)
}

// --- GET /stats ---

// statsJSON surfaces the engine's two-tier solver telemetry: how many
// feasibility LPs were decided, how many the float64 filter settled with a
// verified certificate, how many fell back to the exact rational simplex
// (the fallback rate is the service's honesty metric — it is reported,
// never hidden), and how the engine's content-addressed caches performed.
type statsJSON struct {
	core.SolverCounts
	FilterHits uint64             `json:"filter_hits"`
	Caches     engine.CacheCounts `json:"caches"`
	// Sweep reports batched-sweep dedup: cells/classes planned, engine
	// evaluations actually performed, and the evaluations-avoided ratio.
	Sweep jobs.SweepCounts `json:"sweep"`
	// Streams reports the online-refutation tier: stream lifecycle
	// counts, ingest/verdict/drop totals, the deepest queue observed and
	// aggregate ingest→verdict latency.
	Streams StreamCounts `json:"streams"`
	// Jobstore reports the durable journal (append/fsync/retry totals,
	// compactions, degradations, torn-tail repairs) when one is attached.
	Jobstore *jobstore.Counts `json:"jobstore,omitempty"`
	Models   int              `json:"models"`
	Workers  int              `json:"workers"`
	Regions  int              `json:"cached_regions"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	counts, caches := s.eng.SolverStats(), s.eng.CacheStats()
	out := statsJSON{
		SolverCounts: counts,
		FilterHits:   counts.FilterHits(),
		Caches:       caches,
		Sweep:        s.jobs.SweepStats(),
		Streams:      s.streams.stats(),
		Models:       s.reg.Len(),
		Workers:      s.eng.Workers(),
		Regions:      caches.RegionEntries,
	}
	if s.store != nil {
		sc := s.store.Stats()
		out.Jobstore = &sc
	}
	writeJSON(w, http.StatusOK, out)
}

// --- GET /v1/models ---

type listJSON struct {
	Models []string `json:"models"`
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, listJSON{Models: s.reg.Names()})
}

// --- POST /v1/models ---

type registerJSON struct {
	Name   string `json:"name"`
	Source string `json:"source"`
}

type modelSummaryJSON struct {
	Name     string   `json:"name"`
	Counters []string `json:"counters"`
	NumPaths int      `json:"num_paths"`
	NumCone  int      `json:"num_generators"`
}

func summarise(m *core.Model) modelSummaryJSON {
	evs := m.Set.Events()
	names := make([]string, len(evs))
	for i, e := range evs {
		names[i] = string(e)
	}
	return modelSummaryJSON{
		Name:     m.Name,
		Counters: names,
		NumPaths: m.NumPaths(),
		NumCone:  m.Cone().Len(),
	}
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerJSON
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, bodyStatus(err), "decode request: %v", err)
		return
	}
	e, err := s.reg.Register(req.Name, req.Source)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrModelExists) {
			status = http.StatusConflict
		}
		writeError(w, status, "%v", err)
		return
	}
	m, _ := e.Model()
	writeJSON(w, http.StatusCreated, summarise(m))
}

// --- GET /v1/models/{name} ---

type describeJSON struct {
	modelSummaryJSON
	Constraints []string   `json:"constraints"`
	Signatures  [][]string `json:"signatures"`
}

func (s *Server) handleDescribe(w http.ResponseWriter, r *http.Request) {
	m, ok := s.lookup(w, r)
	if !ok {
		return
	}
	h, err := m.Constraints()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "deduce constraints: %v", err)
		return
	}
	cons := h.All()
	out := describeJSON{
		modelSummaryJSON: summarise(m),
		Constraints:      make([]string, len(cons)),
		Signatures:       [][]string{},
	}
	for i, k := range cons {
		out.Constraints[i] = k.String()
	}
	sigs, err := m.Diagram.Signatures(m.Set)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "enumerate signatures: %v", err)
		return
	}
	for _, sig := range sigs {
		row := make([]string, len(sig.Num))
		for j, c := range sig.Num {
			row[j] = strconv.FormatInt(c, 10)
		}
		out.Signatures = append(out.Signatures, row)
	}
	writeJSON(w, http.StatusOK, out)
}

// --- verdict encoding shared by test/evaluate/stream ---

type verdictJSON struct {
	Observation string   `json:"observation"`
	Feasible    bool     `json:"feasible"`
	Violations  []string `json:"violations,omitempty"`
}

func verdictToJSON(v *core.Verdict) verdictJSON {
	out := verdictJSON{Observation: v.Observation, Feasible: v.Feasible}
	if len(v.Violations) > 0 {
		out.Violations = make([]string, len(v.Violations))
		for i, k := range v.Violations {
			out.Violations[i] = k.String()
		}
	}
	return out
}

// --- POST /v1/models/{name}/test ---

func (s *Server) handleTest(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	body, err := readBody(r)
	defer putBody(body)
	if err != nil {
		writeError(w, bodyStatus(err), "read observation: %v", err)
		return
	}
	o, err := counters.DecodeObservationBody(body.Bytes())
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if o.Len() == 0 {
		writeError(w, http.StatusBadRequest, "observation %q has no samples", o.Label)
		return
	}
	if !checkCovers(w, sess, o) {
		return
	}
	if err := s.acquire(r.Context()); err != nil {
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	defer s.release()
	v, err := sess.Test(r.Context(), o)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, verdictToJSON(v))
}

// --- corpus decoding shared by evaluate and stream ---

// readCorpus decodes the request corpus: a JSON body {"observations":
// [...]} or a multipart/form-data upload whose file parts are observation
// CSVs (labelled by filename). Errors are client errors.
func readCorpus(r *http.Request) ([]*counters.Observation, error) {
	ct := r.Header.Get("Content-Type")
	mt, params, err := mime.ParseMediaType(ct)
	if err != nil && ct != "" {
		return nil, fmt.Errorf("parse content type: %w", err)
	}
	if mt == "multipart/form-data" {
		return readCorpusMultipart(multipart.NewReader(r.Body, params["boundary"]))
	}
	body, err := readBody(r)
	defer putBody(body)
	if err != nil {
		return nil, fmt.Errorf("read corpus: %w", err)
	}
	corpus, err := counters.DecodeCorpusBody(body.Bytes())
	if err != nil {
		return nil, err
	}
	if len(corpus) == 0 {
		return nil, fmt.Errorf("corpus has no observations")
	}
	for i, o := range corpus {
		// A JSON null element decodes to a nil observation.
		if o == nil {
			return nil, fmt.Errorf("observation %d is null", i)
		}
		if o.Len() == 0 {
			return nil, fmt.Errorf("observation %q has no samples", o.Label)
		}
	}
	return corpus, nil
}

func readCorpusMultipart(mr *multipart.Reader) ([]*counters.Observation, error) {
	var corpus []*counters.Observation
	for {
		part, err := mr.NextPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("read multipart corpus: %w", err)
		}
		label := part.FileName()
		if label == "" {
			label = part.FormName()
		}
		o, err := counters.ReadCSV(part, label)
		part.Close()
		if err != nil {
			return nil, err
		}
		if o.Len() == 0 {
			return nil, fmt.Errorf("observation %q has no samples", label)
		}
		corpus = append(corpus, o)
	}
	if len(corpus) == 0 {
		return nil, fmt.Errorf("corpus has no observations")
	}
	return corpus, nil
}

// --- POST /v1/models/{name}/evaluate ---

type corpusResultJSON struct {
	Model               string         `json:"model"`
	Total               int            `json:"total"`
	Infeasible          int            `json:"infeasible"`
	Feasible            bool           `json:"feasible"`
	ViolatedConstraints map[string]int `json:"violated_constraints,omitempty"`
	Verdicts            []verdictJSON  `json:"verdicts"`
}

func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	corpus, err := readCorpus(r)
	if err != nil {
		writeError(w, bodyStatus(err), "%v", err)
		return
	}
	if !checkCovers(w, sess, corpus...) {
		return
	}
	if err := s.acquire(r.Context()); err != nil {
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	defer s.release()
	res, err := sess.Evaluate(r.Context(), corpus)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	out := corpusResultJSON{
		Model:               res.Model,
		Total:               res.Total,
		Infeasible:          res.Infeasible,
		Feasible:            res.Feasible(),
		ViolatedConstraints: res.ViolatedConstraints,
		Verdicts:            make([]verdictJSON, len(res.Verdicts)),
	}
	for i, v := range res.Verdicts {
		out.Verdicts[i] = verdictToJSON(v)
	}
	writeJSON(w, http.StatusOK, out)
}

// --- POST /v1/models/{name}/evaluate/stream ---

// streamItemJSON is one NDJSON line: a verdict (with its position in the
// uploaded corpus), an evaluation error, or the trailing aggregate.
type streamItemJSON struct {
	Index       *int     `json:"index,omitempty"`
	Observation string   `json:"observation,omitempty"`
	Feasible    *bool    `json:"feasible,omitempty"`
	Violations  []string `json:"violations,omitempty"`
	Error       string   `json:"error,omitempty"`

	Done       bool `json:"done,omitempty"`
	Total      int  `json:"total,omitempty"`
	Infeasible int  `json:"infeasible,omitempty"`
}

func (s *Server) handleEvaluateNDJSON(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	corpus, err := readCorpus(r)
	if err != nil {
		writeError(w, bodyStatus(err), "%v", err)
		return
	}
	if !checkCovers(w, sess, corpus...) {
		return
	}
	if err := s.acquire(r.Context()); err != nil {
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	defer s.release()

	// The run's context is the request context: a client disconnect
	// cancels the in-flight chunks, and EvaluateEach returns with every
	// pool task finished. A failed write cancels explicitly for the same
	// effect.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w)

	broken := false
	res, err := sess.EvaluateEach(ctx, corpus, func(i int, v *core.Verdict, err error) {
		if broken {
			return
		}
		line := streamItemJSON{Index: &i}
		if err != nil {
			line.Error = err.Error()
		} else {
			line.Observation = v.Observation
			line.Feasible = &v.Feasible
			for _, k := range v.Violations {
				line.Violations = append(line.Violations, k.String())
			}
		}
		if enc.Encode(line) != nil {
			broken = true
			cancel()
			return
		}
		rc.Flush()
	})
	final := streamItemJSON{Done: true, Total: res.Total, Infeasible: res.Infeasible}
	if err != nil {
		final.Error = err.Error()
	}
	if encErr := enc.Encode(final); encErr == nil {
		rc.Flush()
	}
}
