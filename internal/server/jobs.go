package server

// The jobs API: the network surface of internal/jobs, serving the paper's
// §5 / Appendix C guided search (Figures 7, 8 and 10) — and, via sweep.go,
// the hidden-event-space scans — as asynchronous, resumable HTTP jobs.
//
//	POST   /v1/explore            submit an exploration job
//	POST   /v1/sweep              submit a sweep job (sweep.go)
//	GET    /v1/jobs               list jobs (live and retained)
//	GET    /v1/jobs/{id}          one job's status and result
//	GET    /v1/jobs/{id}/events   NDJSON progress stream (replay + live)
//	POST   /v1/jobs/{id}/resume   continue a terminal job from its checkpoint
//	DELETE /v1/jobs/{id}          cancel a running job / drop a finished one
//
// A submission names its feature space either inline — a feature-
// conditional DSL template (explore.TemplateBuilder's #if/#endif markers)
// plus an uploaded corpus — or by catalogue reference ("haswell-mmu", the
// Table 3 space over the simulated Haswell MMU, with an uploaded or
// simulated corpus). Exploration runs on a private per-job engine, so a
// job's corpus-keyed caches die with it; evaluation defaults come from the
// server Config and the same query parameters the evaluate endpoints take.

import (
	"encoding/json"
	"errors"
	"net/http"

	"repro/internal/counters"
	"repro/internal/explore"
	"repro/internal/jobs"
)

// exploreRequestJSON is the POST /v1/explore body.
type exploreRequestJSON struct {
	// Source is a feature-conditional DSL template (#if f / #endif guard
	// lines); Catalog names a built-in feature space instead. Exactly one
	// must be set.
	Source  string `json:"source,omitempty"`
	Catalog string `json:"catalog,omitempty"`
	// Candidates restricts the searched feature universe (default: every
	// feature the template or catalogue defines). Initial seeds the
	// starting model.
	Candidates []string `json:"candidates,omitempty"`
	Initial    []string `json:"initial,omitempty"`
	// Observations is the inline corpus. Required with Source; optional
	// with Catalog, which can simulate its own ("quick" spec).
	Observations []*counters.Observation `json:"observations,omitempty"`
	// Eliminate runs the elimination phase after discovery (default true).
	Eliminate *bool `json:"eliminate,omitempty"`
	// MaxSteps bounds discovery; Workers bounds concurrent frontier
	// evaluations (0 = engine worker count).
	MaxSteps int `json:"max_steps,omitempty"`
	Workers  int `json:"workers,omitempty"`
}

// CatalogHaswellMMU is the catalogue exploration space: the Table 3
// feature axes over the simulated Haswell MMU (haswell.SearchUniverse).
const CatalogHaswellMMU = jobs.CatalogHaswellMMU

type submitJSON struct {
	jobs.Status
	// Candidates echoes the resolved feature universe the job searches.
	Candidates []string `json:"candidates"`
}

func (s *Server) handleExploreSubmit(w http.ResponseWriter, r *http.Request) {
	if !s.durableOK(w) {
		return
	}
	var req exploreRequestJSON
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, bodyStatus(err), "decode request: %v", err)
		return
	}
	cfg, err := s.requestConfig(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The wire form is both what Build resolves into a runnable spec and
	// what the durable journal records — a crashed daemon rebuilds this
	// exact search from it.
	wire := jobs.ExploreWire{
		Source:             req.Source,
		Catalog:            req.Catalog,
		Candidates:         req.Candidates,
		Initial:            req.Initial,
		Observations:       req.Observations,
		Confidence:         cfg.Confidence,
		Mode:               cfg.Mode,
		IdentifyViolations: cfg.IdentifyViolations,
		ForceExact:         cfg.ForceExact,
		MaxDiscoverySteps:  req.MaxSteps,
		Workers:            req.Workers,
		SkipElimination:    req.Eliminate != nil && !*req.Eliminate,
	}
	spec, universe, err := wire.Build()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	known := map[string]bool{}
	for _, f := range universe {
		known[f] = true
	}
	for _, f := range append(append([]string{}, req.Candidates...), req.Initial...) {
		if !known[f] {
			writeError(w, http.StatusBadRequest, "unknown feature %q (template/catalogue defines %v)", f, universe)
			return
		}
	}

	// Validate the corpus against the searched space's maximal model —
	// initial ∪ candidates, not the whole template universe: feature
	// guards only ever add counters, so an observation covering that
	// model covers every combination this search can build, while
	// counters used only by unsearched features stay irrelevant. This
	// also compiles the template once, making bad DSL (in any reachable
	// line) a 400 here instead of a failed job later.
	searched := append(append([]string{}, spec.Candidates...), spec.Initial...)
	full, err := spec.Builder(explore.NewFeatureSet(searched...))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	for _, o := range spec.Corpus {
		if o == nil {
			writeError(w, http.StatusBadRequest, "corpus contains a null observation")
			return
		}
		if err := checkObservation(full, o); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}

	j, err := s.jobs.SubmitExplore(spec)
	if err != nil {
		if errors.Is(err, jobs.ErrJournal) {
			s.writeJournalError(w, err)
			return
		}
		status := http.StatusBadRequest
		if errors.Is(err, jobs.ErrClosed) || errors.Is(err, jobs.ErrQueueFull) {
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, submitJSON{Status: j.Status(), Candidates: spec.Candidates})
}

type jobListJSON struct {
	Jobs []jobs.Status `json:"jobs"`
}

func (s *Server) handleJobsList(w http.ResponseWriter, r *http.Request) {
	statuses := s.jobs.List()
	// Listings stay light: results are served by GET /v1/jobs/{id}.
	for i := range statuses {
		statuses[i].Result = nil
	}
	if statuses == nil {
		statuses = []jobs.Status{}
	}
	writeJSON(w, http.StatusOK, jobListJSON{Jobs: statuses})
}

// lookupJob resolves the {id} path value, writing the 404 when it cannot.
func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) (*jobs.Job, bool) {
	id := r.PathValue("id")
	j, ok := s.jobs.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return nil, false
	}
	return j, true
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

// handleJobEvents streams a job's event log as NDJSON: the full history
// (or from ?from=seq onward), then live events, closing after the terminal
// event. The subscription runs under the request context, so a client
// disconnect unsubscribes — it never cancels the job itself, which other
// watchers may still be following.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.lookupJob(w, r); ok {
		serveEvents(w, r, j.Events)
	}
}

func (s *Server) handleJobResume(w http.ResponseWriter, r *http.Request) {
	if !s.durableOK(w) {
		return
	}
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	// Resume dispatches on the job's kind (explore, sweep), so one
	// endpoint serves every resumable job family.
	nj, err := s.jobs.Resume(j.ID)
	if err != nil {
		if errors.Is(err, jobs.ErrJournal) {
			s.writeJournalError(w, err)
			return
		}
		status := http.StatusConflict
		if errors.Is(err, jobs.ErrUnknownJob) {
			status = http.StatusNotFound
		} else if errors.Is(err, jobs.ErrClosed) || errors.Is(err, jobs.ErrQueueFull) {
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, nj.Status())
}

// handleJobDelete cancels an active job (202, poll for "cancelled") or
// removes a terminal one from the retained ring (200).
func (s *Server) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	if j.State().Terminal() {
		if err := s.jobs.Remove(j.ID); err != nil {
			// Retention may have evicted the job between lookup and Remove:
			// that is the 404 it would be one request later, not a conflict.
			status := http.StatusConflict
			if errors.Is(err, jobs.ErrUnknownJob) {
				status = http.StatusNotFound
			}
			writeError(w, status, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"id": j.ID, "removed": true})
		return
	}
	if err := s.jobs.Cancel(j.ID); err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, j.Status())
}
