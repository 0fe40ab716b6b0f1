package server

// The hidden-event-space sweep API: POST /v1/sweep submits a jobs.SweepSpec
// scan of a raw event×umask×cmask grid (see internal/sweep for the
// decoding model). Scans are behaviour-class batched: the planner
// collapses aliased cells before any solving, one engine evaluation runs
// per class, and GET /stats shows the evaluations-avoided ratio under
// "sweep". Sweeps run on the server's SHARED engine so cross-scan verdict
// dedup also lands in the service caches. The job machinery (events,
// resume, delete) is shared with exploration via /v1/jobs.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/jobs"
	"repro/internal/sweep"
)

// DefaultMaxSweepCells bounds a submitted grid's cell count unless
// Options.MaxSweepCells says otherwise: large enough for a 100×-catalogue
// scan, small enough that one request cannot queue an unbounded amount of
// simulation + solving.
const DefaultMaxSweepCells = 8192

// sweepRequestJSON is the POST /v1/sweep body. Axis values are plain JSON
// numbers in [0, 255]; omitting all three axes selects sweep.DefaultGrid.
type sweepRequestJSON struct {
	// Grid selects a preset: "" or "default" for sweep.DefaultGrid (384
	// cells), "large" for sweep.LargeGrid (4096 cells, the 100×-catalogue
	// scan). Mutually exclusive with explicit axes.
	Grid   string `json:"grid,omitempty"`
	Events []int  `json:"events,omitempty"`
	Umasks []int  `json:"umasks,omitempty"`
	Cmasks []int  `json:"cmasks,omitempty"`
	// Seed drives the decoder and the simulated base corpus; the whole
	// sweep is a pure function of (grid, seed, samples, uops_per_sample).
	Seed int64 `json:"seed,omitempty"`
	// Samples and UopsPerSample size the simulated base corpus (defaults
	// from sweep.DefaultBaseSpec).
	Samples       int `json:"samples,omitempty"`
	UopsPerSample int `json:"uops_per_sample,omitempty"`
	// Workers bounds concurrent behaviour-class evaluations (0 = engine
	// worker count). Results are bit-identical at every bound.
	Workers int `json:"workers,omitempty"`
}

type sweepSubmitJSON struct {
	jobs.Status
	// GridSize echoes the expanded cell count the job will scan.
	GridSize int `json:"grid_size"`
}

// sweepAxis converts one JSON axis, range-checking every value.
func sweepAxis(name string, vals []int) ([]uint8, error) {
	out := make([]uint8, 0, len(vals))
	for _, v := range vals {
		if v < 0 || v > 255 {
			return nil, fmt.Errorf("%s value %d out of range [0, 255]", name, v)
		}
		out = append(out, uint8(v))
	}
	return out, nil
}

func (s *Server) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	if !s.durableOK(w) {
		return
	}
	var req sweepRequestJSON
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, bodyStatus(err), "decode request: %v", err)
		return
	}
	cfg, err := s.requestConfig(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Samples < 0 || req.UopsPerSample < 0 {
		writeError(w, http.StatusBadRequest, "samples and uops_per_sample must be non-negative")
		return
	}
	if req.Workers < 0 {
		writeError(w, http.StatusBadRequest, "workers must be non-negative")
		return
	}

	var grid sweep.Grid
	switch req.Grid {
	case "", "default":
		grid = sweep.DefaultGrid()
	case "large":
		grid = sweep.LargeGrid()
	default:
		writeError(w, http.StatusBadRequest, "unknown grid preset %q (want \"default\" or \"large\")", req.Grid)
		return
	}
	if len(req.Events) != 0 || len(req.Umasks) != 0 || len(req.Cmasks) != 0 {
		if req.Grid != "" {
			writeError(w, http.StatusBadRequest, "grid preset and explicit axes are mutually exclusive")
			return
		}
		if len(req.Events) == 0 || len(req.Umasks) == 0 || len(req.Cmasks) == 0 {
			writeError(w, http.StatusBadRequest,
				"a custom grid needs all three axes (events, umasks, cmasks); omit all three for the default grid")
			return
		}
		var err error
		if grid.Events, err = sweepAxis("events", req.Events); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if grid.Umasks, err = sweepAxis("umasks", req.Umasks); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if grid.Cmasks, err = sweepAxis("cmasks", req.Cmasks); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	if grid.Size() > s.maxSweepCells {
		writeError(w, http.StatusBadRequest,
			"grid has %d cells, cap is %d (server -max-sweep-cells)", grid.Size(), s.maxSweepCells)
		return
	}

	j, err := s.jobs.SubmitSweep(jobs.SweepSpec{
		Grid:          grid,
		Seed:          req.Seed,
		Samples:       req.Samples,
		UopsPerSample: req.UopsPerSample,
		Confidence:    cfg.Confidence,
		Mode:          cfg.Mode,
		ForceExact:    cfg.ForceExact,
		Workers:       req.Workers,
		// The shared engine, not a per-job one: class evaluations ride the
		// service worker pool, and cross-scan verdict dedup lands in the
		// content-addressed caches /stats exposes.
		Engine: s.eng,
	})
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
	writeJSON(w, http.StatusAccepted, sweepSubmitJSON{Status: j.Status(), GridSize: grid.Size()})
}
