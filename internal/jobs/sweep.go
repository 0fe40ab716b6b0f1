package jobs

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/counters"
	"repro/internal/engine"
	"repro/internal/explore"
	"repro/internal/haswell"
	"repro/internal/ordered"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// SweepSpec describes one hidden-event-space sweep job: every cell of a
// raw event×umask×cmask grid is decoded into a synthetic counter
// behaviour and tested against the hypothesis model. See package sweep
// for the decoding rules.
type SweepSpec struct {
	// Grid is the raw config space to scan.
	Grid sweep.Grid
	// Seed drives the decoder and — when Base is nil — the base corpus
	// simulation. The entire sweep is a pure function of (Grid, Seed,
	// Samples, UopsPerSample), which is what makes resume bit-identical.
	Seed int64
	// Samples and UopsPerSample size the simulated base corpus (defaults
	// from sweep.DefaultBaseSpec), within MaxSweepSamples and
	// MaxSweepUops. Ignored when Base is set.
	Samples       int
	UopsPerSample int
	// Base supplies a pre-built base corpus; nil builds one inside the
	// job (so slow simulation does not block submission).
	Base []*counters.Observation
	// Confidence, Mode and ForceExact tune the evaluation session; zero
	// values mean 99%, correlated noise, two-tier solver.
	Confidence float64
	Mode       stats.NoiseMode
	ForceExact bool
	// Workers bounds how many behaviour classes are evaluated
	// concurrently; 0 means the engine's worker count. Every bound runs
	// the same pipeline and commits cells in grid order, so cells, events
	// and checkpoints are bit-identical across settings (pinned by the
	// differential suite).
	Workers int
	// Engine hosts the evaluation session. nil gives the job a private
	// engine created at start and closed at completion. The service
	// passes its shared engine so the sweep's cache dedup shows up in
	// GET /stats.
	Engine *engine.Engine
}

// MaxSweepSamples and MaxSweepUops bound the base corpus one sweep may
// simulate: the samples of each observation, and its micro-ops (samples
// × uops per sample). The micro-op bound is about 9 times
// haswell.DefaultCorpusSpec's 24 × 20000 and 58 times a sweep's default
// base; an observation at it simulates in a few seconds on one core, and
// a sampling interval, the unit a cancelled job stops at, in no more.
const (
	MaxSweepSamples = 4096
	MaxSweepUops    = 1 << 22
)

func (spec SweepSpec) validate() error {
	if err := spec.Grid.Validate(); err != nil {
		return err
	}
	if spec.Base == nil {
		b := sweep.BaseSpec{Samples: spec.Samples, UopsPerSample: spec.UopsPerSample}.WithDefaults()
		if b.Samples > MaxSweepSamples || b.UopsPerSample > MaxSweepUops/b.Samples {
			return fmt.Errorf("jobs: sweep base corpus of %d samples × %d uops per sample is over the bound of %d samples and %d uops per observation",
				b.Samples, b.UopsPerSample, MaxSweepSamples, MaxSweepUops)
		}
	}
	if spec.Confidence != 0 && (spec.Confidence <= 0 || spec.Confidence >= 1) {
		return fmt.Errorf("jobs: sweep confidence must be in (0, 1), got %g", spec.Confidence)
	}
	if spec.Workers < 0 {
		return fmt.Errorf("jobs: sweep workers must be non-negative, got %d", spec.Workers)
	}
	return nil
}

// SweepCell is one grid cell's outcome: the encoding and its per-base-
// observation verdict counts. Cells double as the job's checkpoint, so
// the type must round-trip deterministically.
type SweepCell struct {
	Index int    `json:"index"`
	Code  string `json:"code"`
	Event uint8  `json:"event"`
	Umask uint8  `json:"umask"`
	Cmask uint8  `json:"cmask"`
	Sig   string `json:"sig"`
	// Class is the cell's behaviour class in the scan's plan (classes are
	// numbered in first-occurrence order across the grid). All cells of a
	// class share one engine evaluation; the class representative is the
	// lowest cell index carrying the number.
	Class      int `json:"class"`
	Feasible   int `json:"feasible"`
	Infeasible int `json:"infeasible"`
	// Consistent means no base observation refuted the encoding: its
	// behaviour could be the walk_ref aggregate the model expects.
	Consistent bool `json:"consistent"`
}

// SweepEventData is the Data payload of sweep progress events: "corpus"
// when the job builds its base corpus, "planned" once the behaviour-class
// plan is fixed (Count cells, Classes distinct behaviours, Aliased cells
// that will inherit a verdict), "restored" when the job resumes from a
// checkpoint, and "cell" per committed grid cell.
type SweepEventData struct {
	Cell    *SweepCell `json:"cell,omitempty"`
	Count   int        `json:"count,omitempty"`
	Classes int        `json:"classes,omitempty"`
	Aliased int        `json:"aliased,omitempty"`
}

// SweepResult is a sweep job's result payload.
type SweepResult struct {
	GridSize         int `json:"grid_size"`
	BaseObservations int `json:"base_observations"`
	// UniqueBehaviours counts the distinct behaviour classes the planner
	// found across the grid — the dedup denominator: every cell beyond it
	// inherited a class verdict instead of costing an engine evaluation.
	UniqueBehaviours int `json:"unique_behaviours"`
	// ClassesPlanned echoes UniqueBehaviours; ClassesEvaluated counts the
	// classes this run actually evaluated on the engine (a resumed run
	// inherits restored classes' verdicts); CellsAliased is the grid size
	// minus the plan size.
	ClassesPlanned   int `json:"classes_planned"`
	ClassesEvaluated int `json:"classes_evaluated"`
	CellsAliased     int `json:"cells_aliased"`
	// Consistent / Refuted partition the grid by verdict.
	Consistent int `json:"consistent"`
	Refuted    int `json:"refuted"`
	// Verdicts counts per-observation verdicts attributed across all cells
	// (aliased cells count their inherited verdicts).
	Verdicts int         `json:"verdicts"`
	Cells    []SweepCell `json:"cells"`
}

// sweepStats aggregates dedup telemetry across a manager's sweep jobs.
type sweepStats struct {
	jobs             atomic.Uint64
	cellsPlanned     atomic.Uint64
	classesPlanned   atomic.Uint64
	classesEvaluated atomic.Uint64
	cellsCommitted   atomic.Uint64
	cellsRestored    atomic.Uint64
}

// SweepCounts is a JSON-ready snapshot of a manager's sweep dedup
// telemetry (GET /stats serves it under "sweep").
type SweepCounts struct {
	// Jobs counts sweep runs started (resumes included).
	Jobs uint64 `json:"jobs"`
	// CellsPlanned / ClassesPlanned accumulate plan sizes across runs.
	CellsPlanned   uint64 `json:"cells_planned"`
	ClassesPlanned uint64 `json:"classes_planned"`
	// ClassesEvaluated counts engine evaluations (one per class actually
	// solved); CellsCommitted counts cells committed fresh (restored
	// checkpoint prefixes excluded, reported as CellsRestored).
	ClassesEvaluated uint64 `json:"classes_evaluated"`
	CellsCommitted   uint64 `json:"cells_committed"`
	CellsRestored    uint64 `json:"cells_restored"`
	// EvaluationsAvoided is the dedup ratio: the fraction of freshly
	// committed cells whose verdict was copied from an already-evaluated
	// behaviour class instead of costing an engine evaluation.
	EvaluationsAvoided float64 `json:"evaluations_avoided"`
}

// SweepStats snapshots the manager's accumulated sweep dedup telemetry.
func (m *Manager) SweepStats() SweepCounts {
	c := SweepCounts{
		Jobs:             m.sweep.jobs.Load(),
		CellsPlanned:     m.sweep.cellsPlanned.Load(),
		ClassesPlanned:   m.sweep.classesPlanned.Load(),
		ClassesEvaluated: m.sweep.classesEvaluated.Load(),
		CellsCommitted:   m.sweep.cellsCommitted.Load(),
		CellsRestored:    m.sweep.cellsRestored.Load(),
	}
	if c.CellsCommitted > 0 {
		c.EvaluationsAvoided = 1 - float64(c.ClassesEvaluated)/float64(c.CellsCommitted)
		if c.EvaluationsAvoided < 0 {
			c.EvaluationsAvoided = 0
		}
	}
	return c
}

// SubmitSweep queues a sweep job for spec. Progress is streamed through
// the job's event log (one "cell" event per committed grid cell); the
// committed cell list is checkpointed on every exit path, so Resume
// can continue a cancelled or failed scan from its last completed cell.
func (m *Manager) SubmitSweep(spec SweepSpec) (*Job, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	return m.submit("sweep", m.sweepRunner(spec, nil), spec, "")
}

// Resume submits a new job that continues id's work from its last
// checkpoint, dispatching on the spec it was submitted with. A sweep
// restores its committed cells verbatim and evaluates only the remaining
// grid suffix; an exploration restores its evaluated nodes and searches
// only the unexplored remainder. Determinism of the decoder, the base
// corpus and the search makes the finished result bit-identical to an
// uninterrupted run. The source job must be terminal (cancel it first
// otherwise) and must have been submitted by SubmitSweep, SubmitExplore
// or Resume. It is the entry point behind POST /v1/jobs/{id}/resume.
func (m *Manager) Resume(id string) (*Job, error) {
	j, ok := m.Get(id)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	// A spec rebuilt from the journal is checked as a submitted one is:
	// the journal is a file on disk, and a spec past the bounds would
	// otherwise run unchecked on restart.
	var runner func(checkpoint any) Runner
	switch spec := j.Spec().(type) {
	case SweepSpec:
		if err := spec.validate(); err != nil {
			return nil, err
		}
		runner = func(cp any) Runner {
			cells, _ := cp.([]SweepCell)
			return m.sweepRunner(spec, cells)
		}
	case ExploreSpec:
		if err := spec.validate(); err != nil {
			return nil, err
		}
		runner = func(cp any) Runner {
			nodes, _ := cp.([]*explore.Node)
			return exploreRunner(spec, nodes)
		}
	default:
		return nil, fmt.Errorf("jobs: job %s (kind %q) is not resumable", id, j.Kind)
	}
	// The state is read before the checkpoint: a job seen terminal has
	// stored its final checkpoint.
	if state := j.State(); !state.Terminal() {
		return nil, fmt.Errorf("%w: %s is %s; cancel it before resuming", ErrActive, id, state)
	}
	return m.submit(j.Kind, runner(j.Checkpoint()), j.Spec(), id)
}

// classVerdict is one behaviour class's engine outcome, shared by every
// cell of the class.
type classVerdict struct {
	feasible   int
	infeasible int
}

// sweepRunner is the batched three-stage sweep pipeline:
//
//  1. Plan — group grid cells into behaviour classes by decoder
//     signature before any solving.
//  2. Evaluate — fan class representatives out through ordered.Run
//     (bounded by spec.Workers), one Session.Evaluate per class over its
//     pooled derived corpus.
//  3. Commit — walk cells in strict grid order as class verdicts arrive,
//     copying each cell's class verdict onto it; aliased cells never
//     touch the engine.
//
// Because commit order is the grid order regardless of evaluation
// interleaving, the event log, checkpoints and resume behaviour are the
// same at every worker bound, which the differential suite pins.
func (m *Manager) sweepRunner(spec SweepSpec, restore []SweepCell) Runner {
	return func(ctx context.Context, job *Job) (any, error) {
		m.sweep.jobs.Add(1)
		eng := spec.Engine
		if eng == nil {
			eng = engine.New()
			defer eng.Close()
		}
		base := spec.Base
		if len(base) == 0 {
			var err error
			base, err = sweep.BuildBaseCorpus(ctx, sweep.BaseSpec{
				Samples:       spec.Samples,
				UopsPerSample: spec.UopsPerSample,
				Seed:          spec.Seed,
			})
			if err != nil {
				return nil, fmt.Errorf("jobs: build sweep corpus: %w", err)
			}
			job.Emit("corpus", SweepEventData{Count: len(base)})
		}
		// The hypothesis model is the walker the documented event semantics
		// describe: the discovered feature set minus walk bypassing, so
		// walk_ref must account for every completed walk's loads. Under the
		// full discovered model walk_ref is unbounded below (bypassed walks
		// reference nothing) and every non-negative column is feasible —
		// the hypothesis would be unfalsifiable. Against the no-bypass
		// reference the architectural encoding stays feasible (replays are
		// rare enough to sit inside the confidence region) while almost
		// every other encoding is refuted.
		feats := haswell.DiscoveredModelFeatures()
		feats.WalkBypass = false
		model, err := haswell.BuildModel("sweep/walker-reference", feats, haswell.AnalysisSet())
		if err != nil {
			return nil, fmt.Errorf("jobs: build sweep model: %w", err)
		}
		dec, err := sweep.NewDecoder(spec.Seed, base, model.Set)
		if err != nil {
			return nil, err
		}
		// The planner already collapsed aliases, so within a scan each
		// (class, observation) pair reaches the engine once; the engine's
		// content-addressed region and verdict caches dedup
		// identical content across scans (a repeated seed, a resume).
		// Region keys are digests of the samples, so the pooled
		// DecodeClass buffers are never read back through a stale entry.
		sess, err := eng.NewSession(model, engine.Config{
			Confidence: spec.Confidence,
			Mode:       spec.Mode,
			ForceExact: spec.ForceExact,
		})
		if err != nil {
			return nil, err
		}

		cells := spec.Grid.Cells()
		if len(restore) > len(cells) {
			return nil, fmt.Errorf("jobs: sweep checkpoint has %d cells for a %d-cell grid", len(restore), len(cells))
		}

		// Stage 1: plan. Pure signature computation, no solving.
		plan := dec.Plan(cells)
		classOf := make([]int, len(cells))
		for k, cl := range plan {
			for _, i := range cl.Cells {
				classOf[i] = k
			}
		}
		m.sweep.cellsPlanned.Add(uint64(len(cells)))
		m.sweep.classesPlanned.Add(uint64(len(plan)))
		job.Emit("planned", SweepEventData{
			Count:   len(cells),
			Classes: len(plan),
			Aliased: len(cells) - len(plan),
		})

		// Restored cells seed their class verdicts: a committed cell's
		// counts are by construction its whole class's outcome, so classes
		// any restored cell belongs to need no re-evaluation — their
		// remaining aliases inherit the checkpointed verdict.
		verdicts := make([]*classVerdict, len(plan))
		for _, c := range restore {
			if c.Index < 0 || c.Index >= len(cells) {
				return nil, fmt.Errorf("jobs: sweep checkpoint cell index %d out of range", c.Index)
			}
			if verdicts[classOf[c.Index]] == nil {
				verdicts[classOf[c.Index]] = &classVerdict{feasible: c.Feasible, infeasible: c.Infeasible}
			}
		}
		results := append([]SweepCell(nil), restore...)
		// The checkpoint is the committed cell list. Taken on every exit
		// path — success, error, cancellation, panic — so interrupted
		// scans resume from their last completed cell.
		defer func() {
			job.SetCheckpoint(append([]SweepCell(nil), results...))
		}()
		if len(restore) > 0 {
			m.sweep.cellsRestored.Add(uint64(len(restore)))
			job.Emit("restored", SweepEventData{Count: len(restore)})
		}

		// Classes still needing an engine evaluation, in representative
		// (ascending cell) order. A class absent from the checkpoint has
		// every cell in the unscanned suffix.
		var todo []int
		for k := range plan {
			if verdicts[k] == nil {
				todo = append(todo, k)
			}
		}

		evalClass := func(ctx context.Context, j int) (classVerdict, error) {
			cfg := cells[plan[todo[j]].Cells[0]]
			dv := dec.DecodeClass(cfg)
			defer dec.Release(dv)
			res, err := sess.Evaluate(ctx, dv.Corpus)
			if err != nil {
				return classVerdict{}, fmt.Errorf("jobs: sweep class %s (%s): %w", dv.Sig, cfg, err)
			}
			m.sweep.classesEvaluated.Add(1)
			return classVerdict{feasible: res.Total - res.Infeasible, infeasible: res.Infeasible}, nil
		}
		// commitCells commits, in grid order, every cell from next on whose
		// class verdict is known, checking ctx after each one.
		next := len(restore)
		commitCells := func() error {
			for ; next < len(cells) && verdicts[classOf[next]] != nil; next++ {
				cfg, k := cells[next], classOf[next]
				v := verdicts[k]
				cell := SweepCell{
					Index:      next,
					Code:       cfg.String(),
					Event:      cfg.Event,
					Umask:      cfg.Umask,
					Cmask:      cfg.Cmask,
					Sig:        plan[k].Sig,
					Class:      k,
					Feasible:   v.feasible,
					Infeasible: v.infeasible,
					Consistent: v.infeasible == 0,
				}
				results = append(results, cell)
				m.sweep.cellsCommitted.Add(1)
				// Checkpoint with every committed cell so the durable journal
				// can resume a kill -9'd scan from here. The capped three-index
				// slice is O(1): committed prefixes are immutable, and later
				// appends beyond len can never show through the view. The
				// journal coalesces the burst; only the latest must land.
				job.EmitCheckpoint("cell", SweepEventData{Cell: &cell}, results[:len(results):len(results)])
				if hook := m.opts.AfterSweepCell; hook != nil {
					hook(next)
				}
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			return nil
		}

		// Stages 2+3 overlapped: class evaluations run concurrently
		// (bounded by workers) in representative order, and each verdict,
		// taken in that order, releases the cells up to the next
		// unevaluated class's representative. A class runs
		// Session.Evaluate, which must not run inside an engine pool
		// task, so classes get goroutines of their own.
		workers := spec.Workers
		if workers <= 0 {
			workers = eng.Workers()
		}
		err = commitCells()
		if err == nil {
			err = ordered.Run(ctx, len(todo), workers, ordered.Go, evalClass, func(j int, v classVerdict) error {
				verdicts[todo[j]] = &v
				return commitCells()
			})
		}
		if err != nil {
			if ctx.Err() != nil {
				// The error is an echo of cancellation.
				return nil, ctx.Err()
			}
			return nil, err
		}

		res := &SweepResult{
			GridSize:         len(cells),
			BaseObservations: len(base),
			UniqueBehaviours: len(plan),
			ClassesPlanned:   len(plan),
			ClassesEvaluated: len(todo),
			CellsAliased:     len(cells) - len(plan),
			Cells:            results,
		}
		for _, c := range results {
			res.Verdicts += c.Feasible + c.Infeasible
			if c.Consistent {
				res.Consistent++
			} else {
				res.Refuted++
			}
		}
		return res, nil
	}
}
