package engine

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/ordered"
	"repro/internal/simplex"
	"repro/internal/stats"
)

// Config tunes a Session.
type Config struct {
	// Confidence is the region confidence level; 0 means
	// core.DefaultConfidence (the paper's 99%).
	Confidence float64
	// Mode selects the noise model (default Correlated, the paper's).
	Mode stats.NoiseMode
	// IdentifyViolations deduces the model constraints up front and names
	// the violated ones on every infeasible verdict.
	IdentifyViolations bool
	// BatchSize groups observations per worker task; larger batches
	// amortise scheduling for tiny models. 0 means DefaultBatchSize.
	BatchSize int
	// StopOnInfeasible cancels the remaining evaluation as soon as one
	// infeasible observation is found — the early-exit mode for "is this
	// model refuted at all?" queries (explore's pruning phase).
	StopOnInfeasible bool
	// ForceExact routes every verdict straight to the exact rational
	// simplex, bypassing the float64 revised-simplex filter and the
	// content-addressed verdict cache. Verdicts are identical either way
	// (every filter claim is exactly certified and every cached verdict
	// is an exact one); the knob exists for benchmarking the accelerated
	// paths against the cold baseline and as an operational escape hatch.
	ForceExact bool
	// Deprecated: EphemeralObservations has no effect. The region cache
	// is content-addressed and pins no observation, so request-scoped
	// data shares it like any other; withDefaults clears the field, so
	// configurations differing only here share a session.
	EphemeralObservations bool
}

// DefaultBatchSize is the observations-per-task grouping used when
// Config.BatchSize is zero.
const DefaultBatchSize = 4

func (c Config) withDefaults() Config {
	if c.Confidence == 0 {
		c.Confidence = core.DefaultConfidence
	}
	if c.BatchSize <= 0 {
		c.BatchSize = DefaultBatchSize
	}
	c.EphemeralObservations = false
	return c
}

// Session binds one model to an evaluation configuration on an engine.
// Sessions are safe for concurrent use and cheap to create.
type Session struct {
	eng   *Engine
	model *core.Model
	cfg   Config
}

// NewSession creates a session for m. When cfg.IdentifyViolations is set
// the model constraints are deduced eagerly so worker verdicts share the
// cache instead of racing to build it.
func (e *Engine) NewSession(m *core.Model, cfg Config) (*Session, error) {
	cfg = cfg.withDefaults()
	// The negated form also rejects NaN, which would otherwise slip
	// through range checks and fail deep inside LP construction.
	if !(cfg.Confidence > 0 && cfg.Confidence < 1) {
		return nil, fmt.Errorf("engine: confidence must be in (0,1), got %g", cfg.Confidence)
	}
	if cfg.IdentifyViolations {
		if _, err := m.Constraints(); err != nil {
			return nil, err
		}
	}
	return &Session{eng: e, model: m, cfg: cfg}, nil
}

// sessionCacheLimit bounds the shared-session cache; like the engine's
// other caches it degrades to building fresh sessions past the cap.
const sessionCacheLimit = 1 << 12

// SessionFor returns the engine's shared session for (m, cfg), creating it
// on first use. Concurrent callers with the same model and configuration —
// the steady state of a long-lived service handling many requests against
// one registered model — receive the same *Session, so eager constraint
// deduction happens once and verdicts share every engine cache. cfg is
// normalised first: configurations differing only in unspecified defaults
// share a session.
func (e *Engine) SessionFor(m *core.Model, cfg Config) (*Session, error) {
	k := sessionKey{model: m, cfg: cfg.withDefaults()}
	e.sessMu.Lock()
	s, ok := e.sessions.Get(k)
	e.sessMu.Unlock()
	if ok {
		return s, nil
	}
	// Built outside the lock: session construction may deduce the model's
	// constraints, which is far too slow to serialise other lookups behind.
	s, err := e.NewSession(m, k.cfg)
	if err != nil {
		return nil, err
	}
	e.sessMu.Lock()
	s = e.sessions.Add(k, s) // first writer wins
	e.sessMu.Unlock()
	return s, nil
}

// Model returns the model under test.
func (s *Session) Model() *core.Model { return s.model }

// Config returns the session configuration (defaults filled in).
func (s *Session) Config() Config { return s.cfg }

// Restrict returns a session over the same engine and configuration whose
// model is restricted to set. Restricted models are memoised engine-wide,
// so the Figure 1b/9 counter-group sweeps share μpath and cone work.
func (s *Session) Restrict(set *counters.Set) (*Session, error) {
	m, err := s.eng.modelFor(s.model, set)
	if err != nil {
		return nil, err
	}
	return s.eng.NewSession(m, s.cfg)
}

// test evaluates one observation using pooled scratch state. The digest
// of the observation's samples addresses the region LRU, and the region
// content key (with the model's) the verdict LRU; a verdict hit never
// builds the LP (violations are closed-form over the region). On a
// memory miss the LP is built once, into the scratch workspace, and
// hashed only when a store is attached, to consult it and write through.
func (s *Session) test(sc *evalScratch, o *counters.Observation) (*core.Verdict, error) {
	r, err := s.region(sc, o)
	if err != nil {
		return nil, err
	}
	e := s.eng
	k := lpKey{model: s.model.ContentKey(), region: r.Key()}
	var p *simplex.Problem
	var hash core.LPHash
	feasible, hit := false, false
	if !s.cfg.ForceExact {
		feasible, hit = e.cachedVerdict(k)
		if !hit && e.store != nil {
			if p, err = s.buildLP(sc, r); err != nil {
				return nil, err
			}
			hash = core.HashLP(p)
			feasible, hit = e.storedVerdict(k, hash)
		}
		if hit {
			e.caches.verdictHits.Add(1)
		} else {
			e.caches.verdictMisses.Add(1)
		}
	}
	var v *core.Verdict
	if hit {
		v, err = s.model.VerdictForRegion(r, feasible, s.cfg.IdentifyViolations)
	} else {
		if p == nil {
			if p, err = s.buildLP(sc, r); err != nil {
				return nil, err
			}
		}
		// ForceExact is the cold baseline: no float filter or verdict
		// cache, only a from-scratch exact solve.
		sv := core.Solver{Exact: sc.ws, Cert: sc.cert, Stats: e.solver}
		if !s.cfg.ForceExact {
			sv.Filter = sc.fl
		}
		v, err = s.model.TestRegionLP(&sv, p, r, s.cfg.IdentifyViolations)
		if err == nil && !s.cfg.ForceExact {
			e.recordVerdict(k, hash, v.Feasible)
		}
	}
	if err != nil {
		return nil, err
	}
	v.Observation = o.Label
	return v, nil
}

// buildLP builds r's feasibility LP into the scratch workspace.
func (s *Session) buildLP(sc *evalScratch, r *stats.Region) (*simplex.Problem, error) {
	p := sc.ws.Prepare(0)
	return p, s.model.RegionLP(p, r)
}

// Test evaluates a single observation inline (no pool round-trip), still
// sharing the engine's region and workspace caches.
func (s *Session) Test(ctx context.Context, o *counters.Observation) (*core.Verdict, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sc := s.eng.getScratch()
	defer s.eng.putScratch(sc)
	return s.test(sc, o)
}

// CorpusResult summarises evaluating one model over a corpus. It is the
// engine-level replacement for the seed's core.CorpusResult.
type CorpusResult struct {
	Model string
	// Infeasible counts infeasible verdicts; Total counts evaluated
	// observations. A run that stops early — an evaluation error, an
	// early exit, a cancelled context — covers exactly the corpus prefix
	// whose verdicts were delivered.
	Infeasible int
	Total      int
	// ViolatedConstraints aggregates, across all infeasible observations,
	// how many observations violated each constraint (keyed by its string).
	ViolatedConstraints map[string]int
	// Verdicts holds the evaluated verdicts in corpus order: Verdicts[i]
	// corresponds to the i-th observation.
	Verdicts []*core.Verdict
}

// Feasible reports whether every evaluated observation was feasible.
func (r *CorpusResult) Feasible() bool { return r.Infeasible == 0 }

// errStop ends an EvaluateEach run after the first infeasible verdict
// under Config.StopOnInfeasible; EvaluateEach returns nil for it.
var errStop = errors.New("engine: stopped on infeasible")

// chunkResult is what one pool task hands back: the verdicts of a corpus
// chunk's prefix, and the evaluation error that cut the chunk short, if
// any.
type chunkResult struct {
	verdicts []*core.Verdict
	err      error
}

// evalChunk evaluates obs with one borrowed scratch, stopping at an
// evaluation error, after an infeasible verdict under StopOnInfeasible,
// or with ctx's error once ctx ends.
func (s *Session) evalChunk(ctx context.Context, obs []*counters.Observation) (chunkResult, error) {
	sc := s.eng.getScratch()
	defer s.eng.putScratch(sc)
	c := chunkResult{verdicts: make([]*core.Verdict, 0, len(obs))}
	for _, o := range obs {
		if err := ctx.Err(); err != nil {
			return c, err
		}
		v, err := s.test(sc, o)
		if err != nil {
			c.err = err
			break
		}
		c.verdicts = append(c.verdicts, v)
		if s.cfg.StopOnInfeasible && !v.Feasible {
			break
		}
	}
	return c, nil
}

// EvaluateEach tests every observation of corpus against the session's
// model and returns the aggregate. It is ordered.Run over Config.BatchSize
// chunks of the corpus, each chunk one task on the engine's worker pool,
// at most 2 * Workers chunks claimed and not yet consumed. The calling
// goroutine consumes them in order and, when fn is non-nil, calls
// fn(i, v, nil) for each verdict in corpus order.
//
// The run stops at the lowest-index evaluation error — fn then receives
// (i, nil, err) for it and EvaluateEach returns err — or, with
// Config.StopOnInfeasible, after the lowest-index infeasible verdict. In
// both cases the result covers exactly the corpus prefix before that
// point (the infeasible verdict included), at any worker count. A panic
// inside an evaluation is returned as an error, with the result ending
// before the panicking chunk. A cancelled ctx returns the delivered
// prefix with ctx's error; a closed engine returns ErrClosed. Every pool
// task has finished when EvaluateEach returns. Must not be called from
// inside an engine pool task — it blocks on pool capacity.
func (s *Session) EvaluateEach(ctx context.Context, corpus []*counters.Observation, fn func(i int, v *core.Verdict, err error)) (*CorpusResult, error) {
	res := &CorpusResult{
		Model:               s.model.Name,
		ViolatedConstraints: map[string]int{},
		Verdicts:            make([]*core.Verdict, 0, len(corpus)),
	}
	size := s.cfg.BatchSize
	err := ordered.Run(ctx, (len(corpus)+size-1)/size, 2*s.eng.workers, s.eng.submit,
		func(ctx context.Context, k int) (chunkResult, error) {
			return s.evalChunk(ctx, corpus[k*size:min(k*size+size, len(corpus))])
		},
		func(_ int, c chunkResult) error {
			for _, v := range c.verdicts {
				res.Verdicts = append(res.Verdicts, v)
				res.Total++
				if !v.Feasible {
					res.Infeasible++
					for _, vc := range v.Violations {
						res.ViolatedConstraints[vc.String()]++
					}
				}
				if fn != nil {
					fn(res.Total-1, v, nil)
				}
				if s.cfg.StopOnInfeasible && !v.Feasible {
					return errStop
				}
			}
			if c.err != nil && fn != nil {
				fn(res.Total, nil, c.err)
			}
			return c.err
		})
	if errors.Is(err, errStop) {
		err = nil
	}
	return res, err
}

// Evaluate tests every observation of corpus against the session's model
// and returns the aggregate — EvaluateEach without a per-verdict callback.
func (s *Session) Evaluate(ctx context.Context, corpus []*counters.Observation) (*CorpusResult, error) {
	return s.EvaluateEach(ctx, corpus, nil)
}
