package engine

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/counters"
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
	// EphemeralObservations marks the session's observations as
	// request-scoped data that will never be evaluated again: confidence
	// regions are built fresh per verdict instead of being inserted into
	// the engine's region cache, whose pointer keys would otherwise pin
	// every payload (and, once the cap fills, disable region caching for
	// everything else) in a long-lived service. It governs region caching
	// only: the LP-hash memo and the verdict cache are content-keyed and
	// pin nothing, so ephemeral sessions share them like any other.
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

// test evaluates one observation using pooled scratch state. The region
// content key, with the model's, addresses the LP-hash memo, and the hash
// the verdict cache; a verdict hit never builds the LP (violations are
// closed-form over the region). The LP is built at most once, into the
// scratch workspace: on a memo miss, to hash it, and for any solve.
func (s *Session) test(sc *evalScratch, o *counters.Observation) (*core.Verdict, error) {
	region := s.eng.regions.Region
	if s.cfg.EphemeralObservations {
		region = s.eng.regions.RegionUncached
	}
	r, err := region(o, s.model.Set, s.cfg.Confidence, s.cfg.Mode)
	if err != nil {
		return nil, err
	}
	var p *simplex.Problem
	k := lpKey{model: s.model.ContentKey(), region: r.Key()}
	hash, ok := s.eng.lpHash(k)
	if !ok {
		if p, err = s.buildLP(sc, r); err != nil {
			return nil, err
		}
		hash = core.HashLP(p)
		s.eng.memoLPHash(k, hash)
	}
	var v *core.Verdict
	feasible, hit := false, false
	if !s.cfg.ForceExact {
		feasible, hit = s.eng.cachedVerdict(hash)
	}
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
		sv := core.Solver{Exact: sc.ws, Cert: sc.cert, Stats: s.eng.solver}
		if !s.cfg.ForceExact {
			sv.Filter = sc.fl
		}
		v, err = s.model.TestRegionLP(&sv, p, r, s.cfg.IdentifyViolations)
		if err == nil && !s.cfg.ForceExact {
			s.eng.storeVerdict(hash, v.Feasible)
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

// chunk is one pool task's share of an EvaluateEach run. The task writes
// n verdicts into its own slots of the run's verdict slice, stopping early
// at an evaluation error (err, at slot n), at an infeasible verdict under
// StopOnInfeasible, or on cancellation; done closes when it returns.
type chunk struct {
	done chan struct{}
	n    int
	err  error
}

// runChunk evaluates obs into out on a pool worker.
func (s *Session) runChunk(ctx context.Context, c *chunk, obs []*counters.Observation, out []*core.Verdict) {
	defer close(c.done)
	sc := s.eng.getScratch()
	defer s.eng.putScratch(sc)
	for i, o := range obs {
		if ctx.Err() != nil {
			return
		}
		v, err := s.test(sc, o)
		if err != nil {
			c.err = err
			return
		}
		out[i] = v
		c.n++
		if s.cfg.StopOnInfeasible && !v.Feasible {
			return
		}
	}
}

// EvaluateEach tests every observation of corpus against the session's
// model on the engine's worker pool and returns the aggregate. The corpus
// is cut into Config.BatchSize chunks, at most two per worker in flight;
// the calling goroutine consumes them in order and, when fn is non-nil,
// calls fn(i, v, nil) for each verdict in corpus order.
//
// The run stops at the lowest-index evaluation error — fn then receives
// (i, nil, err) for it and EvaluateEach returns err — or, with
// Config.StopOnInfeasible, after the lowest-index infeasible verdict. In
// both cases the result covers exactly the corpus prefix before that
// point (the infeasible verdict included), at any worker count. A
// cancelled ctx returns the delivered prefix with ctx's error; a closed
// engine returns ErrClosed. Every pool task has finished when EvaluateEach
// returns. Must not be called from inside an engine pool task — it blocks
// on pool capacity.
func (s *Session) EvaluateEach(ctx context.Context, corpus []*counters.Observation, fn func(i int, v *core.Verdict, err error)) (*CorpusResult, error) {
	res := &CorpusResult{Model: s.model.Name, ViolatedConstraints: map[string]int{}}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	size := s.cfg.BatchSize
	verdicts := make([]*core.Verdict, len(corpus))
	chunks := make([]chunk, (len(corpus)+size-1)/size)
	window := 2 * s.eng.workers
	submitted := 0
	var runErr, submitErr error
	stopped := false
	for k := 0; k < len(chunks) && !stopped && runErr == nil; k++ {
		for submitErr == nil && submitted < len(chunks) && submitted < k+window {
			start := submitted * size
			end := min(start+size, len(corpus))
			c := &chunks[submitted]
			c.done = make(chan struct{})
			submitErr = s.eng.submit(cctx, func() {
				s.runChunk(cctx, c, corpus[start:end], verdicts[start:end])
			})
			if submitErr == nil {
				submitted++
			}
		}
		if k == submitted {
			runErr = submitErr
			break
		}
		c := &chunks[k]
		<-c.done
		start := k * size
		for i := start; i < start+c.n; i++ {
			v := verdicts[i]
			res.Total++
			if !v.Feasible {
				res.Infeasible++
				for _, vc := range v.Violations {
					res.ViolatedConstraints[vc.String()]++
				}
			}
			if fn != nil {
				fn(i, v, nil)
			}
			if s.cfg.StopOnInfeasible && !v.Feasible {
				stopped = true
				break
			}
		}
		switch {
		case stopped:
		case c.err != nil:
			if fn != nil {
				fn(start+c.n, nil, c.err)
			}
			runErr = c.err
		case start+c.n < min(start+size, len(corpus)):
			runErr = ctx.Err() // only the caller's context cuts a chunk short
		}
	}
	cancel()
	for k := range chunks[:submitted] {
		<-chunks[k].done
	}
	clear(verdicts[res.Total:])
	res.Verdicts = verdicts[:res.Total:res.Total]
	return res, runErr
}

// Evaluate tests every observation of corpus against the session's model
// and returns the aggregate — EvaluateEach without a per-verdict callback,
// and the drop-in replacement for the seed's core.EvaluateCorpus.
func (s *Session) Evaluate(ctx context.Context, corpus []*counters.Observation) (*CorpusResult, error) {
	return s.EvaluateEach(ctx, corpus, nil)
}

// EvaluateCorpus is a one-shot convenience: a session on the default
// engine with the given settings, evaluated over corpus.
func EvaluateCorpus(ctx context.Context, m *core.Model, corpus []*counters.Observation, confidence float64, mode stats.NoiseMode, identifyViolations bool) (*CorpusResult, error) {
	s, err := Default().NewSession(m, Config{
		Confidence:         confidence,
		Mode:               mode,
		IdentifyViolations: identifyViolations,
	})
	if err != nil {
		return nil, err
	}
	return s.Evaluate(ctx, corpus)
}
