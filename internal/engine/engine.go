// Package engine is CounterPoint's batched feasibility engine: the layer
// that turns package core's single-verdict testing into high-throughput
// corpus evaluation (paper §7.2 calls feasibility testing "embarrassingly
// parallel"; this package is where that parallelism lives).
//
// An Engine is long-lived. It owns
//
//   - a bounded, context-aware worker pool shared by every Session,
//   - a content-addressed LRU of confidence regions, keyed by a digest
//     of the samples a region is built from, so every model tested
//     against the same data (a sweep, the refine loop, a re-sent
//     request) shares one covariance and eigendecomposition; cached
//     regions hold the model's counter set and derived numbers only,
//     never a request's payload,
//   - content-addressed LRUs from (model, region) to canonical LP hash
//     and from LP hash to verdict, optionally backed by a VerdictStore,
//   - a pool of simplex.Workspaces so the exact LP reuses its rational
//     tableau from verdict to verdict,
//   - a cache of Restricted models, so counter-group sweeps (Figure 1b/9)
//     share μpath enumeration and cone construction per counter set.
//
// A Session binds one model to an evaluation configuration (confidence,
// noise mode, violation identification, batching, early exit). Sessions
// are cheap; create one per model and reuse it for every corpus. See
// session.go for the evaluation API (EvaluateEach and its adapters).
package engine

import (
	"context"
	"errors"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/floatlp"
	"repro/internal/mudd"
	"repro/internal/simplex"
	"repro/internal/stats"
)

// ErrClosed is returned by operations on an engine after Close.
var ErrClosed = errors.New("engine: closed")

// Engine is a long-lived evaluation runtime. The zero value is not usable;
// call New. Engines are safe for concurrent use.
type Engine struct {
	workers      int
	builder      *stats.RegionBuilder
	solver       *core.SolverStats
	caches       *cacheStats
	store        VerdictStore
	lpLimit      int
	verdictLimit int

	tasks chan func()
	quit  chan struct{}
	wg    sync.WaitGroup

	closeOnce sync.Once

	scratch sync.Pool // *evalScratch

	mu     sync.Mutex
	models *lruCache[restrictKey, *core.Model]

	lpMu sync.Mutex
	lps  *lruCache[lpKey, core.LPHash]

	verdictMu sync.Mutex
	verdicts  *lruCache[core.LPHash, bool]

	sessMu   sync.Mutex
	sessions *lruCache[sessionKey, *Session]

	regionMu sync.Mutex
	regions  *lruCache[[16]byte, *stats.Region]
}

// sessionKey identifies a shared session. Config is a comparable value
// type, and models served repeatedly are themselves shared (the server
// registry hands out one *core.Model per registered name), so pointer
// identity plus the normalised configuration is the right notion of
// sameness.
type sessionKey struct {
	model *core.Model
	cfg   Config
}

type restrictKey struct {
	diagram *mudd.Diagram
	set     string
}

// lpKey addresses the LP-hash memo by content: the model's content key
// and the region's content key (the sample digest it was built from).
// Both are digests, so an entry pins nothing of the request that
// produced it, and identical payloads arriving through different
// pointers share one entry.
type lpKey struct {
	model  string
	region [16]byte
}

// evalScratch is the per-worker reusable state: the exact LP workspace,
// the float-filter workspace of the two-tier solver, the certificate
// checker's int64-kernel scratch and the region digest's hash state.
// Pooled rather than per-worker so Session.Test (which runs inline,
// off-pool) can borrow one too.
type evalScratch struct {
	ws     *simplex.Workspace
	fl     *floatlp.Workspace
	cert   *simplex.Certifier
	digest stats.RegionDigest
}

// Option configures an Engine.
type Option func(*Engine)

// WithWorkers bounds the worker pool. Values below 1 are clamped to 1. The
// default is runtime.GOMAXPROCS(0).
func WithWorkers(n int) Option {
	return func(e *Engine) {
		if n < 1 {
			n = 1
		}
		e.workers = n
	}
}

// WithVerdictStore attaches a persistent verdict store (typically
// perfdb's): verdict-cache misses read through to it and fresh verdicts
// write through, so content-addressed verdicts survive process restarts.
func WithVerdictStore(s VerdictStore) Option {
	return func(e *Engine) { e.store = s }
}

// WithCacheLimits overrides the LP-hash memo and verdict cache bounds.
// Values below 1 keep the corresponding default.
func WithCacheLimits(lps, verdicts int) Option {
	return func(e *Engine) {
		if lps >= 1 {
			e.lpLimit = lps
		}
		if verdicts >= 1 {
			e.verdictLimit = verdicts
		}
	}
}

// New starts an engine with its worker pool running. Call Close to stop the
// workers when the engine is no longer needed; the package-level Default
// engine stays up for the life of the process.
func New(opts ...Option) *Engine {
	e := &Engine{
		workers:      runtime.GOMAXPROCS(0),
		builder:      stats.NewRegionBuilder(),
		solver:       &core.SolverStats{},
		caches:       &cacheStats{},
		lpLimit:      lpCacheLimit,
		verdictLimit: verdictCacheLimit,
		quit:         make(chan struct{}),
	}
	for _, o := range opts {
		o(e)
	}
	e.models = newLRU[restrictKey, *core.Model](modelCacheLimit)
	e.lps = newLRU[lpKey, core.LPHash](e.lpLimit)
	e.verdicts = newLRU[core.LPHash, bool](e.verdictLimit)
	e.sessions = newLRU[sessionKey, *Session](sessionCacheLimit)
	e.regions = newLRU[[16]byte, *stats.Region](regionCacheLimit)
	e.scratch.New = func() any {
		return &evalScratch{
			ws:   simplex.NewWorkspace(),
			fl:   floatlp.NewWorkspace(),
			cert: simplex.NewCertifier(),
		}
	}
	e.tasks = make(chan func())
	e.wg.Add(e.workers)
	for i := 0; i < e.workers; i++ {
		go func() {
			defer e.wg.Done()
			for {
				select {
				case f := <-e.tasks:
					f()
				case <-e.quit:
					return
				}
			}
		}()
	}
	return e
}

var (
	defaultOnce   sync.Once
	defaultEngine *Engine
)

// Default returns the shared process-wide engine, created on first use and
// never closed. Command-line tools and experiments share it so the region
// and model caches amortise across an entire run.
func Default() *Engine {
	defaultOnce.Do(func() { defaultEngine = New() })
	return defaultEngine
}

// Workers reports the pool bound.
func (e *Engine) Workers() int { return e.workers }

// SolverStats snapshots the engine's two-tier solver telemetry: total
// evaluations, float-filter hits by verdict, certification failures and
// exact fallbacks. Counters accumulate across every session of the engine.
func (e *Engine) SolverStats() core.SolverCounts { return e.solver.Snapshot() }

// Close stops the worker pool and waits for in-flight tasks to finish.
// Pending submissions fail with ErrClosed. Close is idempotent.
func (e *Engine) Close() {
	e.closeOnce.Do(func() { close(e.quit) })
	e.wg.Wait()
}

// submit hands f to the pool, blocking until a worker frees up, ctx is
// done, or the engine closes.
func (e *Engine) submit(ctx context.Context, f func()) error {
	select {
	case e.tasks <- f:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-e.quit:
		return ErrClosed
	}
}

func (e *Engine) getScratch() *evalScratch  { return e.scratch.Get().(*evalScratch) }
func (e *Engine) putScratch(s *evalScratch) { e.scratch.Put(s) }

// lpCacheLimit bounds the (model, region) → LP-hash memo. The memo is
// LRU: workloads that revisit pairs keep their hot set resident no matter
// how many one-shot LPs (explore searches evaluate each node once) pass
// through in between.
const lpCacheLimit = 1 << 16

// verdictCacheLimit bounds the in-memory content-addressed verdict
// cache. Entries are a hash and a bool, so the cap is generous.
const verdictCacheLimit = 1 << 18

// regionCacheLimit bounds the content-addressed region LRU. A region over
// n counters holds about 8n²+16n bytes of axes, mean and half-widths, so
// the cap is about 15 MB at 20 counters.
const regionCacheLimit = 1 << 12

// region returns the confidence region of o projected onto the session
// model's counter set, from the region LRU when a region over the same
// content is cached and built afresh otherwise. Concurrent misses on one
// digest may both build; the first to finish is kept and the other is
// dropped, which is cheaper than holding a lock across the spectral work.
// A fresh region takes the digest as its Key.
func (s *Session) region(sc *evalScratch, o *counters.Observation) (*stats.Region, error) {
	e := s.eng
	k := sc.digest.Key(o, s.model.Set, s.cfg.Confidence, s.cfg.Mode)
	e.regionMu.Lock()
	r, ok := e.regions.Get(k)
	e.regionMu.Unlock()
	if ok {
		e.caches.regionHits.Add(1)
		return r, nil
	}
	e.caches.regionMisses.Add(1)
	r, err := e.builder.RegionKeyed(o, s.model.Set, s.cfg.Confidence, s.cfg.Mode, k)
	if err != nil {
		return nil, err
	}
	e.regionMu.Lock()
	r = e.regions.Add(k, r)
	e.regionMu.Unlock()
	return r, nil
}

// lpHash returns the memoised canonical LP hash for k, if any.
func (e *Engine) lpHash(k lpKey) (core.LPHash, bool) {
	e.lpMu.Lock()
	h, ok := e.lps.Get(k)
	e.lpMu.Unlock()
	if ok {
		e.caches.lpHits.Add(1)
	} else {
		e.caches.lpMisses.Add(1)
	}
	return h, ok
}

// memoLPHash records the canonical hash of k's LP.
func (e *Engine) memoLPHash(k lpKey, h core.LPHash) {
	e.lpMu.Lock()
	e.lps.Add(k, h)
	e.lpMu.Unlock()
}

// modelFor returns m restricted to set, memoised per (diagram, set) so
// counter-group sweeps over the same diagram share μpath enumeration and
// cone construction. The base model itself is cached too, keyed by its own
// set, so repeated sweeps converge on one instance per step.
func (e *Engine) modelFor(m *core.Model, set *counters.Set) (*core.Model, error) {
	if set == nil || m.Set.Equal(set) {
		return m, nil
	}
	k := restrictKey{diagram: m.Diagram, set: set.Key()}
	e.mu.Lock()
	cached, ok := e.models.Get(k)
	e.mu.Unlock()
	if ok {
		return cached, nil
	}
	restricted, err := m.Restrict(set)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	restricted = e.models.Add(k, restricted) // first writer wins
	e.mu.Unlock()
	return restricted, nil
}

// modelCacheLimit bounds the restricted-model LRU cache.
const modelCacheLimit = 1 << 12
