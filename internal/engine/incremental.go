package engine

import (
	"context"
	"errors"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/counters"
)

// This file is the engine's online-refutation path: instead of collecting
// a corpus and calling Evaluate, a caller opens an IncrementalSession and
// feeds observations one at a time as they arrive (a perf_event_open
// group emitting samples continuously, counterpointd's /v1/streams
// ingest). Each Ingest evaluates exactly one observation — taking its
// confidence region from the engine's region cache and deciding its
// LP on a dedicated scratch — and folds the verdict into a monotone
// stream state. The fold is defined so that the state after N ingests is
// bit-identical to the state derived from a cold batch Evaluate of the
// same N-observation corpus (StateOf); the differential suite in
// incremental_diff_test.go pins this at every prefix.

// ErrSessionClosed is returned by Ingest after Close.
var ErrSessionClosed = errors.New("engine: incremental session closed")

// StreamState is the monotone verdict state of an incremental session:
// a comparable scalar summary of every observation ingested so far.
//
// The state machine is one-way: Refuted flips from false to true on the
// first infeasible observation and never back — subsequent feasible
// observations cannot un-refute a model, they only leave Infeasible and
// Confidence where they are. All fields except FirstRefuted are
// order-invariant: ingesting the same observations in any order yields
// the same Total, Infeasible, Refuted and Confidence (FirstRefuted
// records arrival order by definition).
type StreamState struct {
	// Total counts ingested observations; Infeasible counts the refuting
	// ones.
	Total      int `json:"total"`
	Infeasible int `json:"infeasible"`
	// Refuted reports whether any observation has been infeasible — the
	// one-way phase of the stream.
	Refuted bool `json:"refuted"`
	// FirstRefuted is the ingest index (0-based) of the first refuting
	// observation, or -1 while the stream is consistent. It matches the
	// index of the first infeasible verdict of a batch evaluation of the
	// same corpus in the same order.
	FirstRefuted int `json:"first_refuted"`
	// Confidence is the refutation confidence: 0 while the stream is
	// consistent, 1-(1-c)^Infeasible once refuted (see
	// RefutationConfidence).
	Confidence float64 `json:"confidence"`
}

// RefutationConfidence is the stream's aggregate confidence that the
// model is genuinely refuted: each of the m infeasible observations is
// an independent measurement whose confidence region misses the model
// cone, and a false refutation requires every one of those regions to
// have missed the true counter means — probability at most (1-c)^m. The
// result is 0 while m = 0, tightens monotonically with each refuting
// observation, and depends only on (c, m), never on arrival order, so
// the incremental fold and the batch derivation agree bit-for-bit.
func RefutationConfidence(confidence float64, infeasible int) float64 {
	if infeasible <= 0 {
		return 0
	}
	return 1 - math.Pow(1-confidence, float64(infeasible))
}

// StateOf derives the stream state a batch evaluation implies: the state
// an incremental session would report after ingesting the corpus behind
// res in order. This is the reference side of the incremental-vs-batch
// differential contract — the two paths must agree bit-for-bit on every
// field, FirstRefuted included.
func StateOf(res *CorpusResult, confidence float64) StreamState {
	st := StreamState{
		Total:        res.Total,
		Infeasible:   res.Infeasible,
		Refuted:      res.Infeasible > 0,
		FirstRefuted: -1,
		Confidence:   RefutationConfidence(confidence, res.Infeasible),
	}
	for i, v := range res.Verdicts {
		if !v.Feasible {
			st.FirstRefuted = i
			break
		}
	}
	return st
}

// IngestResult is one Ingest's outcome: the observation's verdict, its
// ingest index, and the stream state after folding it in.
type IngestResult struct {
	// Index is the observation's 0-based position in the ingest order.
	Index   int
	Verdict *core.Verdict
	State   StreamState
}

// IncrementalSession evaluates observations one at a time as they
// arrive, maintaining the monotone stream state. Create with
// Session.Incremental, feed with Ingest, and Close when the stream ends
// so the dedicated scratch returns to the engine pool.
//
// Ingests are serialised (Ingest holds the session lock for the solve):
// an incremental session models one ordered sample stream, and its
// FirstRefuted is defined by arrival order. Open one session per stream;
// sessions are independent.
type IncrementalSession struct {
	s *Session

	mu     sync.Mutex
	sc     *evalScratch
	st     StreamState
	viol   map[string]int
	closed bool
}

// Incremental opens an online-refutation session: a dedicated evaluation
// scratch is checked out of the engine pool for the session's lifetime,
// so ingests pay no pool round trip. Call Close when done.
func (s *Session) Incremental() *IncrementalSession {
	return &IncrementalSession{
		s:    s,
		sc:   s.eng.getScratch(),
		st:   StreamState{FirstRefuted: -1},
		viol: map[string]int{},
	}
}

// Session returns the underlying session.
func (inc *IncrementalSession) Session() *Session { return inc.s }

// Ingest evaluates one observation and folds its verdict into the
// stream state, returning both. The verdict is computed exactly as a
// batch evaluation would compute it — same region construction, same
// two-tier solve, same content-addressed caches — so the state after N
// ingests matches StateOf a batch Evaluate of the same prefix
// bit-for-bit. An evaluation error (or a cancelled ctx) leaves the
// state untouched: the observation is not counted.
func (inc *IncrementalSession) Ingest(ctx context.Context, o *counters.Observation) (IngestResult, error) {
	if err := ctx.Err(); err != nil {
		return IngestResult{}, err
	}
	inc.mu.Lock()
	defer inc.mu.Unlock()
	if inc.closed {
		return IngestResult{}, ErrSessionClosed
	}
	v, err := inc.s.test(inc.sc, o)
	if err != nil {
		return IngestResult{}, err
	}
	idx := inc.st.Total
	inc.st.Total++
	if !v.Feasible {
		inc.st.Infeasible++
		inc.st.Refuted = true
		if inc.st.FirstRefuted < 0 {
			inc.st.FirstRefuted = idx
		}
		inc.st.Confidence = RefutationConfidence(inc.s.cfg.Confidence, inc.st.Infeasible)
		for _, k := range v.Violations {
			inc.viol[k.String()]++
		}
	}
	return IngestResult{Index: idx, Verdict: v, State: inc.st}, nil
}

// State snapshots the current stream state.
func (inc *IncrementalSession) State() StreamState {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	return inc.st
}

// Violated returns a copy of the per-constraint violation counts
// aggregated across every infeasible ingest — the incremental twin of
// CorpusResult.ViolatedConstraints (populated only when the session's
// Config.IdentifyViolations is set, exactly as in batch evaluation).
func (inc *IncrementalSession) Violated() map[string]int {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	out := make(map[string]int, len(inc.viol))
	for k, n := range inc.viol {
		out[k] = n
	}
	return out
}

// Close ends the session, returning its scratch to the engine pool. The
// final state stays readable through State and Violated; further
// Ingests fail with ErrSessionClosed. Close is idempotent.
func (inc *IncrementalSession) Close() {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	if inc.closed {
		return
	}
	inc.closed = true
	inc.s.eng.putScratch(inc.sc)
	inc.sc = nil
}
