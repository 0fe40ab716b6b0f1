package engine

import (
	"math"

	"repro/internal/core"
)

// This file is the engine's online-refutation fold: instead of collecting
// a corpus and calling Evaluate, a caller tests observations one at a
// time with Session.Test as they arrive (a perf_event_open group emitting
// samples continuously, counterpointd's /v1/streams ingest) and adds each
// verdict to a StreamFold. The fold is defined so that the state after N
// verdicts is bit-identical to the state derived from a cold batch
// Evaluate of the same N-observation corpus (StateOf); the differential
// suite in incremental_diff_test.go pins this at every prefix.

// StreamState is the monotone verdict state of a stream: a comparable
// scalar summary of every observation folded in so far.
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
// a StreamFold reports after adding the verdicts of the corpus behind res
// in order. This is the reference side of the incremental-vs-batch
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

// StreamFold folds verdicts into a stream's state one at a time, in
// arrival order: the online twin of EvaluateEach's aggregation. After the
// verdicts of a corpus prefix are added, State equals StateOf a batch
// Evaluate of that prefix and Violated equals its ViolatedConstraints. A
// fold holds no lock; its owner serialises Add and every read.
type StreamFold struct {
	State StreamState
	// Violated counts, per constraint, the infeasible verdicts violating
	// it (populated only when the session's Config.IdentifyViolations is
	// set, exactly as in batch evaluation).
	Violated   map[string]int
	confidence float64
}

// NewStreamFold returns the empty fold of a stream evaluated at the
// given confidence (the session's Config().Confidence).
func NewStreamFold(confidence float64) StreamFold {
	return StreamFold{
		State:      StreamState{FirstRefuted: -1},
		Violated:   map[string]int{},
		confidence: confidence,
	}
}

// Add folds in the next verdict and returns its 0-based arrival index. A
// caller whose evaluation failed has no verdict to add, so a failed or
// cancelled evaluation is never counted.
func (f *StreamFold) Add(v *core.Verdict) int {
	idx := f.State.Total
	f.State.Total++
	if !v.Feasible {
		f.State.Infeasible++
		f.State.Refuted = true
		if f.State.FirstRefuted < 0 {
			f.State.FirstRefuted = idx
		}
		f.State.Confidence = RefutationConfidence(f.confidence, f.State.Infeasible)
		for _, k := range v.Violations {
			f.Violated[k.String()]++
		}
	}
	return idx
}
