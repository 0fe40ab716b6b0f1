package jobs

import (
	"context"
	"fmt"

	"repro/internal/counters"
	"repro/internal/engine"
	"repro/internal/explore"
	"repro/internal/stats"
)

// ExploreSpec describes one guided-exploration job: the paper's §5 /
// Appendix C discovery-and-elimination search, run asynchronously.
type ExploreSpec struct {
	// Builder instantiates a model per feature combination (for example
	// explore.TemplateBuilder's output, or a haswell.BuildModel closure).
	Builder explore.Builder
	// Corpus is evaluated by every search node. When nil, CorpusFunc
	// supplies it at job start (inside the job, so slow corpus generation
	// — simulated hardware runs — does not block submission).
	Corpus     []*counters.Observation
	CorpusFunc func(ctx context.Context) ([]*counters.Observation, error)
	// Candidates is the feature universe the search explores; Initial
	// seeds the starting model.
	Candidates []string
	Initial    []string
	// Confidence, Mode, IdentifyViolations and ForceExact tune evaluation;
	// zero values mean the explore package defaults (99%, correlated, off,
	// two-tier solver).
	Confidence         float64
	Mode               stats.NoiseMode
	IdentifyViolations bool
	ForceExact         bool
	// MaxDiscoverySteps bounds the discovery phase (0 = explore default).
	MaxDiscoverySteps int
	// Workers bounds concurrent frontier evaluation (0 = engine worker
	// count). Results are identical at every bound.
	Workers int
	// SkipElimination stops after the discovery phase.
	SkipElimination bool
	// Engine hosts the evaluation sessions. nil gives the job a private
	// engine created at start and closed at completion, so the job's
	// region cache — keyed by its corpus pointers — dies with it
	// instead of pinning the corpus in a shared engine for the life of
	// the process.
	Engine *engine.Engine
	// Wire is the declarative description this spec was built from
	// (ExploreWire.Build sets it). It is what the durable journal records;
	// a hand-assembled spec without it is not journal-recoverable.
	Wire *ExploreWire
}

func (spec ExploreSpec) validate() error {
	if spec.Builder == nil {
		return fmt.Errorf("jobs: explore spec needs a Builder")
	}
	if len(spec.Corpus) == 0 && spec.CorpusFunc == nil {
		return fmt.Errorf("jobs: explore spec needs a Corpus or CorpusFunc")
	}
	if len(spec.Candidates) == 0 {
		return fmt.Errorf("jobs: explore spec needs candidate features")
	}
	return nil
}

// NodeJSON is the wire form of one search node, used in progress events
// and results.
type NodeJSON struct {
	Features    []string       `json:"features"`
	Key         string         `json:"key"`
	Infeasible  int            `json:"infeasible"`
	Total       int            `json:"total"`
	Feasible    bool           `json:"feasible"`
	Op          string         `json:"op,omitempty"`
	DerivedFrom string         `json:"derived_from,omitempty"`
	Violated    map[string]int `json:"violated,omitempty"`
}

func nodeJSON(n *explore.Node) NodeJSON {
	names := n.Features.Names()
	if names == nil {
		names = []string{} // the initial (empty) set is [], not null, on the wire
	}
	return NodeJSON{
		Features:    names,
		Key:         n.Features.Key(),
		Infeasible:  n.Infeasible,
		Total:       n.Total,
		Feasible:    n.Feasible(),
		Op:          string(n.Op),
		DerivedFrom: n.DerivedFrom,
		Violated:    n.Violated,
	}
}

// ExploreEventData is the Data payload of exploration progress events
// (event kinds are the explore.EventKind strings, plus "corpus" when the
// job builds its corpus and "restored" when it resumes from a
// checkpoint). Step is a pointer so the first discovery step — step 0 —
// still appears on the wire.
type ExploreEventData struct {
	Node    *NodeJSON `json:"node,omitempty"`
	Feature string    `json:"feature,omitempty"`
	Step    *int      `json:"step,omitempty"`
	Count   int       `json:"count,omitempty"`
}

// ExploreResult is an exploration job's result payload.
type ExploreResult struct {
	// Final is the discovery phase's last node; Converged reports whether
	// it is feasible.
	Final     NodeJSON `json:"final"`
	Converged bool     `json:"converged"`
	// Minimal lists the elimination phase's minimal feasible models.
	Minimal []NodeJSON `json:"minimal,omitempty"`
	// Required and Optional classify the candidate universe (Figure 7):
	// features in every feasible model, and features the data cannot
	// resolve.
	Required []string `json:"required,omitempty"`
	Optional []string `json:"optional,omitempty"`
	// NodesEvaluated counts the search graph (restored nodes included);
	// Graph is the Figure 10-style text rendering.
	NodesEvaluated int    `json:"nodes_evaluated"`
	Graph          string `json:"graph"`
}

// SubmitExplore queues an exploration job for spec. Progress is streamed
// through the job's event log; the committed search graph is checkpointed
// on every exit path, so Resume can continue a cancelled, failed or
// crashed search from its last completed frontier.
func (m *Manager) SubmitExplore(spec ExploreSpec) (*Job, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	return m.submit("explore", exploreRunner(spec, nil), spec, "")
}

func exploreRunner(spec ExploreSpec, restore []*explore.Node) Runner {
	return func(ctx context.Context, job *Job) (any, error) {
		eng := spec.Engine
		if eng == nil {
			eng = engine.New()
			defer eng.Close()
		}
		corpus := spec.Corpus
		if len(corpus) == 0 {
			// validate() guarantees CorpusFunc is set when Corpus is empty
			// (nil or a decoded-empty slice alike).
			var err error
			if corpus, err = spec.CorpusFunc(ctx); err != nil {
				return nil, fmt.Errorf("jobs: build corpus: %w", err)
			}
			job.Emit("corpus", ExploreEventData{Count: len(corpus)})
		}
		if len(corpus) == 0 {
			// A zero-observation search would report every model vacuously
			// feasible and call it convergence.
			return nil, fmt.Errorf("jobs: exploration corpus is empty")
		}
		s := explore.NewSearch(spec.Builder, corpus)
		s.Engine = eng
		s.Ctx = ctx
		s.Workers = spec.Workers
		s.Mode = spec.Mode
		s.IdentifyViolations = spec.IdentifyViolations
		s.ForceExact = spec.ForceExact
		if spec.Confidence != 0 {
			s.Confidence = spec.Confidence
		}
		if spec.MaxDiscoverySteps > 0 {
			s.MaxDiscoverySteps = spec.MaxDiscoverySteps
		}

		// Progress goes into the job's event log as the search emits it,
		// on the search goroutine. Each committed node (restored prefix
		// included) is checkpointed as it lands, so the durable journal
		// tracks the frontier as it grows — a kill -9 between exit-path
		// checkpoints still resumes from the last committed node. Node
		// events arrive in commit order regardless of Workers, so the
		// incremental checkpoints match s.Nodes() prefixes exactly.
		committed := append([]*explore.Node(nil), restore...)
		s.Events = func(ev explore.Event) {
			data := ExploreEventData{Feature: ev.Feature}
			if ev.Kind == explore.EventFeatureAdopted {
				step := ev.Step
				data.Step = &step
			}
			if ev.Node != nil {
				n := nodeJSON(ev.Node)
				data.Node = &n
			}
			if ev.Kind == explore.EventNodeEvaluated && ev.Node != nil {
				committed = append(committed, ev.Node)
				job.EmitCheckpoint(string(ev.Kind), data, committed[:len(committed):len(committed)])
			} else {
				job.Emit(string(ev.Kind), data)
			}
		}
		// The checkpoint is the committed search graph. Taken on every exit
		// path — success, error, cancellation, panic — so interrupted jobs
		// resume from their last completed frontier.
		defer func() { job.SetCheckpoint(s.Nodes()) }()

		s.Restore(restore)
		if len(restore) > 0 {
			job.Emit("restored", ExploreEventData{Count: len(restore)})
		}

		final, err := s.Discover(explore.NewFeatureSet(spec.Initial...), spec.Candidates)
		if err != nil {
			return nil, err
		}
		res := &ExploreResult{Converged: final.Feasible()}
		if final.Feasible() && !spec.SkipElimination {
			minimal, err := s.Eliminate(final, spec.Candidates)
			if err != nil {
				return nil, err
			}
			for _, n := range minimal {
				res.Minimal = append(res.Minimal, nodeJSON(n))
			}
		}
		c := s.Classify(spec.Candidates)
		res.Required, res.Optional = c.Required, c.Optional
		res.Final = nodeJSON(final)
		res.NodesEvaluated = len(s.Nodes())
		res.Graph = s.GraphReport()
		return res, nil
	}
}
