// Package explore implements CounterPoint's guided model exploration
// (paper §5 and Appendix C): the discovery/elimination search over a space
// of microarchitectural features, and the classification of feature
// combinations by their consistency with HEC data (Figures 7, 8 and 10).
//
// The paper drives the search with an expert in the loop: CounterPoint
// reports violated constraints and the expert chooses which feature to add.
// Here a greedy heuristic plays the expert — in the discovery phase it adds
// whichever candidate feature most reduces the number of infeasible
// observations; in the elimination phase it recursively prunes features
// from a feasible model, abandoning a subtree as soon as pruning yields an
// infeasible model (the paper's empirical pruning rule).
//
// # Parallel frontiers
//
// Both phases evaluate one frontier of candidate feature sets at a time —
// every unexplored single-feature extension of the current model in
// discovery, every single-feature removal of a node in elimination. The
// frontier is evaluated concurrently (Search.Workers goroutines, each
// driving an engine session whose observation batches run on the
// engine's bounded worker pool), but results are committed to the search
// graph in the sequential reference order: parallel runs reproduce the
// sequential search — node order, adopted features, final model,
// classification, GraphReport — bit for bit. Workers = 1 selects the
// sequential reference search itself.
//
// # Progress events
//
// A Search with a non-nil Events channel reports structured progress —
// every node evaluated, every feature the discovery phase adopts, every
// subtree the elimination phase prunes, every minimal model found — as the
// search runs, instead of only a final GraphReport. internal/jobs consumes
// these events to stream long-running exploration over HTTP and to
// checkpoint the search graph (see Restore).
package explore

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/engine"
	"repro/internal/stats"
)

// FeatureSet is a set of named microarchitectural features.
type FeatureSet map[string]bool

// NewFeatureSet builds a set from names.
func NewFeatureSet(names ...string) FeatureSet {
	fs := FeatureSet{}
	for _, n := range names {
		fs[n] = true
	}
	return fs
}

// Clone copies the set.
func (fs FeatureSet) Clone() FeatureSet {
	out := make(FeatureSet, len(fs))
	for k, v := range fs {
		if v {
			out[k] = true
		}
	}
	return out
}

// With returns a copy with the feature added.
func (fs FeatureSet) With(name string) FeatureSet {
	out := fs.Clone()
	out[name] = true
	return out
}

// Without returns a copy with the feature removed.
func (fs FeatureSet) Without(name string) FeatureSet {
	out := fs.Clone()
	delete(out, name)
	return out
}

// Names returns the sorted feature names present.
func (fs FeatureSet) Names() []string {
	var out []string
	for k, v := range fs {
		if v {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// Key is a canonical identity for the set.
func (fs FeatureSet) Key() string { return strings.Join(fs.Names(), "+") }

// String renders the set like "{F1, F3}".
func (fs FeatureSet) String() string {
	return "{" + strings.Join(fs.Names(), ", ") + "}"
}

// Builder constructs a model for a feature combination. Builders must be
// safe for concurrent calls with distinct feature sets: parallel frontier
// evaluation invokes one per candidate at a time.
type Builder func(fs FeatureSet) (*core.Model, error)

// Op records how a search node was derived (Figure 10's edge kinds).
type Op string

// Node derivation operations.
const (
	OpInitial    Op = "initial"
	OpDiscovery  Op = "constraint-relaxation" // blue edges: feature added
	OpPruning    Op = "pruning"               // yellow edges: feature removed
	OpEnumerated Op = "enumerated"
)

// Node is one evaluated model in the search graph.
type Node struct {
	Features   FeatureSet `json:"features"`
	Infeasible int        `json:"infeasible"`
	Total      int        `json:"total"`
	// Violated aggregates violated-constraint counts across the corpus
	// (filled only when the search runs with violation identification).
	Violated map[string]int `json:"violated,omitempty"`
	// DerivedFrom is the key of the parent node ("" for the initial node).
	DerivedFrom string `json:"derived_from,omitempty"`
	Op          Op     `json:"op"`
}

// Feasible reports whether every observation was feasible.
func (n *Node) Feasible() bool { return n.Infeasible == 0 }

// EventKind names a progress event.
type EventKind string

// Progress event kinds.
const (
	// EventNodeEvaluated fires when a node is committed to the search
	// graph, in commit (= sequential evaluation) order.
	EventNodeEvaluated EventKind = "node-evaluated"
	// EventFeatureAdopted fires when the discovery phase adopts the best
	// candidate of a frontier; Feature names it, Node is the new model.
	EventFeatureAdopted EventKind = "feature-adopted"
	// EventSubtreePruned fires when the elimination phase abandons a
	// subtree because removing Feature produced the infeasible Node.
	EventSubtreePruned EventKind = "subtree-pruned"
	// EventMinimalModel fires when a node with no feasible children is
	// recorded as a minimal feasible model.
	EventMinimalModel EventKind = "minimal-model"
)

// Event is one structured progress report from a running search.
type Event struct {
	Kind EventKind
	// Node is the node the event concerns (evaluated, adopted, pruned-to,
	// or minimal).
	Node *Node
	// Feature is the feature added (EventFeatureAdopted) or removed
	// (EventSubtreePruned).
	Feature string
	// Step is the discovery step for EventFeatureAdopted.
	Step int
}

// Search runs guided exploration over a corpus. Corpus evaluation runs
// through an engine session per candidate model on a shared engine, so
// the expensive per-observation spectral work is amortised across the
// entire search: every node tests the same corpus, and the engine's
// region cache makes node evaluation cost one LP per observation instead
// of a full region rebuild.
type Search struct {
	Builder    Builder
	Corpus     []*counters.Observation
	Confidence float64
	Mode       stats.NoiseMode
	// IdentifyViolations controls whether constraint deduction runs for
	// infeasible nodes (slower but mirrors the paper's expert feedback).
	IdentifyViolations bool
	// ForceExact routes every verdict to the exact LP tier, bypassing the
	// float filter (engine.Config.ForceExact).
	ForceExact bool
	// MaxDiscoverySteps bounds the discovery phase.
	MaxDiscoverySteps int
	// Engine hosts the evaluation sessions; nil means engine.Default().
	Engine *engine.Engine
	// Ctx cancels an in-flight search between (and inside) node
	// evaluations; nil means context.Background().
	Ctx context.Context
	// Workers bounds how many frontier candidates are evaluated
	// concurrently. 0 means the engine's worker count; 1 selects the
	// sequential reference search. Every setting commits nodes in the
	// sequential order, so results are bit-identical.
	Workers int
	// Events, when non-nil, receives structured progress events. The
	// consumer must keep receiving (or cancel Ctx): sends block, and an
	// event that cannot be delivered before Ctx ends is dropped.
	Events chan<- Event

	nodes  map[string]*Node
	order  []*Node
	staged map[string]*Node
}

// NewSearch builds a search with the paper's defaults.
func NewSearch(b Builder, corpus []*counters.Observation) *Search {
	return &Search{
		Builder:           b,
		Corpus:            corpus,
		Confidence:        core.DefaultConfidence,
		Mode:              stats.Correlated,
		MaxDiscoverySteps: 16,
		nodes:             map[string]*Node{},
		staged:            map[string]*Node{},
	}
}

// Nodes returns every evaluated node in evaluation order. The slice is the
// search graph: it snapshots cleanly mid-search (between frontier commits)
// and round-trips through Restore, which is how internal/jobs checkpoints
// and resumes a search.
func (s *Search) Nodes() []*Node {
	out := make([]*Node, len(s.order))
	copy(out, s.order)
	return out
}

// Restore preloads previously evaluated nodes — typically a checkpoint
// taken with Nodes — so a re-run search returns them without
// re-evaluation. Nodes must be supplied in their original evaluation order
// for the re-run to reproduce the original search bit-for-bit. Keys
// already present are left untouched, and no events are emitted for
// restored nodes.
func (s *Search) Restore(nodes []*Node) {
	if s.nodes == nil {
		s.nodes = map[string]*Node{}
	}
	for _, n := range nodes {
		if n == nil {
			continue
		}
		key := n.Features.Key()
		if _, ok := s.nodes[key]; ok {
			continue
		}
		s.nodes[key] = n
		s.order = append(s.order, n)
	}
}

func (s *Search) engine() *engine.Engine {
	if s.Engine != nil {
		return s.Engine
	}
	return engine.Default()
}

func (s *Search) ctx() context.Context {
	if s.Ctx != nil {
		return s.Ctx
	}
	return context.Background()
}

func (s *Search) workers() int {
	if s.Workers > 0 {
		return s.Workers
	}
	return s.engine().Workers()
}

// emit delivers a progress event, dropping it if the search context ends
// before the consumer takes it.
func (s *Search) emit(ev Event) {
	if s.Events == nil {
		return
	}
	select {
	case s.Events <- ev:
	case <-s.ctx().Done():
	}
}

// build evaluates one feature combination without committing it to the
// search graph. Safe for concurrent use: all mutable search state is
// untouched. The session is created fresh rather than via
// engine.SessionFor: the search memoises each feature set and the Builder
// returns a fresh model pointer per call, so the pointer-keyed session
// cache could never produce a hit — it would only accumulate one dead
// entry per node in a shared engine. Sessions are stateless and cheap;
// the sharing that matters (worker pool, region cache, LP-hash memo, workspace
// pools) is engine-level and fully in effect.
func (s *Search) build(ctx context.Context, fs FeatureSet) (*Node, error) {
	m, err := s.Builder(fs)
	if err != nil {
		return nil, fmt.Errorf("explore: build %s: %w", fs, err)
	}
	sess, err := s.engine().NewSession(m, engine.Config{
		Confidence:         s.Confidence,
		Mode:               s.Mode,
		IdentifyViolations: s.IdentifyViolations,
		ForceExact:         s.ForceExact,
	})
	if err != nil {
		return nil, fmt.Errorf("explore: session %s: %w", fs, err)
	}
	res, err := sess.Evaluate(ctx, s.Corpus)
	if err != nil {
		return nil, fmt.Errorf("explore: evaluate %s: %w", fs, err)
	}
	return &Node{
		Features:   fs.Clone(),
		Infeasible: res.Infeasible,
		Total:      res.Total,
		Violated:   res.ViolatedConstraints,
	}, nil
}

// Evaluate tests one feature combination (memoised) and commits it to the
// search graph. A result staged by a frontier prefetch is adopted instead
// of re-evaluated; either way the node's derivation edge records this
// call's parent and op.
func (s *Search) Evaluate(fs FeatureSet, parent string, op Op) (*Node, error) {
	if s.nodes == nil {
		s.nodes = map[string]*Node{}
	}
	key := fs.Key()
	if n, ok := s.nodes[key]; ok {
		return n, nil
	}
	n, ok := s.staged[key]
	if ok {
		delete(s.staged, key)
	} else {
		var err error
		if n, err = s.build(s.ctx(), fs); err != nil {
			return nil, err
		}
	}
	n.DerivedFrom, n.Op = parent, op
	s.nodes[key] = n
	s.order = append(s.order, n)
	s.emit(Event{Kind: EventNodeEvaluated, Node: n})
	return n, nil
}

// prefetch evaluates a frontier of feature sets concurrently into the
// staging area, where Evaluate picks them up in the sequential commit
// order. Sets already evaluated or staged are skipped; with one worker (or
// a frontier of one) evaluation is left to the lazy sequential path. The
// first evaluation error cancels the rest of the frontier and is returned;
// a cancelled search context is reported even when every launched
// evaluation happened to finish.
func (s *Search) prefetch(frontier []FeatureSet) error {
	if s.staged == nil {
		s.staged = map[string]*Node{}
	}
	var todo []FeatureSet
	seen := map[string]bool{}
	for _, fs := range frontier {
		k := fs.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		if _, ok := s.nodes[k]; ok {
			continue
		}
		if _, ok := s.staged[k]; ok {
			continue
		}
		todo = append(todo, fs)
	}
	if s.workers() <= 1 || len(todo) <= 1 {
		return s.ctx().Err()
	}
	ctx, cancel := context.WithCancel(s.ctx())
	defer cancel()
	sem := make(chan struct{}, s.workers())
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for _, fs := range todo {
		wg.Add(1)
		go func(fs FeatureSet) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				return
			}
			defer func() { <-sem }()
			// Contain panics from the caller-supplied Builder (or anything
			// under it): on this goroutine an unrecovered panic would kill
			// the whole process, not just the search — with Workers=1 the
			// same panic unwinds through the caller, who may have its own
			// recovery (the jobs runner does).
			n, err := func() (n *Node, err error) {
				defer func() {
					if p := recover(); p != nil {
						err = fmt.Errorf("explore: evaluate %s panicked: %v", fs, p)
					}
				}()
				return s.build(ctx, fs)
			}()
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				// Errors caused by the frontier-wide cancellation are
				// echoes of firstErr, not findings of their own.
				if firstErr == nil && ctx.Err() == nil {
					firstErr = err
				}
				cancel()
				return
			}
			s.staged[fs.Key()] = n
		}(fs)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return s.ctx().Err()
}

// Discover runs the discovery phase from the initial feature set: while
// the current model is infeasible, greedily add the candidate feature that
// most reduces the infeasible-observation count (ties broken by name, so
// parallel frontier evaluation cannot change the choice). It returns the
// final node (feasible, or the best reachable if the candidate pool is
// exhausted).
func (s *Search) Discover(initial FeatureSet, candidates []string) (*Node, error) {
	cur, err := s.Evaluate(initial, "", OpInitial)
	if err != nil {
		return nil, err
	}
	cands := sortedCandidates(candidates)
	for step := 0; step < s.MaxDiscoverySteps && !cur.Feasible(); step++ {
		var frontier []FeatureSet
		for _, cand := range cands {
			if !cur.Features[cand] {
				frontier = append(frontier, cur.Features.With(cand))
			}
		}
		if err := s.prefetch(frontier); err != nil {
			return nil, err
		}
		var best *Node
		var bestFeature string
		for _, cand := range cands {
			if cur.Features[cand] {
				continue
			}
			n, err := s.Evaluate(cur.Features.With(cand), cur.Features.Key(), OpDiscovery)
			if err != nil {
				return nil, err
			}
			if best == nil || n.Infeasible < best.Infeasible {
				best, bestFeature = n, cand
			}
		}
		if best == nil || best.Infeasible >= cur.Infeasible {
			// No candidate helps: stuck with the best reachable model.
			return cur, nil
		}
		s.emit(Event{Kind: EventFeatureAdopted, Node: best, Feature: bestFeature, Step: step})
		cur = best
	}
	return cur, nil
}

func sortedCandidates(cs []string) []string {
	out := make([]string, len(cs))
	copy(out, cs)
	sort.Strings(out)
	return out
}

// Eliminate runs the elimination phase from a feasible node: recursively
// remove single features; feasible children are recursed into, infeasible
// children terminate their subtree (the paper's pruning heuristic). Each
// node's children form one frontier, evaluated concurrently. It returns
// every minimal feasible feature set found.
func (s *Search) Eliminate(from *Node, removable []string) ([]*Node, error) {
	var minimal []*Node
	var rec func(n *Node) (bool, error) // returns whether any child stayed feasible
	visited := map[string]bool{}
	sorted := sortedCandidates(removable)
	rec = func(n *Node) (bool, error) {
		if visited[n.Features.Key()] {
			return false, nil
		}
		visited[n.Features.Key()] = true
		var frontier []FeatureSet
		for _, f := range sorted {
			if n.Features[f] {
				frontier = append(frontier, n.Features.Without(f))
			}
		}
		if err := s.prefetch(frontier); err != nil {
			return false, err
		}
		anyFeasibleChild := false
		for _, f := range sorted {
			if !n.Features[f] {
				continue
			}
			child, err := s.Evaluate(n.Features.Without(f), n.Features.Key(), OpPruning)
			if err != nil {
				return false, err
			}
			if child.Feasible() {
				anyFeasibleChild = true
				if _, err := rec(child); err != nil {
					return false, err
				}
			} else {
				s.emit(Event{Kind: EventSubtreePruned, Node: child, Feature: f})
			}
		}
		if !anyFeasibleChild {
			minimal = append(minimal, n)
			s.emit(Event{Kind: EventMinimalModel, Node: n})
		}
		return anyFeasibleChild, nil
	}
	if !from.Feasible() {
		return nil, fmt.Errorf("explore: elimination must start from a feasible model, %s is not", from.Features)
	}
	if _, err := rec(from); err != nil {
		return nil, err
	}
	return minimal, nil
}

// Classification summarises the evaluated model space (Figure 7): which
// features appear in every feasible model (inferred present), and which
// appear in none (unsupported by the data).
type Classification struct {
	FeasibleModels   []FeatureSet
	InfeasibleModels []FeatureSet
	// Required features appear in every feasible model.
	Required []string
	// Optional features appear in some but not all feasible models — the
	// data cannot resolve them (like the paper's PML4E cache).
	Optional []string
}

// Classify analyses all evaluated nodes against the candidate feature
// universe.
func (s *Search) Classify(universe []string) Classification {
	var c Classification
	present := map[string]int{}
	feasibleCount := 0
	for _, n := range s.order {
		if n.Feasible() {
			c.FeasibleModels = append(c.FeasibleModels, n.Features)
			feasibleCount++
			for _, f := range n.Features.Names() {
				present[f]++
			}
		} else {
			c.InfeasibleModels = append(c.InfeasibleModels, n.Features)
		}
	}
	for _, f := range sortedCandidates(universe) {
		switch {
		case feasibleCount > 0 && present[f] == feasibleCount:
			c.Required = append(c.Required, f)
		case present[f] > 0:
			c.Optional = append(c.Optional, f)
		}
	}
	return c
}

// GraphReport renders the search graph as text (Figure 10 stand-in): one
// line per node with its derivation edge, features, and verdict.
func (s *Search) GraphReport() string {
	var b strings.Builder
	for _, n := range s.order {
		verdict := "FEASIBLE"
		if !n.Feasible() {
			verdict = fmt.Sprintf("infeasible (%d/%d)", n.Infeasible, n.Total)
		}
		from := n.DerivedFrom
		if from == "" {
			from = "(start)"
		}
		fmt.Fprintf(&b, "%-12s %-28s <- {%s}  %s\n", n.Op, n.Features.String(), from, verdict)
	}
	return b.String()
}
