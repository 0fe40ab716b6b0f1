package jobs

// Durable wire forms for job specs. A live spec holds closures (an
// explore Builder, a CorpusFunc) and a shared *engine.Engine — none of
// which can be journaled. The wire forms capture the declarative inputs
// those closures were built FROM, and the rebuilders reconstruct
// equivalent specs on recovery; because every job kind is a pure
// function of its declarative inputs, a rebuilt job resumes
// bit-identically from its checkpoint.
//
// The jobstore journals a spec through the DurableSpec hook:
//
//	func (spec T) DurableSpec() (any, bool)
//
// returning the JSON-marshalable wire form (false = not durable; the
// job is journaled for listing but cannot auto-resume).

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/engine"
	"repro/internal/explore"
	"repro/internal/haswell"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// CatalogHaswellMMU names the built-in exploration space: the Table 3
// feature axes over the simulated Haswell MMU (haswell.SearchUniverse).
const CatalogHaswellMMU = "haswell-mmu"

// ExploreWire is the declarative, journal-safe description of an
// exploration job: what the client actually sent, before the server
// turned it into closures. Build resolves it into a runnable
// ExploreSpec; the server submits through it and the recovery path
// replays it, so both construct byte-identical searches.
type ExploreWire struct {
	// Source is a feature-conditional DSL template; Catalog names a
	// built-in feature space. Exactly one must be set.
	Source  string `json:"source,omitempty"`
	Catalog string `json:"catalog,omitempty"`
	// Candidates restricts the searched universe (empty = everything the
	// template or catalogue defines); Initial seeds the starting model.
	Candidates []string `json:"candidates,omitempty"`
	Initial    []string `json:"initial,omitempty"`
	// Observations is the uploaded corpus (required with Source; the
	// catalogue simulates its own when empty).
	Observations []*counters.Observation `json:"observations,omitempty"`
	// Evaluation knobs, straight onto ExploreSpec.
	Confidence         float64         `json:"confidence,omitempty"`
	Mode               stats.NoiseMode `json:"mode,omitempty"`
	IdentifyViolations bool            `json:"identify,omitempty"`
	ForceExact         bool            `json:"force_exact,omitempty"`
	MaxDiscoverySteps  int             `json:"max_steps,omitempty"`
	Workers            int             `json:"workers,omitempty"`
	SkipElimination    bool            `json:"skip_elimination,omitempty"`
}

// Build resolves the wire form into a runnable ExploreSpec (Builder and,
// for a corpus-less catalogue job, CorpusFunc) plus the feature universe
// the template or catalogue defines — callers validate candidate names
// against it. The returned spec carries the wire form, so it is durable.
func (w ExploreWire) Build() (ExploreSpec, []string, error) {
	spec := ExploreSpec{
		Corpus:             w.Observations,
		Initial:            w.Initial,
		Confidence:         w.Confidence,
		Mode:               w.Mode,
		IdentifyViolations: w.IdentifyViolations,
		ForceExact:         w.ForceExact,
		MaxDiscoverySteps:  w.MaxDiscoverySteps,
		Workers:            w.Workers,
		SkipElimination:    w.SkipElimination,
		Wire:               &w,
	}
	var universe []string
	switch {
	case w.Source != "" && w.Catalog != "":
		return spec, nil, fmt.Errorf("request must set exactly one of source and catalog, not both")
	case w.Source != "":
		var err error
		spec.Builder, universe, err = explore.TemplateBuilder("explore", w.Source, nil)
		if err != nil {
			return spec, nil, err
		}
		if len(w.Observations) == 0 {
			return spec, nil, fmt.Errorf("template explorations need an uploaded corpus (observations)")
		}
	case w.Catalog == CatalogHaswellMMU:
		universe = haswell.SearchUniverse()
		set := haswell.AnalysisSet()
		spec.Builder = func(fs explore.FeatureSet) (*core.Model, error) {
			f := haswell.SearchFeatures(func(name string) bool { return fs[name] })
			return haswell.BuildModel("search:"+fs.Key(), f, set)
		}
		if len(w.Observations) == 0 {
			// Simulated corpus, built inside the job: hardware simulation
			// takes far too long to block a submission (or a recovery) on.
			// The simulator itself is not context-aware, so it runs on a
			// side goroutine and a cancelled job abandons it (freeing the
			// job slot; the goroutine finishes its simulation and exits).
			// The quick spec is deterministic, so a recovered job gets the
			// same corpus the crashed one had.
			spec.CorpusFunc = func(ctx context.Context) ([]*counters.Observation, error) {
				type built struct {
					obs []*counters.Observation
					err error
				}
				ch := make(chan built, 1)
				go func() {
					obs, err := haswell.BuildCorpus(haswell.QuickCorpusSpec())
					ch <- built{obs, err}
				}()
				select {
				case b := <-ch:
					return b.obs, b.err
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
		}
	case w.Catalog != "":
		return spec, nil, fmt.Errorf("unknown catalog %q (want %q)", w.Catalog, CatalogHaswellMMU)
	default:
		return spec, nil, fmt.Errorf("request must set source (a DSL template) or catalog")
	}
	spec.Candidates = w.Candidates
	if len(spec.Candidates) == 0 {
		spec.Candidates = universe
	}
	return spec, universe, nil
}

// DurableSpec journals the wire form an ExploreSpec was built from. A
// spec assembled by hand (Go callers wiring their own Builder closure)
// has no wire form and is not durable.
func (spec ExploreSpec) DurableSpec() (any, bool) {
	if spec.Wire == nil {
		return nil, false
	}
	return *spec.Wire, true
}

// sweepWire is SweepSpec's durable form: the pure-function inputs. The
// Engine is process-local and rebuilt on recovery.
type sweepWire struct {
	Events        []uint8                 `json:"events"`
	Umasks        []uint8                 `json:"umasks"`
	Cmasks        []uint8                 `json:"cmasks"`
	Seed          int64                   `json:"seed,omitempty"`
	Samples       int                     `json:"samples,omitempty"`
	UopsPerSample int                     `json:"uops_per_sample,omitempty"`
	Base          []*counters.Observation `json:"base,omitempty"`
	Confidence    float64                 `json:"confidence,omitempty"`
	Mode          stats.NoiseMode         `json:"mode,omitempty"`
	ForceExact    bool                    `json:"force_exact,omitempty"`
	Workers       int                     `json:"workers,omitempty"`
}

// DurableSpec journals a sweep's defining inputs; sweeps are always
// durable because the whole scan is a pure function of them.
func (spec SweepSpec) DurableSpec() (any, bool) {
	return sweepWire{
		Events:        spec.Grid.Events,
		Umasks:        spec.Grid.Umasks,
		Cmasks:        spec.Grid.Cmasks,
		Seed:          spec.Seed,
		Samples:       spec.Samples,
		UopsPerSample: spec.UopsPerSample,
		Base:          spec.Base,
		Confidence:    spec.Confidence,
		Mode:          spec.Mode,
		ForceExact:    spec.ForceExact,
		Workers:       spec.Workers,
	}, true
}

// RebuildSweep returns the jobstore rebuilder for "sweep" jobs: it
// decodes the journaled wire spec and checkpoint back into the typed
// forms Manager.Resume expects, attaching the daemon's shared engine.
func RebuildSweep(eng *engine.Engine) func(spec, checkpoint []byte) (any, any, error) {
	return func(spec, checkpoint []byte) (any, any, error) {
		var w sweepWire
		if err := json.Unmarshal(spec, &w); err != nil {
			return nil, nil, fmt.Errorf("jobs: decode sweep spec: %w", err)
		}
		s := SweepSpec{
			Grid:          sweep.Grid{Events: w.Events, Umasks: w.Umasks, Cmasks: w.Cmasks},
			Seed:          w.Seed,
			Samples:       w.Samples,
			UopsPerSample: w.UopsPerSample,
			Base:          w.Base,
			Confidence:    w.Confidence,
			Mode:          w.Mode,
			ForceExact:    w.ForceExact,
			Workers:       w.Workers,
			Engine:        eng,
		}
		if len(checkpoint) == 0 {
			return s, nil, nil
		}
		var cp []SweepCell
		if err := json.Unmarshal(checkpoint, &cp); err != nil {
			return nil, nil, fmt.Errorf("jobs: decode sweep checkpoint: %w", err)
		}
		return s, cp, nil
	}
}

// RebuildExplore returns the jobstore rebuilder for "explore" jobs. The
// rebuilt spec keeps Engine nil — exploration runs on a private per-job
// engine, exactly like a fresh submission.
func RebuildExplore() func(spec, checkpoint []byte) (any, any, error) {
	return func(spec, checkpoint []byte) (any, any, error) {
		var w ExploreWire
		if err := json.Unmarshal(spec, &w); err != nil {
			return nil, nil, fmt.Errorf("jobs: decode explore spec: %w", err)
		}
		s, _, err := w.Build()
		if err != nil {
			return nil, nil, fmt.Errorf("jobs: rebuild explore spec: %w", err)
		}
		if len(checkpoint) == 0 {
			return s, nil, nil
		}
		var cp []*explore.Node
		if err := json.Unmarshal(checkpoint, &cp); err != nil {
			return nil, nil, fmt.Errorf("jobs: decode explore checkpoint: %w", err)
		}
		return s, cp, nil
	}
}
