package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/engine"
	"repro/internal/haswell"
)

func init() {
	registry = append(registry, Experiment{
		Name:  "replay",
		Title: "Appendix C.4: page table walk replays as the bypass mechanism",
		Run:   runReplay,
	})
}

// runReplay reproduces Appendix C.4: replacing the abstract walk-bypassing
// feature with the mechanically concrete walk-replay feature (speculative
// walks abort on machine clears and are replayed non-speculatively at
// retirement, with the replay's references not recorded by walk_ref)
// yields a feasible model — and the feasibility depends on the other
// discovered features: removing miss-merging makes it infeasible again,
// demonstrating that CounterPoint's holistic modelling captures feature
// interactions that isolated analyses miss.
func runReplay(w io.Writer, opts Options) error {
	obs, err := corpus(opts)
	if err != nil {
		return err
	}
	set := haswell.AnalysisSet()

	// In cone terms a replayed walk is exactly a bypassed completion: the
	// walk_done increments, the references do not. The replay model is
	// therefore t0 with the bypass μpaths justified mechanically, plus the
	// abort capability replay requires (cleared walks of squashed μops).
	replay := haswell.DiscoveredModelFeatures()
	replay.PML4ECache = true // t0 derives from m4
	r0, err := haswell.BuildModel("r0", replay, set)
	if err != nil {
		return err
	}
	sess, err := engine.Default().NewSession(r0, engine.Config{})
	if err != nil {
		return err
	}
	res, err := sess.Evaluate(context.Background(), obs)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "r0 (t0 with walk replay; replays' refs uncounted): %d/%d infeasible\n",
		res.Infeasible, res.Total)

	noMerge := replay
	noMerge.Merging = false
	r1, err := haswell.BuildModel("r0-minus-merging", noMerge, set)
	if err != nil {
		return err
	}
	sess1, err := engine.Default().NewSession(r1, engine.Config{})
	if err != nil {
		return err
	}
	res1, err := sess1.Evaluate(context.Background(), obs)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "r0 without miss-merging:                           %d/%d infeasible\n",
		res1.Infeasible, res1.Total)
	if res.Infeasible == 0 && res1.Infeasible > 0 {
		fmt.Fprintln(w, "replay explains the missing walker references only together with")
		fmt.Fprintln(w, "the other discovered features (paper: \"removing other features ...")
		fmt.Fprintln(w, "makes the resulting model infeasible\")")
	}
	return nil
}
