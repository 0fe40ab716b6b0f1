// Command counterpoint tests microarchitectural models against hardware
// event counter observations (the paper's Figure 2 workflow).
//
// A model is a μDD written in the CounterPoint DSL; an observation is a CSV
// of counter samples (header row of event names, one row per sampling
// interval, as written by hswsim or converted from perf output). Several
// observation CSVs — a corpus — may be given; they are evaluated
// concurrently through one engine session, printing verdicts in corpus
// order.
//
// Usage:
//
//	counterpoint -model model.dsl [-obs samples.csv] [more.csv ...] [flags]
//
// Flags:
//
//	-model path      DSL file describing the μDD (required)
//	-obs path        observation CSV; positional arguments add more
//	-constraints     deduce and print the complete model-constraint set
//	-paths           print every μpath of the μDD
//	-confidence p    confidence level for feasibility (default 0.99)
//	-independent     use naive independent confidence regions
//	-first           stop at the first refuting observation
//
// Exit status: 0 when every observation is feasible (or none was given),
// 2 when the model is refuted, 1 on errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/dsl"
	"repro/internal/engine"
	"repro/internal/stats"
)

func main() {
	var (
		modelPath   = flag.String("model", "", "DSL file describing the μDD (required)")
		obsPath     = flag.String("obs", "", "observation CSV to test (positional args add more)")
		showCons    = flag.Bool("constraints", false, "deduce and print all model constraints")
		showPaths   = flag.Bool("paths", false, "print every μpath")
		confidence  = flag.Float64("confidence", core.DefaultConfidence, "confidence level")
		independent = flag.Bool("independent", false, "use independent (naive) confidence regions")
		first       = flag.Bool("first", false, "stop at the first refuting observation")
		dot         = flag.Bool("dot", false, "emit the μDD as Graphviz dot and exit")
		format      = flag.Bool("format", false, "reformat the DSL source to stdout and exit")
		diffPath    = flag.String("diff", "", "second DSL model: compare model cones and exit")
	)
	flag.Parse()
	if *dot || *format {
		if err := renderOnly(*modelPath, *dot); err != nil {
			fmt.Fprintln(os.Stderr, "counterpoint:", err)
			os.Exit(1)
		}
		return
	}
	if *diffPath != "" {
		if err := diffModels(*modelPath, *diffPath); err != nil {
			fmt.Fprintln(os.Stderr, "counterpoint:", err)
			os.Exit(1)
		}
		return
	}
	var obsPaths []string
	if *obsPath != "" {
		obsPaths = append(obsPaths, *obsPath)
	}
	obsPaths = append(obsPaths, flag.Args()...)
	if err := run(*modelPath, obsPaths, *showCons, *showPaths, *confidence, *independent, *first); err != nil {
		fmt.Fprintln(os.Stderr, "counterpoint:", err)
		if err == errRefuted {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// renderOnly handles the -dot and -format modes.
func renderOnly(modelPath string, dot bool) error {
	if modelPath == "" {
		return fmt.Errorf("-model is required (see -h)")
	}
	src, err := os.ReadFile(modelPath)
	if err != nil {
		return err
	}
	if dot {
		diagram, err := dsl.Compile(modelPath, string(src))
		if err != nil {
			return err
		}
		fmt.Print(diagram.DOT())
		return nil
	}
	out, err := dsl.FormatSource(string(src))
	if err != nil {
		return err
	}
	fmt.Print(out)
	return nil
}

var errRefuted = fmt.Errorf("model refuted by observation")

// diffModels compares the model cones of two μDDs over their shared
// counters — the §5 refinement check ("the model cones are verified to
// ensure that the model cone is expanded"): whether each cone contains the
// other, and which of the first model's constraints the second relaxes.
func diffModels(pathA, pathB string) error {
	load := func(path string) (*core.Model, error) {
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		d, err := dsl.Compile(path, string(src))
		if err != nil {
			return nil, err
		}
		return core.NewModel(path, d, nil)
	}
	ma, err := load(pathA)
	if err != nil {
		return err
	}
	mb, err := load(pathB)
	if err != nil {
		return err
	}
	shared := ma.Set.Union(mb.Set)
	ma, err = ma.Restrict(shared)
	if err != nil {
		return err
	}
	mb, err = mb.Restrict(shared)
	if err != nil {
		return err
	}
	fmt.Printf("counters (%d): %s\n", shared.Len(), shared)
	aInB := ma.Cone().SubsetOf(mb.Cone())
	bInA := mb.Cone().SubsetOf(ma.Cone())
	fmt.Printf("cone(%s) ⊆ cone(%s): %v\n", pathA, pathB, aInB)
	fmt.Printf("cone(%s) ⊆ cone(%s): %v\n", pathB, pathA, bInA)
	switch {
	case aInB && bInA:
		fmt.Println("the models are observationally equivalent")
	case aInB:
		fmt.Printf("%s is a refinement: it expands the model cone\n", pathB)
	case bInA:
		fmt.Printf("%s is a refinement: it expands the model cone\n", pathA)
	default:
		fmt.Println("the cones are incomparable")
	}
	ha, err := ma.Constraints()
	if err != nil {
		return err
	}
	relaxed := 0
	for _, k := range ha.All() {
		if !mb.Cone().Implies(k) {
			fmt.Printf("relaxed by %s: %s\n", pathB, k)
			relaxed++
		}
	}
	if relaxed == 0 {
		fmt.Printf("%s implies every constraint of %s\n", pathB, pathA)
	}
	return nil
}

func run(modelPath string, obsPaths []string, showCons, showPaths bool, confidence float64, independent bool, first bool) error {
	if modelPath == "" {
		return fmt.Errorf("-model is required (see -h)")
	}
	src, err := os.ReadFile(modelPath)
	if err != nil {
		return err
	}
	diagram, err := dsl.Compile(modelPath, string(src))
	if err != nil {
		return err
	}

	// Analyse over the intersection: events the model talks about that
	// every observation recorded.
	var corpus []*counters.Observation
	set := diagram.Counters()
	for _, path := range obsPaths {
		o, err := readObservation(path)
		if err != nil {
			return err
		}
		set = set.Restrict(o.Set)
		if set.Len() == 0 {
			return fmt.Errorf("observation %s shares no counters with the model", path)
		}
		corpus = append(corpus, o)
	}

	model, err := core.NewModel(modelPath, diagram, set)
	if err != nil {
		return err
	}
	fmt.Printf("model: %s\n", modelPath)
	fmt.Printf("counters (%d): %s\n", set.Len(), set)
	fmt.Printf("μpaths: %d, cone generators: %d\n", model.NumPaths(), len(model.Cone().Generators))

	if showPaths {
		paths, err := diagram.Paths()
		if err != nil {
			return err
		}
		for i, p := range paths {
			fmt.Printf("μpath %d: %s\n", i, diagram.PathString(p))
		}
	}
	if showCons {
		h, err := model.Constraints()
		if err != nil {
			return err
		}
		fmt.Printf("model constraints (%d):\n", len(h.All()))
		for _, k := range h.All() {
			fmt.Printf("  %s\n", k)
		}
	}
	if len(corpus) == 0 {
		return nil
	}

	mode := stats.Correlated
	if independent {
		mode = stats.Independent
	}
	sess, err := engine.Default().NewSession(model, engine.Config{
		Confidence:         confidence,
		Mode:               mode,
		IdentifyViolations: true,
		StopOnInfeasible:   first,
	})
	if err != nil {
		return err
	}

	// Evaluate the corpus through the session, printing verdicts in corpus
	// order as they arrive.
	res, err := sess.EvaluateEach(context.Background(), corpus, func(i int, v *core.Verdict, err error) {
		if err != nil {
			return // returned by EvaluateEach
		}
		o := corpus[i]
		fmt.Printf("observation: %s (%d samples, %s regions, %.0f%% confidence)\n",
			o.Label, o.Len(), mode, confidence*100)
		if v.Feasible {
			fmt.Println("verdict: FEASIBLE — the observation is consistent with the model")
			return
		}
		fmt.Println("verdict: INFEASIBLE — the model is refuted at this confidence level")
		for _, k := range v.Violations {
			fmt.Printf("violated: %s\n", k)
		}
	})
	if err != nil {
		return err
	}
	if len(corpus) > 1 {
		fmt.Printf("corpus: %d/%d observations infeasible\n", res.Infeasible, res.Total)
		keys := make([]string, 0, len(res.ViolatedConstraints))
		for k := range res.ViolatedConstraints {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("violated by %d observations: %s\n", res.ViolatedConstraints[k], k)
		}
	}
	if res.Infeasible > 0 {
		return errRefuted
	}
	return nil
}

func readObservation(path string) (*counters.Observation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return counters.ReadCSV(f, path)
}
