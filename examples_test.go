package repro_test

// Godoc-visible, executable versions of the headline examples/ programs.
// Each Example mirrors one runnable walkthrough — examples/quickstart,
// examples/engine, examples/service, examples/explore-service — compacted
// to a deterministic transcript, so `go test ./...` executes the
// documentation and it cannot rot. The examples/ directories remain the
// narrated `go run`-able versions.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/engine"
	"repro/internal/jobs"
	"repro/internal/server"
	"repro/internal/stats"
)

const pdeModelSrc = `
incr load.causes_walk;
do   LookupPde$;
switch Pde$Status {
    Hit  => pass;
    Miss => incr load.pde$_miss;
};
done;
`

func pdeSet() *counters.Set {
	return counters.NewSet("load.causes_walk", "load.pde$_miss")
}

// synthObs synthesises an observation hovering around (cw, pm): cw >= pm
// is consistent with the PDE-cache model, cw < pm refutes it (the paper's
// Haswell anomaly).
func synthObs(label string, cw, pm float64, samples int, seed int64) *counters.Observation {
	o := counters.NewObservation(label, pdeSet())
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < samples; i++ {
		o.Append([]float64{cw + rng.NormFloat64(), pm + rng.NormFloat64()})
	}
	return o
}

// Example_quickstart is the paper's §1 walkthrough: write a mental model
// of the PDE cache in the DSL, deduce its model constraints, and test it
// against a consistent observation and the pde$_miss > causes_walk
// anomaly that refutes it. (examples/quickstart is the runnable version.)
func Example_quickstart() {
	model, err := core.ModelFromDSL("pde-cache", pdeModelSrc, pdeSet())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model has %d μpaths\n", model.NumPaths())
	h, err := model.Constraints()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("deduced model constraints:")
	for _, k := range h.All() {
		fmt.Printf("  %s\n", k)
	}
	for _, tc := range []struct {
		label  string
		cw, pm float64
	}{
		{"well-behaved", 1000, 700},
		{"haswell-anomaly", 700, 1000},
	} {
		v, err := model.TestObservation(synthObs(tc.label, tc.cw, tc.pm, 200, 1),
			core.DefaultConfidence, stats.Correlated, true)
		if err != nil {
			log.Fatal(err)
		}
		if v.Feasible {
			fmt.Printf("%s: FEASIBLE\n", tc.label)
			continue
		}
		fmt.Printf("%s: INFEASIBLE, violating:\n", tc.label)
		for _, k := range v.Violations {
			fmt.Printf("  %s\n", k)
		}
	}
	// Output:
	// model has 2 μpaths
	// deduced model constraints:
	//   load.pde$_miss <= load.causes_walk
	//   0 <= load.pde$_miss
	// well-behaved: FEASIBLE
	// haswell-anomaly: INFEASIBLE, violating:
	//   load.pde$_miss <= load.causes_walk
}

// Example_engine drives the batched feasibility engine: a Session bound to
// one model evaluates a whole corpus through the worker pool, aggregates
// the refutations, and — with StopOnInfeasible — stops the run at the
// first refutation in corpus order. (examples/engine is the runnable version.)
func Example_engine() {
	model, err := core.ModelFromDSL("pde-cache", pdeModelSrc, pdeSet())
	if err != nil {
		log.Fatal(err)
	}
	corpus := make([]*counters.Observation, 0, 20)
	for i := 0; i < 20; i++ {
		cw, pm := 1000.0, 700.0
		if i%10 == 9 {
			cw, pm = 700.0, 1000.0 // anomalous
		}
		corpus = append(corpus, synthObs(fmt.Sprintf("run-%02d", i), cw, pm, 400, int64(i)))
	}
	eng := engine.New(engine.WithWorkers(4))
	defer eng.Close()
	sess, err := eng.NewSession(model, engine.Config{IdentifyViolations: true})
	if err != nil {
		log.Fatal(err)
	}
	res, err := sess.Evaluate(context.Background(), corpus)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("corpus: %d/%d observations refute the model\n", res.Infeasible, res.Total)
	var names []string
	for k := range res.ViolatedConstraints {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  violated %d times: %s\n", res.ViolatedConstraints[k], k)
	}

	// Early exit: StopOnInfeasible stops the run at the first refutation
	// in corpus order, so the partial result is the same at any worker
	// count.
	early, err := eng.NewSession(model, engine.Config{StopOnInfeasible: true})
	if err != nil {
		log.Fatal(err)
	}
	partial, err := early.EvaluateEach(context.Background(), corpus, func(i int, v *core.Verdict, err error) {
		if err == nil && !v.Feasible {
			fmt.Printf("first refutation: %s\n", v.Observation)
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("early exit evaluated %d of %d observations\n", partial.Total, len(corpus))
	// Output:
	// corpus: 2/20 observations refute the model
	//   violated 2 times: load.pde$_miss <= load.causes_walk
	// first refutation: run-09
	// early exit evaluated 10 of 20 observations
}

// Example_service drives the counterpointd HTTP/JSON API in-process:
// register a model from DSL source, read back its deduced constraints,
// and evaluate a corpus for an aggregate verdict. (examples/service is
// the runnable version.)
func Example_service() {
	eng := engine.New()
	defer eng.Close()
	ts := httptest.NewServer(server.New(server.Options{
		Engine:   eng,
		Defaults: engine.Config{IdentifyViolations: true},
	}))
	defer ts.Close()

	body, _ := json.Marshal(map[string]string{"name": "pde-cache", "source": pdeModelSrc})
	resp, err := http.Post(ts.URL+"/v1/models", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	var summary struct {
		Name     string   `json:"name"`
		Counters []string `json:"counters"`
		NumPaths int      `json:"num_paths"`
	}
	json.NewDecoder(resp.Body).Decode(&summary)
	resp.Body.Close()
	fmt.Printf("registered %q: %d μpaths over %v\n", summary.Name, summary.NumPaths, summary.Counters)

	resp, err = http.Get(ts.URL + "/v1/models/pde-cache")
	if err != nil {
		log.Fatal(err)
	}
	var desc struct {
		Constraints []string `json:"constraints"`
	}
	json.NewDecoder(resp.Body).Decode(&desc)
	resp.Body.Close()
	fmt.Printf("deduced constraints: %v\n", desc.Constraints)

	payload, _ := json.Marshal(map[string]any{"observations": []*counters.Observation{
		synthObs("run-0", 1000, 700, 200, 0),
		synthObs("run-1", 1000, 700, 200, 1),
		synthObs("anomalous", 700, 1000, 200, 99),
	}})
	resp, err = http.Post(ts.URL+"/v1/models/pde-cache/evaluate", "application/json", bytes.NewReader(payload))
	if err != nil {
		log.Fatal(err)
	}
	var agg struct {
		Total      int `json:"total"`
		Infeasible int `json:"infeasible"`
	}
	json.NewDecoder(resp.Body).Decode(&agg)
	resp.Body.Close()
	fmt.Printf("corpus: %d/%d observations refute the model\n", agg.Infeasible, agg.Total)
	// Output:
	// registered "pde-cache": 2 μpaths over [load.causes_walk load.pde$_miss]
	// deduced constraints: [load.pde$_miss <= load.causes_walk 0 <= load.pde$_miss]
	// corpus: 1/3 observations refute the model
}

// Example_exploreService submits a guided exploration job over HTTP — a
// feature-conditional DSL template plus a corpus exhibiting the Figure 6
// anomaly — streams its progress events, and reads the converged result.
// (examples/explore-service is the runnable version.)
func Example_exploreService() {
	const template = `
do LookupPde$;
switch Pde$Status {
    Hit  => pass;
    Miss => {
        incr load.pde$_miss;
#if abort
        switch Abort { Yes => done; No => pass; };
#endif
    };
};
incr load.causes_walk;
#if doublewalk
switch Double { Yes => incr load.causes_walk; No => pass; };
#endif
done;
`
	eng := engine.New()
	defer eng.Close()
	jm := jobs.NewManager(jobs.Options{})
	defer jm.Close()
	ts := httptest.NewServer(server.New(server.Options{Engine: eng, Jobs: jm}))
	defer ts.Close()

	payload, _ := json.Marshal(map[string]any{
		"source": template,
		"observations": []*counters.Observation{
			synthObs("benign", 500, 300, 200, 1),
			synthObs("anomalous", 200, 500, 200, 2),
		},
	})
	resp, err := http.Post(ts.URL+"/v1/explore", "application/json", bytes.NewReader(payload))
	if err != nil {
		log.Fatal(err)
	}
	var sub struct {
		ID         string   `json:"id"`
		Candidates []string `json:"candidates"`
	}
	json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	fmt.Printf("submitted %s over candidates %v\n", sub.ID, sub.Candidates)

	// The NDJSON event stream replays history and follows the job live;
	// it closes itself after the terminal event.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + sub.ID + "/events")
	if err != nil {
		log.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev struct {
			Kind string `json:"kind"`
			Data struct {
				Node    *struct{ Key string } `json:"node"`
				Feature string                `json:"feature"`
			} `json:"data"`
		}
		json.Unmarshal(sc.Bytes(), &ev)
		switch ev.Kind {
		case "node-evaluated":
			fmt.Printf("evaluated {%s}\n", ev.Data.Node.Key)
		case "feature-adopted":
			fmt.Printf("adopted %q\n", ev.Data.Feature)
		case "minimal-model":
			fmt.Printf("minimal model {%s}\n", ev.Data.Node.Key)
		}
	}
	resp.Body.Close()

	deadline := time.Now().Add(30 * time.Second)
	var st struct {
		State  string `json:"state"`
		Result struct {
			Final    struct{ Key string }
			Required []string `json:"required"`
		} `json:"result"`
	}
	for {
		resp, err = http.Get(ts.URL + "/v1/jobs/" + sub.ID)
		if err != nil {
			log.Fatal(err)
		}
		json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if st.State == "done" || st.State == "failed" || st.State == "cancelled" || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	fmt.Printf("job %s: final {%s}, required %v\n", st.State, st.Result.Final.Key, st.Result.Required)
	// Output:
	// submitted j000001 over candidates [abort doublewalk]
	// evaluated {}
	// evaluated {abort}
	// evaluated {doublewalk}
	// adopted "abort"
	// minimal model {abort}
	// job done: final {abort}, required [abort]
}
