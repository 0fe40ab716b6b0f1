// Engine walkthrough: batched corpus evaluation with per-verdict callbacks.
//
// The quickstart example tests observations one at a time through
// core.Model. Real workloads — model sweeps, continuously-running counter
// checking, the paper's Tables 3/5/7 — test whole corpora against many
// models. This example drives the engine API that serves those workloads:
//
//  1. an Engine with a bounded worker pool and shared caches,
//  2. a Session binding a model to an evaluation configuration,
//  3. Session.Evaluate for one-shot corpus verdicts,
//  4. Session.EvaluateEach for verdicts delivered one by one in corpus
//     order, with early exit at the first refutation,
//  5. Session.Restrict for counter-set sweeps that share cached work.
//
// Run with: go run ./examples/engine
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/engine"
	"repro/internal/stats"
)

const modelSrc = `
incr load.causes_walk;
do   LookupPde$;
switch Pde$Status {
    Hit  => pass;
    Miss => incr load.pde$_miss;
};
done;
`

func main() {
	set := counters.NewSet("load.causes_walk", "load.pde$_miss")
	model, err := core.ModelFromDSL("pde-cache", modelSrc, set)
	if err != nil {
		log.Fatal(err)
	}

	// A synthetic corpus: mostly consistent runs, with a few exhibiting the
	// Haswell pde$_miss > causes_walk anomaly.
	corpus := make([]*counters.Observation, 0, 40)
	for i := 0; i < 40; i++ {
		cw, pm := 1000.0, 700.0
		if i%10 == 9 {
			cw, pm = 700.0, 1000.0 // anomalous
		}
		obs := counters.NewObservation(fmt.Sprintf("run-%02d", i), set)
		rng := rand.New(rand.NewSource(int64(i)))
		for s := 0; s < 2000; s++ {
			obs.Append([]float64{cw + rng.NormFloat64(), pm + rng.NormFloat64()})
		}
		corpus = append(corpus, obs)
	}

	// 1. A dedicated engine. engine.Default() shares one pool process-wide;
	// a dedicated engine can be Closed and sized explicitly.
	eng := engine.New(engine.WithWorkers(4))
	defer eng.Close()

	// 2. A session: one model, one configuration.
	sess, err := eng.NewSession(model, engine.Config{
		Confidence:         core.DefaultConfidence,
		Mode:               stats.Correlated,
		IdentifyViolations: true,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 3. One-shot evaluation: the whole corpus, aggregated.
	t0 := time.Now()
	res, err := sess.Evaluate(context.Background(), corpus)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("corpus: %d/%d observations refute the model (%.1fms)\n",
		res.Infeasible, res.Total, float64(time.Since(t0).Microseconds())/1000)
	for k, n := range res.ViolatedConstraints {
		fmt.Printf("  violated %d times: %s\n", n, k)
	}

	// Evaluating again hits the engine's region cache and verdict
	// cache — the steady state of a model sweep over a fixed corpus.
	t1 := time.Now()
	if _, err := sess.Evaluate(context.Background(), corpus); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("re-evaluation with warm caches: %.1fms\n",
		float64(time.Since(t1).Microseconds())/1000)

	// 4. Per-verdict delivery: EvaluateEach hands each verdict to a
	// callback in corpus order while the pool evaluates ahead. Here we stop
	// the whole run at the first refutation via the session config, so the
	// partial result is exactly the prefix through that observation.
	early, err := eng.NewSession(model, engine.Config{StopOnInfeasible: true})
	if err != nil {
		log.Fatal(err)
	}
	partial, err := early.EvaluateEach(context.Background(), corpus, func(i int, v *core.Verdict, err error) {
		if err == nil && !v.Feasible {
			fmt.Printf("refutation from %s (observation #%d)\n", v.Observation, i)
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("early exit evaluated %d of %d observations\n", partial.Total, len(corpus))

	// 5. Counter-set sweep: restricted sessions share the engine caches, so
	// dropping a counter re-uses everything already computed for the rest.
	sub, err := sess.Restrict(counters.NewSet("load.causes_walk"))
	if err != nil {
		log.Fatal(err)
	}
	subRes, err := sub.Evaluate(context.Background(), corpus)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("restricted to causes_walk only: %d/%d infeasible (the anomaly needs both counters)\n",
		subRes.Infeasible, subRes.Total)
}
