// Package repro is a from-scratch Go reproduction of "CounterPoint: Using
// Hardware Event Counters to Refute and Refine Microarchitectural
// Assumptions" (ASPLOS 2026).
//
// CounterPoint tests user-specified microarchitectural models — expressed
// as μpath Decision Diagrams (μDDs) — for consistency with noisy hardware
// event counter data, and pinpoints the violated model constraints when
// they disagree.
//
// The library layout (see DESIGN.md for the full inventory):
//
//   - internal/dsl, internal/mudd — the modelling language and μDDs;
//   - internal/cone, internal/exact, internal/simplex — exact model-cone
//     geometry (double description, rational simplex LP with reusable
//     workspaces and exact certificate checkers); the simplex's big.Rat
//     reference, internal/simplex/simplexref, is imported by tests only;
//   - internal/floatlp — the float64 revised-simplex filter of the
//     two-tier feasibility solver: hardware floats propose each verdict
//     with a certificate, exact arithmetic verifies it, and unverifiable
//     claims fall back to the rational simplex (~140× fewer ns/op on the
//     full-counter-set feasibility LP, bit-identical verdicts);
//   - internal/counters — event names, counter groups, ordered counter
//     sets, observations, CSV/JSON I/O;
//   - internal/stats, internal/multiplex — confidence regions (with their
//     content digest) and counter multiplexing;
//   - internal/core — single-verdict feasibility testing and the two-tier
//     Solver;
//   - internal/engine — the batched feasibility engine: long-lived
//     Engine/Session pipeline with a bounded worker pool, region/LP
//     caching, streaming corpus evaluation, and the stream fold whose
//     per-observation verdict state is bit-identical to a batch
//     evaluation of the same observations;
//   - internal/explore — guided model exploration (§5, Appendix C):
//     frontier-parallel yet bit-identical to the sequential search,
//     progress events, checkpoint/restore, and the #if/#endif DSL
//     template builder;
//   - internal/jobs — the asynchronous job manager running exploration
//     searches and sweeps: bounded concurrency, event-log replay, retained
//     results with TTL, cancel and kind-dispatched resume-from-checkpoint;
//   - internal/sweep — the hidden-event-space sweep workload: raw
//     event×umask×cmask grids decoded into synthetic derived counters
//     over a simulated base corpus;
//   - internal/server — the HTTP/JSON feasibility service over the
//     engine, the jobs API over the manager, and live ingest streams
//     (bounded queues, explicit backpressure, replayable verdict
//     events) over engine sessions and the jobs event log;
//   - internal/haswell, internal/pagetable, internal/memsim,
//     internal/workloads — the simulated Haswell MMU substrate that stands
//     in for the paper's silicon;
//   - internal/dcache, internal/errata, internal/perfdb — the §9
//     extension component, counter errata modelling, and the Figure 1a
//     HEC census;
//   - internal/experiments — regenerates every table and figure;
//   - cmd/counterpoint, cmd/counterpointd, cmd/hswsim, cmd/streamgen,
//     cmd/experiments — the executables (streamgen is the stream-tier
//     load generator);
//   - examples/ — runnable walkthroughs of the public API (see
//     examples/engine for the batched/streaming evaluation API,
//     examples/service for the HTTP API, and examples/explore-service
//     for exploration jobs); the headline walkthroughs are also
//     executable godoc examples in examples_test.go.
//
// # Service quickstart
//
// Start the feasibility daemon (the registry boots with the paper's
// Table 3/5/7 model catalogue) and drive it with curl:
//
//	go run ./cmd/counterpointd -addr :8417 &
//
//	# list the catalogue, inspect a model's deduced constraints
//	curl -s localhost:8417/v1/models
//	curl -s localhost:8417/v1/models/m0
//
//	# register a model from DSL source
//	curl -s -X POST localhost:8417/v1/models \
//	  -d '{"name":"pde","source":"incr load.causes_walk;\nswitch Pde$Status { Hit => pass; Miss => incr load.pde$_miss; };\ndone;"}'
//
//	# one observation, one verdict (violated constraints included)
//	curl -s -X POST localhost:8417/v1/models/pde/test \
//	  -d '{"label":"run","events":["load.causes_walk","load.pde$_miss"],"samples":[[10,2],[11,3],[10,2]]}'
//
//	# evaluate a CSV corpus (as written by hswsim), streaming NDJSON
//	# verdicts; stop at the first refutation
//	curl -sN -X POST 'localhost:8417/v1/models/pde/evaluate/stream?first=true' \
//	  -F corpus=@samples.csv -F corpus=@more.csv
//
//	# sweep the hidden event space: a raw event×umask×cmask grid over a
//	# simulated base corpus, as an asynchronous job
//	curl -s -X POST localhost:8417/v1/sweep -d '{"seed":1}'
//
//	# live ingest: open a stream on a model, feed NDJSON observations as
//	# they arrive, watch verdict events, close
//	curl -s -X POST localhost:8417/v1/streams -d '{"model":"pde"}'
//	curl -s -X POST localhost:8417/v1/streams/s000001/ingest --data-binary @batch.ndjson
//	curl -sN localhost:8417/v1/streams/s000001/events
//	curl -s -X DELETE localhost:8417/v1/streams/s000001
//
//	# telemetry: two-tier solver counters (float-filter hits,
//	# certification failures, exact fallbacks), arithmetic-kernel
//	# counters, engine caches, sweep planning, stream queues/latency
//	curl -s localhost:8417/stats
//
// Guided exploration runs as asynchronous jobs: submit a
// feature-conditional DSL template (lines between "#if feature" and
// "#endif" belong to that candidate feature) with a corpus, then follow
// the search:
//
//	curl -s -X POST localhost:8417/v1/explore -d @exploration.json
//	curl -s localhost:8417/v1/jobs
//	curl -sN localhost:8417/v1/jobs/j000001/events   # NDJSON progress
//	curl -s localhost:8417/v1/jobs/j000001           # result + search graph
//	curl -s -X DELETE localhost:8417/v1/jobs/j000001 # cancel
//	curl -s -X POST localhost:8417/v1/jobs/j000001/resume
//
// See README.md for the tour, docs/API.md for the complete endpoint
// reference, DESIGN.md for the design notes, and internal/server for the
// handlers.
//
// The benchmarks in bench_test.go regenerate each experiment (Figures 1a–9b
// and Tables 1–7) under the Go benchmark harness, and
// internal/engine/bench_test.go records the per-call vs session-cached
// corpus-evaluation comparison.
package repro
