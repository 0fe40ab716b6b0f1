// Command counterpointd serves CounterPoint feasibility verdicts over
// HTTP/JSON — the network-facing front end of the batched engine, so
// models can be registered and corpora evaluated without a local Go
// caller.
//
// At boot the registry is seeded with the paper's case-study catalogue
// (Tables 3, 5 and 7 plus the converged "discovered" model); uploads add
// more. One engine serves every request, so confidence-region, LP and
// session caches stay warm across the whole traffic stream.
//
// Alongside synchronous verdicts the daemon runs asynchronous jobs behind
// the /v1/jobs endpoints — the paper's §5 / Appendix C guided
// discovery/elimination search (POST /v1/explore) and hidden-event-space
// sweeps over raw event×umask×cmask config grids (POST /v1/sweep;
// "grid": "default" or "large" selects a preset) — with bounded
// concurrent jobs, NDJSON progress streams, cancellation, and
// resume-from-checkpoint. Sweeps plan the grid into behaviour classes
// and evaluate one representative per class on the engine's worker
// pool; committed events and checkpoints stay bit-identical to the
// sequential scan. See docs/API.md for the endpoint reference.
//
// The /v1/streams endpoints serve online refutation: a stream binds one
// model to one configuration, ingests NDJSON observations through a
// bounded queue with an explicit backpressure policy (block, drop or
// reject with 429), and emits verdict/state events whose monotone
// refutation state is bit-identical to a batch evaluation of the same
// observations. -max-streams caps open streams, -stream-buffer sets the
// queue high-water mark, -stream-ttl reaps idle streams.
//
// Usage:
//
//	counterpointd [flags]
//
// Flags:
//
//	-addr host:port    listen address (default :8417)
//	-confidence p      default confidence level (default 0.99)
//	-independent       default to independent (naive) confidence regions
//	-identify          identify violated constraints by default (default true)
//	-exact             force the exact LP tier (disable the float filter)
//	-max-concurrent n  cap on simultaneous evaluations (default GOMAXPROCS)
//	-workers n         engine worker pool size (default GOMAXPROCS)
//	-max-jobs n        cap on concurrently running jobs (default 2)
//	-job-history n     ring of finished jobs kept queryable (default 64)
//	-job-ttl d         how long finished jobs stay queryable (default 1h)
//	-max-sweep-cells n cap on a sweep request's expanded grid size (default 8192)
//	-max-streams n     cap on concurrently open ingest streams (default 64)
//	-stream-buffer n   per-stream ingest queue capacity / backpressure
//	                   high-water mark (default 1024)
//	-stream-ttl d      idle stream reap TTL (default 5m)
//	-no-catalog        start with an empty model registry
//	-verdict-db path   persistent content-addressed verdict store; cached
//	                   feasibility verdicts survive restarts (off by default;
//	                   a store in the old text format is refused, and
//	                   verdicts keyed by the retired clp1 LP encoding are
//	                   skipped and counted on the boot line)
//	-job-db path       durable job journal (append-only, checksummed); jobs
//	                   survive restarts, and a restarting daemon re-lists
//	                   finished jobs and auto-resumes interrupted ones from
//	                   their last checkpoint (off by default)
//	-pprof-addr a      serve net/http/pprof on a (off by default; bind
//	                   loopback only — profiles expose internals)
//
// GET /stats reports the two-tier solver's telemetry (evaluations, float
// filter hits, certification failures and exact fallbacks, plus the int64
// kernel's fast-path/promotion counters and the certification arithmetic
// split),
// the engine's LP/verdict cache hit, miss and eviction counters, the
// sweep planner's telemetry (cells/classes planned, classes evaluated,
// evaluations_avoided ratio), and the stream tier's telemetry (lifecycle
// counts, ingest/verdict/drop totals, queue high-water mark,
// ingest→verdict latency), accumulated across all requests since boot.
//
// SIGINT/SIGTERM trigger a graceful shutdown: in-flight requests (and
// their verdict streams) get shutdownGrace to finish before the listener
// is torn down; then running exploration jobs are cancelled and the
// engine closed. Without -job-db their checkpoints are lost with the
// process; with it, every submission, progress event, checkpoint and
// result is journaled with CRCs and fsync-on-commit, so the next boot
// repairs any torn tail, re-lists terminal jobs byte-identically and
// resumes interrupted explore/sweep jobs bit-identically from their last
// durable checkpoint. If the journal's disk fails at runtime the daemon
// degrades rather than dies: it keeps serving from memory, reports the
// failure on /healthz and /stats, and sheds new durable submissions with
// 503 + Retry-After until a probe write succeeds.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/haswell"
	"repro/internal/jobs"
	"repro/internal/jobstore"
	"repro/internal/perfdb"
	"repro/internal/recordlog"
	"repro/internal/server"
	"repro/internal/stats"
)

// shutdownGrace bounds how long a graceful shutdown waits for in-flight
// requests (streams included) before closing connections.
const shutdownGrace = 10 * time.Second

// readHeaderTimeout bounds how long a client may take to send request
// headers, and idleTimeout how long a kept-alive connection may sit idle
// between requests, so slow or silent clients cannot pin connections.
// There is deliberately no read or write timeout: NDJSON ingest uploads
// and /v1/jobs/{id}/events follows legitimately stay open for as long as
// the stream or job runs.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer wraps h in an http.Server with the daemon's connection
// timeouts.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// testListenerHook, when set (by tests), receives the bound listener
// address before the server starts accepting.
var testListenerHook func(net.Addr)

// testAfterSweepCell, when set (by tests), becomes the job manager's
// AfterSweepCell hook, so a test can hold a sweep at a known cell.
var testAfterSweepCell func(index int)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "counterpointd:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("counterpointd", flag.ContinueOnError)
	var (
		addr          = fs.String("addr", ":8417", "listen address")
		confidence    = fs.Float64("confidence", core.DefaultConfidence, "default confidence level")
		independent   = fs.Bool("independent", false, "default to independent (naive) confidence regions")
		identify      = fs.Bool("identify", true, "identify violated constraints by default (per-request ?identify= overrides)")
		exact         = fs.Bool("exact", false, "force the exact LP tier by default, bypassing the float filter (per-request ?exact= overrides)")
		maxConcurrent = fs.Int("max-concurrent", runtime.GOMAXPROCS(0), "cap on simultaneous evaluations (0 = unlimited)")
		workers       = fs.Int("workers", runtime.GOMAXPROCS(0), "engine worker pool size")
		maxJobs       = fs.Int("max-jobs", jobs.DefaultMaxConcurrent, "cap on concurrently running exploration jobs")
		jobHistory    = fs.Int("job-history", jobs.DefaultMaxRetained, "how many finished exploration jobs stay queryable")
		jobTTL        = fs.Duration("job-ttl", jobs.DefaultRetainFor, "how long finished exploration jobs stay queryable")
		maxSweepCells = fs.Int("max-sweep-cells", server.DefaultMaxSweepCells, "cap on a sweep request's expanded grid size")
		maxStreams    = fs.Int("max-streams", server.DefaultMaxStreams, "cap on concurrently open ingest streams")
		streamBuffer  = fs.Int("stream-buffer", server.DefaultStreamBuffer, "per-stream ingest queue capacity (backpressure high-water mark)")
		streamTTL     = fs.Duration("stream-ttl", server.DefaultStreamIdleTTL, "idle stream reap TTL")
		noCatalog     = fs.Bool("no-catalog", false, "start with an empty model registry")
		verdictDB     = fs.String("verdict-db", "", "path to the persistent verdict store; cached feasibility verdicts survive restarts (empty disables)")
		jobDB         = fs.String("job-db", "", "path to the durable job journal; jobs survive restarts and interrupted ones auto-resume (empty disables)")
		pprofAddr     = fs.String("pprof-addr", "", "serve net/http/pprof on this address (empty disables); bind loopback only, e.g. 127.0.0.1:6060")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *confidence <= 0 || *confidence >= 1 {
		return fmt.Errorf("confidence must be in (0,1), got %g", *confidence)
	}
	if *maxSweepCells < 1 {
		return fmt.Errorf("max-sweep-cells must be positive, got %d", *maxSweepCells)
	}
	if *maxStreams < 1 {
		return fmt.Errorf("max-streams must be positive, got %d", *maxStreams)
	}
	if *streamBuffer < 1 {
		return fmt.Errorf("stream-buffer must be positive, got %d", *streamBuffer)
	}

	engOpts := []engine.Option{engine.WithWorkers(*workers)}
	if *verdictDB != "" {
		vs, err := perfdb.OpenVerdictStore(*verdictDB)
		if errors.Is(err, recordlog.ErrForeign) {
			return fmt.Errorf("%w (a verdict store in the old text format is no longer read: move or delete it and the daemon starts a fresh one)", err)
		}
		if err != nil {
			return err
		}
		defer vs.Close()
		fmt.Fprintf(out, "counterpointd: verdict store %s (%d verdicts", *verdictDB, vs.Len())
		if n := vs.SkippedCLP1(); n > 0 {
			fmt.Fprintf(out, ", %d clp1 verdicts skipped", n)
		}
		if vs.Repaired() {
			fmt.Fprint(out, ", torn tail repaired")
		}
		fmt.Fprintln(out, ")")
		engOpts = append(engOpts, engine.WithVerdictStore(vs))
	}
	eng := engine.New(engOpts...)
	defer eng.Close()
	mode := stats.Correlated
	if *independent {
		mode = stats.Independent
	}
	var catalog []server.Model
	if !*noCatalog {
		for _, cm := range haswell.Catalog() {
			catalog = append(catalog, server.Model{Name: cm.Name, Source: cm.Source})
		}
	}
	var jst *jobstore.Store
	jopts := jobs.Options{
		MaxConcurrent:  *maxJobs,
		MaxRetained:    *jobHistory,
		RetainFor:      *jobTTL,
		AfterSweepCell: testAfterSweepCell,
	}
	if *jobDB != "" {
		var err error
		if jst, err = jobstore.Open(*jobDB, jobstore.Options{}); err != nil {
			return fmt.Errorf("job journal: %w", err)
		}
		// Closes after the manager (deferred LIFO), so shutdown's terminal
		// records and final checkpoints land in the journal.
		defer jst.Close()
		jopts.Journal = jst
	}
	jm := jobs.NewManager(jopts)
	defer jm.Close()
	if jst != nil {
		rep, err := jobstore.Recover(jm, jst, map[string]jobstore.Rebuilder{
			"sweep":   jobs.RebuildSweep(eng),
			"explore": jobs.RebuildExplore(),
		})
		if err != nil {
			return fmt.Errorf("job journal recovery: %w", err)
		}
		fmt.Fprintf(out, "counterpointd: job journal %s (%d jobs re-listed, %d interrupted, %d resumed",
			*jobDB, rep.Relisted+rep.Interrupted, rep.Interrupted, rep.Resumed)
		if rep.Repaired {
			fmt.Fprint(out, ", torn tail repaired")
		}
		fmt.Fprintln(out, ")")
	}
	srv := server.New(server.Options{
		Engine:        eng,
		Defaults:      engine.Config{Confidence: *confidence, Mode: mode, IdentifyViolations: *identify, ForceExact: *exact},
		MaxConcurrent: *maxConcurrent,
		Catalog:       catalog,
		Jobs:          jm,
		JobStore:      jst,
		MaxSweepCells: *maxSweepCells,
		MaxStreams:    *maxStreams,
		StreamBuffer:  *streamBuffer,
		StreamIdleTTL: *streamTTL,
	})
	// Streams close before the jobs manager and engine (deferred LIFO):
	// queued observations drain, terminal events land, workers exit.
	defer srv.Close()

	// Profiling endpoint: off by default, on its own mux and listener so
	// pprof handlers are never reachable through the service address.
	// Profiles expose internals (paths, timings, memory layout) — bind it
	// to loopback and reach it through an SSH tunnel in deployment.
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		defer pln.Close()
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		fmt.Fprintf(out, "counterpointd: pprof on http://%s/debug/pprof/\n", pln.Addr())
		go func() { _ = newHTTPServer(pmux).Serve(pln) }()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if testListenerHook != nil {
		testListenerHook(ln.Addr())
	}
	fmt.Fprintf(out, "counterpointd: listening on %s (%d models, %d workers)\n",
		ln.Addr(), srv.Registry().Len(), eng.Workers())

	hs := newHTTPServer(srv)
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(out, "counterpointd: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		// Streams outliving the grace period are closed forcibly; their
		// engine goroutines exit with the request contexts.
		hs.Close()
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
