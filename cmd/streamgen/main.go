// Command streamgen is a synthetic load generator for counterpointd's
// online-refutation streams — the producer side of the backpressure soak:
// it registers a small page-walker model, opens a stream against it, and
// POSTs NDJSON observations at a target rate (or as fast as the server
// accepts them), then reports the stream's own telemetry — verdict
// state, queue high-water mark, drop counts and ingest→verdict latency
// percentiles as the server measured them.
//
// Usage:
//
//	streamgen [flags]
//
// Flags:
//
//	-addr url        counterpointd base URL (default http://127.0.0.1:8417)
//	-n count         observations to send (default 10000)
//	-rate r          target observations/sec; 0 sends unthrottled (default 0)
//	-batch k         observations per ingest request (default 256)
//	-samples s       samples per observation (default 5)
//	-infeasible f    fraction of observations drawn from an infeasible
//	                 mean, so the stream's monotone refutation state is
//	                 exercised (default 0.01)
//	-policy p        stream backpressure policy: block, drop or reject
//	                 (default block)
//	-buffer b        per-stream queue capacity override; 0 uses the
//	                 server's -stream-buffer (default 0)
//	-seed s          deterministic observation noise seed (default 1)
//
// The exit status is zero iff every request was accepted under the
// chosen policy (drop-policy drops and reject-policy 429s are reported,
// not errors — they are the point of the soak).
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"
)

// modelSource is the two-counter page-walker μDD streamgen registers:
// every load increments load.causes_walk, and a PDE cache miss
// additionally increments load.pde$_miss — so feasible observations keep
// pde$_miss ≤ causes_walk and the infeasible mean inverts the ratio.
const (
	modelName   = "streamgen-pde"
	modelSource = "incr load.causes_walk;\nswitch Pde$Status { Hit => pass; Miss => incr load.pde$_miss; };\ndone;"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "streamgen:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("streamgen", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", "http://127.0.0.1:8417", "counterpointd base URL")
		n          = fs.Int("n", 10000, "observations to send")
		rate       = fs.Float64("rate", 0, "target observations/sec (0 = unthrottled)")
		batch      = fs.Int("batch", 256, "observations per ingest request")
		samples    = fs.Int("samples", 5, "samples per observation")
		infeasible = fs.Float64("infeasible", 0.01, "fraction of observations drawn from an infeasible mean")
		policy     = fs.String("policy", "block", "stream backpressure policy: block, drop or reject")
		buffer     = fs.Int("buffer", 0, "per-stream queue capacity override (0 = server default)")
		seed       = fs.Int64("seed", 1, "observation noise seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n < 1 || *batch < 1 || *samples < 1 {
		return fmt.Errorf("n, batch and samples must be positive")
	}
	if *infeasible < 0 || *infeasible > 1 {
		return fmt.Errorf("infeasible must be in [0,1], got %g", *infeasible)
	}
	base := strings.TrimRight(*addr, "/")
	client := &http.Client{}

	// Register the model; 409 means a previous streamgen already did.
	reg, _ := json.Marshal(map[string]string{"name": modelName, "source": modelSource})
	resp, err := post(ctx, client, base+"/v1/models", "application/json", bytes.NewReader(reg))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusConflict {
		return httpError("register model", resp)
	}
	drain(resp)

	// Open the stream.
	create, _ := json.Marshal(map[string]any{"model": modelName, "policy": *policy, "buffer": *buffer})
	resp, err = post(ctx, client, base+"/v1/streams", "application/json", bytes.NewReader(create))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusCreated {
		return httpError("create stream", resp)
	}
	var stream struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stream); err != nil {
		drain(resp)
		return fmt.Errorf("decode stream: %w", err)
	}
	drain(resp)
	fmt.Fprintf(out, "streamgen: stream %s (policy %s) on %s\n", stream.ID, *policy, base)

	rng := rand.New(rand.NewSource(*seed))
	start := time.Now()
	var sent, queued, dropped, rejected, errorLines int
	var body bytes.Buffer
	flush := func(count int) error {
		resp, err := post(ctx, client, base+"/v1/streams/"+stream.ID+"/ingest", "application/x-ndjson", bytes.NewReader(body.Bytes()))
		body.Reset()
		if err != nil {
			return err
		}
		defer drain(resp)
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
			return httpError("ingest", resp)
		}
		var sum struct {
			Queued     int `json:"queued"`
			Dropped    int `json:"dropped"`
			Rejected   int `json:"rejected"`
			ErrorLines int `json:"error_lines"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
			return fmt.Errorf("decode ingest summary: %w", err)
		}
		sent += count
		queued += sum.Queued
		dropped += sum.Dropped
		rejected += sum.Rejected
		errorLines += sum.ErrorLines
		return nil
	}
	enc := json.NewEncoder(&body)
	pending := 0
	for i := 0; i < *n; i++ {
		if err := ctx.Err(); err != nil {
			break
		}
		if err := enc.Encode(observation(rng, i, *samples, *infeasible)); err != nil {
			return err
		}
		pending++
		if pending == *batch || i == *n-1 {
			if err := flush(pending); err != nil {
				return err
			}
			pending = 0
		}
		if *rate > 0 {
			// Pace against the wall clock, not per-send sleeps, so batch
			// flush time does not erode the target rate.
			next := start.Add(time.Duration(float64(i+1) / *rate * float64(time.Second)))
			if d := time.Until(next); d > 0 {
				select {
				case <-time.After(d):
				case <-ctx.Done():
				}
			}
		}
	}
	elapsed := time.Since(start)

	// Close the stream (its backlog still evaluates), wait for it to
	// finish, then report what the server measured.
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, base+"/v1/streams/"+stream.ID, nil)
	if err != nil {
		return err
	}
	if resp, err = client.Do(req); err != nil {
		return err
	}
	drain(resp)
	// DELETE returns before the worker has drained the backlog. The events
	// feed ends after the terminal "closed" event, which follows the last
	// verdict, so read it to the end before describing the stream.
	if req, err = http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/streams/"+stream.ID+"/events", nil); err != nil {
		return err
	}
	if resp, err = client.Do(req); err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("follow events: %w", err)
	}
	resp, err = client.Get(base + "/v1/streams/" + stream.ID)
	if err != nil {
		return err
	}
	var desc struct {
		State struct {
			Total      int     `json:"total"`
			Infeasible int     `json:"infeasible"`
			Refuted    bool    `json:"refuted"`
			Confidence float64 `json:"confidence"`
		} `json:"state"`
		HighWater int `json:"high_water"`
		Latency   struct {
			P50 float64 `json:"p50_us"`
			P99 float64 `json:"p99_us"`
			Max float64 `json:"max_us"`
		} `json:"latency"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&desc); err != nil {
		drain(resp)
		return fmt.Errorf("decode describe: %w", err)
	}
	drain(resp)

	fmt.Fprintf(out, "streamgen: sent %d obs in %v (%.0f obs/sec): queued %d, dropped %d, rejected %d, errors %d\n",
		sent, elapsed.Round(time.Millisecond), float64(sent)/elapsed.Seconds(), queued, dropped, rejected, errorLines)
	fmt.Fprintf(out, "streamgen: verdicts %d (infeasible %d, refuted %v, confidence %.6f), queue high-water %d\n",
		desc.State.Total, desc.State.Infeasible, desc.State.Refuted, desc.State.Confidence, desc.HighWater)
	fmt.Fprintf(out, "streamgen: ingest latency p50 %.1fus p99 %.1fus max %.1fus\n",
		desc.Latency.P50, desc.Latency.P99, desc.Latency.Max)
	return ctx.Err()
}

// observation draws one synthetic observation: Poisson-ish integer noise
// around a feasible mean (walks ≥ misses) or, for the configured
// fraction, an infeasible one (misses > walks — no μDD path produces
// more PDE misses than walks, so the region excludes the cone).
func observation(rng *rand.Rand, idx, samples int, infeasible float64) map[string]any {
	walks, misses := 40, 10
	if rng.Float64() < infeasible {
		walks, misses = 10, 40
	}
	rows := make([][]int64, samples)
	for i := range rows {
		rows[i] = []int64{jitter(rng, walks), jitter(rng, misses)}
	}
	return map[string]any{
		"label":   fmt.Sprintf("gen%06d", idx),
		"events":  []string{"load.causes_walk", "load.pde$_miss"},
		"samples": rows,
	}
}

// jitter perturbs a mean by ±10% uniform integer noise, floored at zero.
func jitter(rng *rand.Rand, mean int) int64 {
	d := mean / 10
	if d < 1 {
		d = 1
	}
	v := mean - d + rng.Intn(2*d+1)
	if v < 0 {
		v = 0
	}
	return int64(v)
}

func post(ctx context.Context, c *http.Client, url, contentType string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, body)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	return c.Do(req)
}

func httpError(what string, resp *http.Response) error {
	defer drain(resp)
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	return fmt.Errorf("%s: status %d: %s", what, resp.StatusCode, bytes.TrimSpace(msg))
}

func drain(resp *http.Response) {
	io.Copy(io.Discard, bufio.NewReader(io.LimitReader(resp.Body, 1<<20)))
	resp.Body.Close()
}
