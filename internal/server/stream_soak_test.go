package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/jobs"
)

// TestStreamBackpressureSoak is the backpressure soak (a named CI step):
// a synthetic producer offers 10k+ observations/sec at a drop-policy
// stream with a small bounded queue, while a live event watcher records
// every verdict. The invariants under sustained overload:
//
//   - bounded memory: the queue's high-water mark never exceeds the
//     configured buffer (memory per stream is buffer-bounded by
//     construction; the telemetry must agree);
//   - no reordering: verdict indexes arrive strictly increasing and the
//     embedded stream state is monotone;
//   - explicit backpressure: the drop policy fires and every drop is
//     accounted — queued + dropped equals offered, in the ingest
//     summaries, the stream describe and /stats alike — and a
//     reject-policy stream 429s, also counted in /stats.
//
// Offered throughput is logged, not gated: CI boxes vary, invariants
// must not.
func TestStreamBackpressureSoak(t *testing.T) {
	const (
		buffer  = 64
		offered = 12000
		batch   = 500
	)
	ts, srv := newStreamServer(t, func(o *Options) { o.StreamBuffer = 256 })
	st := createStream(t, ts.URL, map[string]any{"model": "pde", "policy": "drop", "buffer": buffer})

	// Watcher: follows the event stream live, recording verdict order.
	type seen struct {
		indexes []int
		totals  []int
	}
	var watch seen
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Get(ts.URL + "/v1/streams/" + st.ID + "/events")
		if err != nil {
			t.Errorf("watch: %v", err)
			return
		}
		defer resp.Body.Close()
		dec := json.NewDecoder(resp.Body)
		for {
			var ev jobs.Event
			if err := dec.Decode(&ev); err != nil {
				return
			}
			if ev.Kind == "verdict" {
				var v verdictEventJSON
				b, _ := json.Marshal(ev.Data)
				if err := json.Unmarshal(b, &v); err != nil {
					t.Errorf("verdict event: %v", err)
					return
				}
				watch.indexes = append(watch.indexes, v.Index)
				watch.totals = append(watch.totals, v.State.Total)
			}
			if ev.Kind == "closed" {
				return
			}
		}
	}()

	// Producer: NDJSON batches as fast as the server accepts them. Small
	// observations keep the decode cost low so the offered rate is
	// producer-bound, not marshal-bound.
	lines := make([]string, batch)
	var sent, queued, dropped int
	start := time.Now()
	for sent < offered {
		for i := range lines {
			lines[i] = ndjsonObs(fmt.Sprintf("s%06d", sent+i), 500, 100, 4, int64(sent+i))
		}
		status, sum := ingestLines(t, ts.URL, st.ID, lines...)
		if status != http.StatusOK {
			t.Fatalf("ingest status %d", status)
		}
		if sum.Queued+sum.Dropped != batch || sum.ErrorLines != 0 {
			t.Fatalf("lossy accounting: %+v (batch %d)", sum, batch)
		}
		sent += batch
		queued += sum.Queued
		dropped += sum.Dropped
	}
	elapsed := time.Since(start)
	rate := float64(sent) / elapsed.Seconds()
	t.Logf("offered %d observations in %v (%.0f obs/sec): queued %d, dropped %d",
		sent, elapsed.Round(time.Millisecond), rate, queued, dropped)

	// Sustained overload must actually have engaged the drop policy —
	// otherwise the soak proved nothing.
	if dropped == 0 {
		t.Fatalf("offered %d at %.0f obs/sec into a %d-slot queue without a single drop", sent, rate, buffer)
	}

	// Close; the worker drains the tail and the watcher sees "closed".
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/streams/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	wg.Wait()

	got := describeStream(t, ts.URL, st.ID)
	if got.HighWater > buffer {
		t.Fatalf("memory bound violated: high-water %d > buffer %d", got.HighWater, buffer)
	}
	if got.Ingested != uint64(queued) || got.Dropped != uint64(dropped) {
		t.Fatalf("describe accounting %+v != producer (queued %d dropped %d)", got, queued, dropped)
	}
	if got.State.Total != queued {
		t.Fatalf("verdicts %d != queued %d: close lost samples", got.State.Total, queued)
	}

	// No reordering: verdict indexes strictly increase and the stream
	// state is monotone (gaps are fine — the event log is bounded).
	for i := 1; i < len(watch.indexes); i++ {
		if watch.indexes[i] <= watch.indexes[i-1] || watch.totals[i] <= watch.totals[i-1] {
			t.Fatalf("reordered verdicts at %d: indexes %d..%d totals %d..%d",
				i, watch.indexes[i-1], watch.indexes[i], watch.totals[i-1], watch.totals[i])
		}
	}
	if len(watch.indexes) == 0 {
		t.Fatal("watcher saw no verdicts")
	}

	// /stats carries the same totals, plus the 429 path: a reject-policy
	// stream overloaded the same way counts its refusals. Its worker is
	// held during the blast so the 4-slot queue fills however fast
	// verdicts are.
	release := holdStreamWorkers(t, srv)
	rj := createStream(t, ts.URL, map[string]any{"model": "pde", "policy": "reject", "buffer": 4})
	blast := make([]string, 256)
	for i := range blast {
		blast[i] = ndjsonObs(fmt.Sprintf("r%d", i), 500, 100, 60, int64(i))
	}
	status, sum := ingestLines(t, ts.URL, rj.ID, blast...)
	release()
	if status != http.StatusTooManyRequests || sum.Rejected == 0 {
		t.Fatalf("reject soak: status %d %+v", status, sum)
	}
	stats := srv.streams.stats()
	if stats.Dropped != uint64(dropped) || stats.Rejected == 0 {
		t.Fatalf("/stats %+v: dropped want %d, rejected want > 0", stats, dropped)
	}
	if stats.QueueHighWater > 256 {
		t.Fatalf("/stats high-water %d exceeds server buffer", stats.QueueHighWater)
	}
	if stats.Latency.Count == 0 || stats.Latency.P50Micro > stats.Latency.MaxMicro {
		t.Fatalf("/stats latency %+v", stats.Latency)
	}
}
