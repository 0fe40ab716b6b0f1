package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
)

// This file is the stream tier's concurrency/lifecycle regression suite,
// following the EvaluateEach leak-suite pattern in internal/engine:
// every way a stream can be walked away from — a producer disconnecting
// mid-ingest while blocked on a full queue, a close with samples still
// queued, an idle reap, a whole-server shutdown with live streams — must
// leave zero goroutines and lose zero queued observations.
// (settleGoroutines lives in server_test.go.)

// newLeakServer builds a stream server whose whole stack is torn down by
// the returned function — explicitly, so leak tests can assert the
// goroutine count settles before the test ends.
func newLeakServer(t *testing.T, opts ...func(*Options)) (*httptest.Server, *Server, func()) {
	t.Helper()
	eng := engine.New(engine.WithWorkers(2))
	o := Options{
		Engine:   eng,
		Defaults: engine.Config{IdentifyViolations: true},
		Catalog:  []Model{{Name: "pde", Source: pdeModelSrc}},
	}
	for _, f := range opts {
		f(&o)
	}
	srv := New(o)
	ts := httptest.NewServer(srv)
	return ts, srv, func() {
		ts.Close()
		srv.Close()
		eng.Close()
		http.DefaultClient.CloseIdleConnections()
	}
}

// TestStreamDisconnectMidIngest disconnects a block-policy producer
// while its enqueue is blocked on a full queue: the request goroutine
// must unblock via its context, nothing may leak, and the stream must
// keep serving afterwards.
func TestStreamDisconnectMidIngest(t *testing.T) {
	baseline := runtime.NumGoroutine()
	func() {
		ts, _, teardown := newLeakServer(t)
		defer teardown()
		st := createStream(t, ts.URL, map[string]any{"model": "pde", "buffer": 1})

		// A body far beyond the queue keeps the handler blocked inside
		// enqueue; heavyweight observations keep the worker busy.
		var body strings.Builder
		for i := 0; i < 256; i++ {
			body.WriteString(ndjsonObs(fmt.Sprintf("o%d", i), 500, 100, 80, int64(i)))
			body.WriteString("\n")
		}
		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			ts.URL+"/v1/streams/"+st.ID+"/ingest", strings.NewReader(body.String()))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/x-ndjson")
		done := make(chan error, 1)
		go func() {
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			done <- err
		}()
		time.Sleep(50 * time.Millisecond) // let the handler wedge on the full queue
		cancel()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("disconnected ingest request never returned")
		}

		// The stream survives its producer: a fresh ingest still works.
		if _, sum := ingestLines(t, ts.URL, st.ID, ndjsonObs("after", 500, 100, 10, 999)); sum.Queued != 1 {
			t.Fatalf("post-disconnect ingest %+v", sum)
		}
	}()
	settleGoroutines(t, baseline)
}

// TestStreamCloseWithQueuedSamples closes a stream with a backlog still
// queued: every queued observation must be evaluated before the terminal
// event — close drains, it does not discard.
func TestStreamCloseWithQueuedSamples(t *testing.T) {
	baseline := runtime.NumGoroutine()
	func() {
		ts, _, teardown := newLeakServer(t)
		defer teardown()
		st := createStream(t, ts.URL, map[string]any{"model": "pde", "buffer": 64})
		lines := make([]string, 32)
		for i := range lines {
			lines[i] = ndjsonObs(fmt.Sprintf("o%d", i), 500, 100, 60, int64(i))
		}
		_, sum := ingestLines(t, ts.URL, st.ID, lines...)
		if sum.Queued != 32 {
			t.Fatalf("summary %+v", sum)
		}
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/streams/"+st.ID, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		// The terminal event arrives only after the backlog is drained;
		// its embedded state must count all 32 observations.
		evs := readEvents(t, ts.URL, st.ID, 0, 0)
		last := evs[len(evs)-1]
		if last.Kind != "closed" {
			t.Fatalf("last event %+v", last)
		}
		got := describeStream(t, ts.URL, st.ID)
		if got.State.Total != 32 || !got.Closed || got.CloseReason != "client" {
			t.Fatalf("drained stream %+v", got)
		}
	}()
	settleGoroutines(t, baseline)
}

// TestStreamIdleTTLReap drives the janitor with a fake clock: an idle
// live stream is closed with reason "idle" (counted as reaped), and once
// terminal and idle again it is removed entirely.
func TestStreamIdleTTLReap(t *testing.T) {
	now := time.Unix(1700000000, 0)
	ts, srv := newStreamServer(t, func(o *Options) {
		o.StreamIdleTTL = time.Minute
		o.streamNow = func() time.Time { return now }
	})
	st := createStream(t, ts.URL, map[string]any{"model": "pde"})

	// Activity inside the TTL keeps it alive.
	now = now.Add(30 * time.Second)
	if _, sum := ingestLines(t, ts.URL, st.ID, ndjsonObs("keep", 500, 100, 10, 1)); sum.Queued != 1 {
		t.Fatalf("summary %+v", sum)
	}
	waitTotal(t, ts.URL, st.ID, 1)
	now = now.Add(45 * time.Second)
	srv.streams.reap(now)
	if got := describeStream(t, ts.URL, st.ID); got.Closed {
		t.Fatalf("stream reaped with activity %v inside the TTL: %+v", 45*time.Second, got)
	}

	// Idle past the TTL: closed with reason "idle".
	now = now.Add(2 * time.Minute)
	srv.streams.reap(now)
	deadline := time.Now().Add(10 * time.Second)
	for {
		got := describeStream(t, ts.URL, st.ID)
		if got.Closed {
			if got.CloseReason != "idle" {
				t.Fatalf("close reason %q", got.CloseReason)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("idle stream never reaped: %+v", got)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if stats := srv.streams.stats(); stats.Reaped != 1 {
		t.Fatalf("reaped counter %d", stats.Reaped)
	}

	// Terminal and idle again: removed from the listing.
	readEvents(t, ts.URL, st.ID, 0, 0) // wait for the terminal event
	now = now.Add(2 * time.Minute)
	srv.streams.reap(now)
	resp, err := http.Get(ts.URL + "/v1/streams/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	wantError(t, resp, http.StatusNotFound, "unknown stream")
}

// TestStreamServerShutdownWithLiveStreams closes the whole tier with
// live, loaded streams: Close must drain queued samples, mark every
// stream closed (reason "shutdown"), refuse new streams, and leave no
// goroutines behind.
func TestStreamServerShutdownWithLiveStreams(t *testing.T) {
	baseline := runtime.NumGoroutine()
	func() {
		ts, srv, teardown := newLeakServer(t)
		defer teardown()
		ids := make([]string, 3)
		for i := range ids {
			st := createStream(t, ts.URL, map[string]any{"model": "pde", "buffer": 32})
			ids[i] = st.ID
			lines := make([]string, 8)
			for j := range lines {
				lines[j] = ndjsonObs(fmt.Sprintf("s%d-o%d", i, j), 500, 100, 40, int64(i*8+j))
			}
			if _, sum := ingestLines(t, ts.URL, st.ID, lines...); sum.Queued != 8 {
				t.Fatalf("summary %+v", sum)
			}
		}
		srv.Close()
		srv.Close() // idempotent
		for _, id := range ids {
			got := describeStream(t, ts.URL, id)
			if !got.Closed || got.CloseReason != "shutdown" || got.State.Total != 8 {
				t.Fatalf("stream %s after shutdown: %+v", id, got)
			}
		}
		resp := postJSON(t, ts.URL+"/v1/streams", map[string]any{"model": "pde"})
		wantError(t, resp, http.StatusServiceUnavailable, "shut down")
	}()
	settleGoroutines(t, baseline)
}

// TestStreamEventsWatcherDisconnect unsubscribes a live event watcher by
// client disconnect: the subscription goroutine must exit without
// touching the stream.
func TestStreamEventsWatcherDisconnect(t *testing.T) {
	baseline := runtime.NumGoroutine()
	func() {
		ts, _, teardown := newLeakServer(t)
		defer teardown()
		st := createStream(t, ts.URL, map[string]any{"model": "pde"})
		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, http.MethodGet,
			ts.URL+"/v1/streams/"+st.ID+"/events", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 256)
		if _, err := resp.Body.Read(buf); err != nil { // the created event
			t.Fatal(err)
		}
		cancel()
		resp.Body.Close()
		// The stream is untouched by its watcher leaving.
		if got := describeStream(t, ts.URL, st.ID); got.Closed {
			t.Fatalf("watcher disconnect closed the stream: %+v", got)
		}
	}()
	settleGoroutines(t, baseline)
}
