package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/counters"
	"repro/internal/jobs"
)

// newStreamServer is newTestServer returning the Server too, for tests
// that reach into the stream manager (manual reaps, direct Close).
func newStreamServer(t *testing.T, opts ...func(*Options)) (*httptest.Server, *Server) {
	t.Helper()
	srv := newTestSrv(t, opts...)
	return serveTest(t, srv), srv
}

// createStream opens a stream and decodes its describe body.
func createStream(t *testing.T, base string, body map[string]any) streamJSON {
	t.Helper()
	resp := postJSON(t, base+"/v1/streams", body)
	if resp.StatusCode != http.StatusCreated {
		b := new(strings.Builder)
		json.NewEncoder(b).Encode(body)
		t.Fatalf("create stream %s: status %d", strings.TrimSpace(b.String()), resp.StatusCode)
	}
	var st streamJSON
	decodeBody(t, resp, &st)
	return st
}

// ndjsonObs renders one observation line: cw >= pm is consistent with
// the pde model, cw < pm refutes it.
func ndjsonObs(label string, cw, pm float64, samples int, seed int64) string {
	b, err := json.Marshal(obsAround(label, cw, pm, samples, seed))
	if err != nil {
		panic(err)
	}
	return string(b)
}

// ingestLines POSTs NDJSON lines to a stream and decodes the summary.
func ingestLines(t *testing.T, base, id string, lines ...string) (int, ingestSummaryJSON) {
	t.Helper()
	body := strings.Join(lines, "\n")
	resp, err := http.Post(base+"/v1/streams/"+id+"/ingest", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	status := resp.StatusCode
	var sum ingestSummaryJSON
	decodeBody(t, resp, &sum)
	return status, sum
}

// describeStream fetches a stream's describe body.
func describeStream(t *testing.T, base, id string) streamJSON {
	t.Helper()
	resp, err := http.Get(base + "/v1/streams/" + id)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("describe %s: status %d", id, resp.StatusCode)
	}
	var st streamJSON
	decodeBody(t, resp, &st)
	return st
}

// waitTotal polls describe until the stream has evaluated n observations.
func waitTotal(t *testing.T, base, id string, n int) streamJSON {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		st := describeStream(t, base, id)
		if st.State.Total >= n {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("stream %s stuck at %d/%d verdicts", id, st.State.Total, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// readEvents consumes the NDJSON event stream until terminal or n events.
func readEvents(t *testing.T, base, id string, from, n int) []jobs.Event {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/v1/streams/%s/events?from=%d", base, id, from), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out []jobs.Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		var ev jobs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("event line %q: %v", sc.Text(), err)
		}
		out = append(out, ev)
		if ev.Kind == "closed" || (n > 0 && len(out) >= n) {
			break
		}
	}
	return out
}

// TestStreamLifecycle drives the happy path end to end: create, ingest a
// refuting corpus, watch the monotone state, replay events, close, and
// check the terminal event and final telemetry.
func TestStreamLifecycle(t *testing.T) {
	ts, _ := newStreamServer(t)
	st := createStream(t, ts.URL, map[string]any{"model": "pde"})
	if st.ID == "" || st.Policy != PolicyBlock || st.State.FirstRefuted != -1 {
		t.Fatalf("created stream %+v", st)
	}

	status, sum := ingestLines(t, ts.URL, st.ID,
		ndjsonObs("ok1", 500, 100, 40, 1),
		"", // blank lines are ignored
		ndjsonObs("ok2", 450, 120, 40, 2),
		ndjsonObs("bad", 100, 400, 40, 3),
	)
	if status != http.StatusOK || sum.Received != 3 || sum.Queued != 3 || sum.ErrorLines != 0 {
		t.Fatalf("ingest status %d summary %+v", status, sum)
	}

	got := waitTotal(t, ts.URL, st.ID, 3)
	if !got.State.Refuted || got.State.Infeasible != 1 || got.State.FirstRefuted != 2 {
		t.Fatalf("state %+v", got.State)
	}
	if got.State.Confidence == 0 || got.ViolatedConstraints["load.pde$_miss <= load.causes_walk"] != 1 {
		t.Fatalf("state %+v violations %v", got.State, got.ViolatedConstraints)
	}
	if got.Ingested != 3 || got.Latency.Count != 3 || got.Latency.MaxMicro <= 0 {
		t.Fatalf("telemetry %+v", got)
	}

	// Replay: created + 3 verdicts, in ingest order, state monotone.
	evs := readEvents(t, ts.URL, st.ID, 0, 4)
	if len(evs) != 4 || evs[0].Kind != "created" {
		t.Fatalf("events %+v", evs)
	}
	for i, ev := range evs[1:] {
		if ev.Kind != "verdict" {
			t.Fatalf("event %d: %+v", i+1, ev)
		}
		var v verdictEventJSON
		b, _ := json.Marshal(ev.Data)
		if err := json.Unmarshal(b, &v); err != nil {
			t.Fatal(err)
		}
		if v.Index != i || v.State.Total != i+1 {
			t.Fatalf("verdict event %d out of order: %+v", i, v)
		}
	}

	// Close: terminal event lands, second DELETE removes, describe 404s.
	resp, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/streams/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := http.DefaultClient.Do(resp)
	if err != nil {
		t.Fatal(err)
	}
	var del streamDeleteJSON
	decodeBody(t, r, &del)
	if !del.Closed {
		t.Fatalf("delete %+v", del)
	}
	evs = readEvents(t, ts.URL, st.ID, 4, 0)
	if len(evs) != 1 || evs[0].Kind != "closed" {
		t.Fatalf("terminal events %+v", evs)
	}
	r, err = http.DefaultClient.Do(resp.Clone(context.Background()))
	if err != nil {
		t.Fatal(err)
	}
	del = streamDeleteJSON{}
	decodeBody(t, r, &del)
	if !del.Removed {
		t.Fatalf("second delete %+v", del)
	}
	r, err = http.Get(ts.URL + "/v1/streams/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	wantError(t, r, http.StatusNotFound, "unknown stream")
}

// TestStreamEvalErrorNotCounted pins the worker's failure path: an
// observation whose evaluation fails (here one with no samples, which the
// ingest decoder would have refused, queued directly) is counted in
// eval_errors and reported as an "error" event, but never folded into the
// state, so the next verdict still takes index 0.
func TestStreamEvalErrorNotCounted(t *testing.T) {
	ts, srv := newStreamServer(t)
	id := createStream(t, ts.URL, map[string]any{"model": "pde"}).ID
	st, _ := srv.streams.get(id)
	if d := st.enqueue(context.Background(), counters.NewObservation("empty", pdeSet())); d != dispQueued {
		t.Fatalf("enqueue: disposition %d", d)
	}
	if status, _ := ingestLines(t, ts.URL, id, ndjsonObs("bad", 100, 400, 40, 3)); status != http.StatusOK {
		t.Fatalf("ingest status %d", status)
	}
	got := waitTotal(t, ts.URL, id, 1)
	if got.EvalErrors != 1 || got.State.Total != 1 || got.State.FirstRefuted != 0 || got.Ingested != 2 {
		t.Fatalf("describe %+v", got)
	}
	if n := srv.streams.stats().EvalErrors; n != 1 {
		t.Fatalf("/stats eval_errors %d", n)
	}
	evs := readEvents(t, ts.URL, id, 0, 3)
	if len(evs) != 3 || evs[1].Kind != "error" || evs[2].Kind != "verdict" {
		t.Fatalf("events %+v", evs)
	}
	if data, _ := evs[1].Data.(map[string]any); data["observation"] != "empty" {
		t.Fatalf("error event %+v", evs[1])
	}
	var v verdictEventJSON
	b, _ := json.Marshal(evs[2].Data)
	if err := json.Unmarshal(b, &v); err != nil {
		t.Fatal(err)
	}
	if v.Index != 0 || v.State.Total != 1 {
		t.Fatalf("verdict after a failed evaluation: %+v", v)
	}
}

// TestStreamCreateValidation covers the create-side error surface.
func TestStreamCreateValidation(t *testing.T) {
	ts, _ := newStreamServer(t)
	resp := postJSON(t, ts.URL+"/v1/streams", map[string]any{"model": "nope"})
	wantError(t, resp, http.StatusNotFound, "nope")
	resp = postJSON(t, ts.URL+"/v1/streams", map[string]any{"model": "pde", "policy": "spill"})
	wantError(t, resp, http.StatusBadRequest, "policy")
	resp = postJSON(t, ts.URL+"/v1/streams", map[string]any{"model": "pde", "buffer": -1})
	wantError(t, resp, http.StatusBadRequest, "buffer")
	resp = postJSON(t, ts.URL+"/v1/streams?confidence=nan", map[string]any{"model": "pde"})
	wantError(t, resp, http.StatusBadRequest, "confidence")
}

// TestStreamMaxStreams pins the stream cap: creation beyond -max-streams
// is a 429 counted in /stats, and closing a stream frees its slot.
func TestStreamMaxStreams(t *testing.T) {
	ts, srv := newStreamServer(t, func(o *Options) { o.MaxStreams = 1 })
	st := createStream(t, ts.URL, map[string]any{"model": "pde"})
	resp := postJSON(t, ts.URL+"/v1/streams", map[string]any{"model": "pde"})
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 must carry Retry-After")
	}
	wantError(t, resp, http.StatusTooManyRequests, "stream cap")
	if got := srv.streams.stats().Rejected; got != 1 {
		t.Fatalf("rejected counter %d", got)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/streams/"+st.ID, nil)
	if _, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	createStream(t, ts.URL, map[string]any{"model": "pde"})
}

// TestStreamIngestErrors covers the per-line error contract: malformed
// lines are reported per line (summary + event) while well-formed lines
// on the same request still queue — nothing is silently skipped.
func TestStreamIngestErrors(t *testing.T) {
	ts, _ := newStreamServer(t)
	st := createStream(t, ts.URL, map[string]any{"model": "pde"})

	status, sum := ingestLines(t, ts.URL, st.ID,
		`{"label":"torn","events":["load.causes_walk"`, // torn JSON
		ndjsonObs("ok", 500, 100, 10, 1),
		`{"label":"alien","events":["cpu.cycles"],"samples":[[1],[2]]}`, // unknown counters
		`{"label":"empty","events":["load.causes_walk","load.pde$_miss"],"samples":[]}`,
		`{"label":"nan","events":["load.causes_walk","load.pde$_miss"],"samples":[[NaN,1]]}`,
	)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if sum.Received != 5 || sum.Queued != 1 || sum.ErrorLines != 4 || len(sum.Errors) != 4 {
		t.Fatalf("summary %+v", sum)
	}
	for _, e := range sum.Errors {
		if e.Line == 0 || e.Error == "" {
			t.Fatalf("error entry %+v", e)
		}
	}
	// Every malformed line is also an error event on the stream.
	waitTotal(t, ts.URL, st.ID, 1)
	evs := readEvents(t, ts.URL, st.ID, 0, 6)
	errEvents := 0
	for _, ev := range evs {
		if ev.Kind == "error" {
			errEvents++
		}
	}
	if errEvents != 4 {
		t.Fatalf("error events %d, want 4 (%+v)", errEvents, evs)
	}

	// Unknown stream and closed stream are request-level errors.
	resp, err := http.Post(ts.URL+"/v1/streams/s999999/ingest", "application/x-ndjson", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	wantError(t, resp, http.StatusNotFound, "unknown stream")
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/streams/"+st.ID, nil)
	if _, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/v1/streams/"+st.ID+"/ingest", "application/x-ndjson",
		strings.NewReader(ndjsonObs("late", 500, 100, 10, 9)))
	if err != nil {
		t.Fatal(err)
	}
	wantError(t, resp, http.StatusConflict, "closed")
}

// TestStreamOversizedLine pins the ErrTooLong contract: a line past the
// cap is a per-line error that aborts the request (the line boundary is
// lost), and the error is visible in both summary and events.
func TestStreamOversizedLine(t *testing.T) {
	ts, srv := newStreamServer(t)
	srv.streams.maxLine = 1024
	st := createStream(t, ts.URL, map[string]any{"model": "pde"})
	big := ndjsonObs("big", 500, 100, 200, 1) // ~200 samples ≫ 1 KiB
	if len(big) <= 1024 {
		t.Fatalf("oversized line is only %d bytes", len(big))
	}
	status, sum := ingestLines(t, ts.URL, st.ID, ndjsonObs("ok", 500, 100, 10, 2), big)
	if status != http.StatusOK || sum.Queued != 1 || sum.ErrorLines != 1 {
		t.Fatalf("status %d summary %+v", status, sum)
	}
	// The aborted line counts once in received and once in error_lines.
	if sum.Received != sum.Queued+sum.Dropped+sum.Rejected+sum.ErrorLines {
		t.Fatalf("summary %+v: received != queued + dropped + rejected + error_lines", sum)
	}
	if !strings.Contains(sum.Errors[0].Error, "exceeds") || sum.Errors[0].Line != 2 {
		t.Fatalf("error %+v, want line 2 over the cap", sum.Errors[0])
	}
}

// TestStreamDropPolicy exercises the slow-reader drop policy: with a
// tiny queue and an offered burst far beyond the solve rate, the
// overflow is dropped, counted (summary, describe, /stats) and surfaced
// as a coalesced dropped event — and the queue never grows past the
// high-water mark.
func TestStreamDropPolicy(t *testing.T) {
	ts, srv := newStreamServer(t)
	release := holdStreamWorkers(t, srv)
	st := createStream(t, ts.URL, map[string]any{"model": "pde", "policy": "drop", "buffer": 2})
	if st.Buffer != 2 {
		t.Fatalf("buffer %d", st.Buffer)
	}
	lines := make([]string, 64)
	for i := range lines {
		lines[i] = ndjsonObs(fmt.Sprintf("o%d", i), 500, 100, 60, int64(i))
	}
	status, sum := ingestLines(t, ts.URL, st.ID, lines...)
	release()
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if sum.Queued+sum.Dropped != 64 || sum.Dropped == 0 {
		t.Fatalf("summary %+v: a 64-burst into a 2-slot queue must drop", sum)
	}
	got := waitTotal(t, ts.URL, st.ID, sum.Queued)
	if got.HighWater > 2 {
		t.Fatalf("high-water %d exceeded buffer 2", got.HighWater)
	}
	if got.Dropped != uint64(sum.Dropped) {
		t.Fatalf("describe dropped %d != summary %d", got.Dropped, sum.Dropped)
	}
	if stats := srv.streams.stats(); stats.Dropped != uint64(sum.Dropped) {
		t.Fatalf("/stats dropped %d != %d", stats.Dropped, sum.Dropped)
	}
	evs := readEvents(t, ts.URL, st.ID, 0, 1+sum.Queued+1)
	found := false
	for _, ev := range evs {
		if ev.Kind == "dropped" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no coalesced dropped event in %+v", evs)
	}
}

// holdStreamWorkers holds the workers of streams created from now on
// until the returned release runs (at the latest, at test cleanup, before
// the server shuts down), so their queues fill deterministically.
func holdStreamWorkers(t *testing.T, srv *Server) (release func()) {
	t.Helper()
	hold := make(chan struct{})
	srv.streams.mu.Lock()
	srv.streams.workerHold = hold
	srv.streams.mu.Unlock()
	var once sync.Once
	release = func() { once.Do(func() { close(hold) }) }
	t.Cleanup(release)
	return release
}

// TestStreamBlockedProducerStallsNothingElse holds a block-policy
// producer mid-send on a full queue and requires the rest of the stream
// tier to keep answering: /healthz, /stats, describe of the blocked and
// of a healthy stream, and a new create. Once the worker runs, every
// queued observation is evaluated, in ingest order.
func TestStreamBlockedProducerStallsNothingElse(t *testing.T) {
	ts, srv := newStreamServer(t)
	healthy := createStream(t, ts.URL, map[string]any{"model": "pde"})
	release := holdStreamWorkers(t, srv)
	blocked := createStream(t, ts.URL, map[string]any{"model": "pde", "buffer": 1})
	lines := make([]string, 4)
	for i := range lines {
		lines[i] = ndjsonObs(fmt.Sprintf("b%d", i), 500, 100, 10, int64(i))
	}
	type result struct {
		status int
		sum    ingestSummaryJSON
		err    error
	}
	ingested := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/streams/"+blocked.ID+"/ingest", "application/x-ndjson",
			strings.NewReader(strings.Join(lines, "\n")))
		if err != nil {
			ingested <- result{err: err}
			return
		}
		defer resp.Body.Close()
		var r result
		r.status = resp.StatusCode
		r.err = json.NewDecoder(resp.Body).Decode(&r.sum)
		ingested <- r
	}()

	// The producer is blocked once the one-slot queue is full and it
	// holds the stream's enqueue lock for its next send.
	st, _ := srv.streams.get(blocked.ID)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		st.mu.Lock()
		n := st.ingested
		st.mu.Unlock()
		if n == 1 {
			if !st.qmu.TryLock() {
				break
			}
			st.qmu.Unlock()
		}
		if time.Now().After(deadline) {
			t.Fatalf("producer never blocked (ingested %d)", n)
		}
	}

	client := &http.Client{Timeout: time.Second}
	for _, c := range []struct {
		method, path, body string
		want               int
	}{
		{http.MethodGet, "/healthz", "", http.StatusOK},
		{http.MethodGet, "/stats", "", http.StatusOK},
		{http.MethodPost, "/v1/streams", `{"model":"pde"}`, http.StatusCreated},
		{http.MethodGet, "/v1/streams/" + blocked.ID, "", http.StatusOK},
		{http.MethodGet, "/v1/streams/" + healthy.ID, "", http.StatusOK},
	} {
		req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Errorf("%s %s while a producer is blocked: %v", c.method, c.path, err)
			continue
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s %s while a producer is blocked: status %d, want %d", c.method, c.path, resp.StatusCode, c.want)
		}
	}

	release()
	r := <-ingested
	if r.err != nil || r.status != http.StatusOK || r.sum.Queued != len(lines) {
		t.Fatalf("blocked ingest: status %d, summary %+v, err %v; want 200 with %d queued", r.status, r.sum, r.err, len(lines))
	}
	waitTotal(t, ts.URL, blocked.ID, len(lines))
	var got []string
	for _, ev := range readEvents(t, ts.URL, blocked.ID, 0, 1+len(lines)) {
		if ev.Kind == "verdict" {
			got = append(got, ev.Data.(map[string]any)["observation"].(string))
		}
	}
	if want := []string{"b0", "b1", "b2", "b3"}; strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("verdicts for %v, want %v in ingest order", got, want)
	}
}

// TestStreamRejectPolicy exercises the fail-fast policy: the first
// full-queue line 429s the request, reporting how far it got.
func TestStreamRejectPolicy(t *testing.T) {
	ts, srv := newStreamServer(t)
	holdStreamWorkers(t, srv)
	st := createStream(t, ts.URL, map[string]any{"model": "pde", "policy": "reject", "buffer": 2})
	lines := make([]string, 64)
	for i := range lines {
		lines[i] = ndjsonObs(fmt.Sprintf("o%d", i), 500, 100, 60, int64(i))
	}
	status, sum := ingestLines(t, ts.URL, st.ID, lines...)
	if status != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (summary %+v)", status, sum)
	}
	if sum.Rejected != 1 || sum.Queued == 0 || sum.Queued+sum.Rejected > 64 {
		t.Fatalf("summary %+v", sum)
	}
	if stats := srv.streams.stats(); stats.Rejected == 0 {
		t.Fatal("reject not counted in /stats")
	}
}

// TestStreamConfigOverride pins query-parameter config plumbing: a
// stream created at confidence 0.5 reports exactly 0.5 after one
// refuting observation (1-(1-c)^1 = c).
func TestStreamConfigOverride(t *testing.T) {
	ts, _ := newStreamServer(t)
	resp := postJSON(t, ts.URL+"/v1/streams?confidence=0.5", map[string]any{"model": "pde"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	var st streamJSON
	decodeBody(t, resp, &st)
	if _, sum := ingestLines(t, ts.URL, st.ID, ndjsonObs("bad", 100, 400, 40, 1)); sum.Queued != 1 {
		t.Fatalf("summary %+v", sum)
	}
	got := waitTotal(t, ts.URL, st.ID, 1)
	if !got.State.Refuted || got.State.Confidence != 0.5 {
		t.Fatalf("state %+v, want confidence exactly 0.5", got.State)
	}
}

// TestStreamStatsAndHealthz checks the stream tier shows up in the
// service's observability endpoints.
func TestStreamStatsAndHealthz(t *testing.T) {
	ts, _ := newStreamServer(t)
	createStream(t, ts.URL, map[string]any{"model": "pde"})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h healthJSON
	decodeBody(t, resp, &h)
	if h.Streams != 1 {
		t.Fatalf("healthz streams %d", h.Streams)
	}
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st statsJSON
	decodeBody(t, resp, &st)
	if st.Streams.Active != 1 || st.Streams.Created != 1 {
		t.Fatalf("stats streams %+v", st.Streams)
	}
	// The listing carries the same stream.
	resp, err = http.Get(ts.URL + "/v1/streams")
	if err != nil {
		t.Fatal(err)
	}
	var list streamListJSON
	decodeBody(t, resp, &list)
	if len(list.Streams) != 1 {
		t.Fatalf("listing %+v", list)
	}
}
