package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/counters"
	"repro/internal/engine"
)

const pdeModelSrc = `
incr load.causes_walk;
do LookupPde$;
switch Pde$Status {
    Hit  => pass;
    Miss => incr load.pde$_miss;
};
done;
`

func pdeSet() *counters.Set {
	return counters.NewSet("load.causes_walk", "load.pde$_miss")
}

// obsAround synthesises an observation whose samples hover around (cw, pm):
// cw >= pm is consistent with the pde model, cw < pm refutes it.
func obsAround(label string, cw, pm float64, samples int, seed int64) *counters.Observation {
	o := counters.NewObservation(label, pdeSet())
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < samples; i++ {
		o.Append([]float64{cw + rng.NormFloat64(), pm + rng.NormFloat64()})
	}
	return o
}

// newTestServer builds a service over a dedicated engine with the tiny pde
// model pre-seeded, torn down with the test.
func newTestServer(t *testing.T, opts ...func(*Options)) *httptest.Server {
	t.Helper()
	eng := engine.New(engine.WithWorkers(2))
	t.Cleanup(eng.Close)
	o := Options{
		Engine:   eng,
		Defaults: engine.Config{IdentifyViolations: true},
		Catalog:  []Model{{Name: "pde", Source: pdeModelSrc}},
	}
	for _, f := range opts {
		f(&o)
	}
	srv := New(o)
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

func decodeBody(t *testing.T, resp *http.Response, dst any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
		t.Fatalf("decode response: %v", err)
	}
}

// wantError asserts an error response with the given status whose JSON body
// mentions substr.
func wantError(t *testing.T, resp *http.Response, status int, substr string) {
	t.Helper()
	if resp.StatusCode != status {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, status, body)
	}
	var e errorJSON
	decodeBody(t, resp, &e)
	if !strings.Contains(e.Error, substr) {
		t.Fatalf("error %q does not mention %q", e.Error, substr)
	}
}

// corpusJSON is the /evaluate request body.
type corpusJSON struct {
	Observations []*counters.Observation `json:"observations"`
}

func postJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h healthJSON
	decodeBody(t, resp, &h)
	if h.Status != "ok" || h.Models != 1 || h.Workers != 2 {
		t.Fatalf("health %+v", h)
	}
}

func TestListModels(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var l listJSON
	decodeBody(t, resp, &l)
	if len(l.Models) != 1 || l.Models[0] != "pde" {
		t.Fatalf("models %v", l.Models)
	}
}

func TestRegisterModel(t *testing.T) {
	ts := newTestServer(t)
	resp := postJSON(t, ts.URL+"/v1/models", registerJSON{Name: "tiny", Source: "incr a;\ndone;\n"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var m modelSummaryJSON
	decodeBody(t, resp, &m)
	if m.Name != "tiny" || m.NumPaths != 1 || len(m.Counters) != 1 || m.Counters[0] != "a" {
		t.Fatalf("summary %+v", m)
	}
	// The registered model is immediately servable.
	resp, err := http.Get(ts.URL + "/v1/models/tiny")
	if err != nil {
		t.Fatal(err)
	}
	var d describeJSON
	decodeBody(t, resp, &d)
	if len(d.Signatures) != 1 {
		t.Fatalf("describe %+v", d)
	}
}

func TestRegisterRejectsBadInput(t *testing.T) {
	ts := newTestServer(t)
	t.Run("bad DSL", func(t *testing.T) {
		resp := postJSON(t, ts.URL+"/v1/models", registerJSON{Name: "broken", Source: "switch {"})
		wantError(t, resp, http.StatusBadRequest, "broken")
	})
	t.Run("bad JSON", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/models", "application/json", strings.NewReader("{"))
		if err != nil {
			t.Fatal(err)
		}
		wantError(t, resp, http.StatusBadRequest, "decode")
	})
	t.Run("empty name", func(t *testing.T) {
		resp := postJSON(t, ts.URL+"/v1/models", registerJSON{Name: "", Source: "done;"})
		wantError(t, resp, http.StatusBadRequest, "name")
	})
	t.Run("unaddressable name", func(t *testing.T) {
		resp := postJSON(t, ts.URL+"/v1/models", registerJSON{Name: "a/b", Source: "done;"})
		wantError(t, resp, http.StatusBadRequest, "path-safe")
	})
	t.Run("duplicate name", func(t *testing.T) {
		resp := postJSON(t, ts.URL+"/v1/models", registerJSON{Name: "pde", Source: "done;"})
		wantError(t, resp, http.StatusConflict, "already registered")
	})
	// A failed registration must leave no half-registered entry behind.
	resp, err := http.Get(ts.URL + "/v1/models/broken")
	if err != nil {
		t.Fatal(err)
	}
	wantError(t, resp, http.StatusNotFound, "unknown model")
}

func TestDescribeModel(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/models/pde")
	if err != nil {
		t.Fatal(err)
	}
	var d describeJSON
	decodeBody(t, resp, &d)
	if d.NumPaths != 2 {
		t.Fatalf("num_paths %d", d.NumPaths)
	}
	found := false
	for _, c := range d.Constraints {
		if c == "load.pde$_miss <= load.causes_walk" {
			found = true
		}
	}
	if !found {
		t.Fatalf("constraints %v missing the pde$ bound", d.Constraints)
	}
	// Two μpaths: walk without and with a pde$ miss.
	want := map[string]bool{"[1 0]": true, "[1 1]": true}
	if len(d.Signatures) != 2 || !want[fmt.Sprint(d.Signatures[0])] || !want[fmt.Sprint(d.Signatures[1])] {
		t.Fatalf("signatures %v", d.Signatures)
	}
}

func TestDescribeUnknownModel(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/models/nope")
	if err != nil {
		t.Fatal(err)
	}
	wantError(t, resp, http.StatusNotFound, "unknown model")
}

func TestTestEndpoint(t *testing.T) {
	ts := newTestServer(t)
	t.Run("feasible", func(t *testing.T) {
		resp := postJSON(t, ts.URL+"/v1/models/pde/test", obsAround("ok", 500, 100, 80, 1))
		var v verdictJSON
		decodeBody(t, resp, &v)
		if !v.Feasible || v.Observation != "ok" {
			t.Fatalf("verdict %+v", v)
		}
	})
	t.Run("infeasible with violations", func(t *testing.T) {
		resp := postJSON(t, ts.URL+"/v1/models/pde/test", obsAround("bad", 100, 400, 80, 2))
		var v verdictJSON
		decodeBody(t, resp, &v)
		if v.Feasible {
			t.Fatal("anomalous observation judged feasible")
		}
		if len(v.Violations) == 0 || v.Violations[0] != "load.pde$_miss <= load.causes_walk" {
			t.Fatalf("violations %v", v.Violations)
		}
	})
	t.Run("violation identification off", func(t *testing.T) {
		resp := postJSON(t, ts.URL+"/v1/models/pde/test?identify=false", obsAround("bad", 100, 400, 80, 2))
		var v verdictJSON
		decodeBody(t, resp, &v)
		if v.Feasible || len(v.Violations) != 0 {
			t.Fatalf("verdict %+v", v)
		}
	})
	t.Run("bad body", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/models/pde/test", "application/json", strings.NewReader(`{"label":"x"}`))
		if err != nil {
			t.Fatal(err)
		}
		wantError(t, resp, http.StatusBadRequest, "")
	})
	t.Run("empty observation", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/models/pde/test", "application/json",
			strings.NewReader(`{"label":"x","events":["a"],"samples":[]}`))
		if err != nil {
			t.Fatal(err)
		}
		wantError(t, resp, http.StatusBadRequest, "no samples")
	})
	t.Run("unknown model", func(t *testing.T) {
		resp := postJSON(t, ts.URL+"/v1/models/nope/test", obsAround("ok", 500, 100, 10, 1))
		wantError(t, resp, http.StatusNotFound, "unknown model")
	})
	t.Run("bad confidence", func(t *testing.T) {
		for _, v := range []string{"2", "NaN", "-0.5", "x"} {
			resp := postJSON(t, ts.URL+"/v1/models/pde/test?confidence="+v, obsAround("ok", 500, 100, 10, 1))
			wantError(t, resp, http.StatusBadRequest, "confidence")
		}
	})
	t.Run("bad mode", func(t *testing.T) {
		resp := postJSON(t, ts.URL+"/v1/models/pde/test?mode=banana", obsAround("ok", 500, 100, 10, 1))
		wantError(t, resp, http.StatusBadRequest, "mode")
	})
}

// TestTestEndpointHostileSamples: samples near ±1e300 or ±1.7e308
// overflow the covariance to infinity; /test answers 422 naming the
// non-finite matrix, in both noise modes, instead of iterating on it.
func TestTestEndpointHostileSamples(t *testing.T) {
	ts := newTestServer(t)
	client := &http.Client{Timeout: 10 * time.Second}
	for _, big := range []float64{1e300, 1.7e308} {
		o := counters.NewObservation("hostile", pdeSet())
		for i := 0; i < 12; i++ {
			s := float64(1 - 2*(i%2))
			o.Append([]float64{s * big, -s * big})
		}
		body, err := json.Marshal(o)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []string{"correlated", "independent"} {
			resp, err := client.Post(ts.URL+"/v1/models/pde/test?mode="+mode, "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatalf("samples near %g, %s: %v", big, mode, err)
			}
			wantError(t, resp, http.StatusUnprocessableEntity, "non-finite")
		}
	}
}

func TestEvaluateJSONCorpus(t *testing.T) {
	ts := newTestServer(t)
	corpus := corpusJSON{Observations: []*counters.Observation{
		obsAround("ok1", 500, 100, 60, 1),
		obsAround("bad", 100, 400, 60, 2),
		obsAround("ok2", 300, 299, 60, 3),
	}}
	resp := postJSON(t, ts.URL+"/v1/models/pde/evaluate", corpus)
	var res corpusResultJSON
	decodeBody(t, resp, &res)
	if res.Model != "pde" || res.Total != 3 || res.Infeasible != 1 || res.Feasible {
		t.Fatalf("aggregate %+v", res)
	}
	if res.ViolatedConstraints["load.pde$_miss <= load.causes_walk"] != 1 {
		t.Fatalf("violations %v", res.ViolatedConstraints)
	}
	// Verdicts come back in corpus order.
	for i, want := range []string{"ok1", "bad", "ok2"} {
		if res.Verdicts[i].Observation != want {
			t.Fatalf("verdict %d is %q, want %q", i, res.Verdicts[i].Observation, want)
		}
	}
}

// multipartCorpus renders observations as a multipart CSV upload.
func multipartCorpus(t *testing.T, obs ...*counters.Observation) (*bytes.Buffer, string) {
	t.Helper()
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	for _, o := range obs {
		fw, err := mw.CreateFormFile("corpus", o.Label+".csv")
		if err != nil {
			t.Fatal(err)
		}
		if err := counters.WriteCSV(fw, o); err != nil {
			t.Fatal(err)
		}
	}
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
	return &buf, mw.FormDataContentType()
}

func TestEvaluateMultipartCSV(t *testing.T) {
	ts := newTestServer(t)
	body, ctype := multipartCorpus(t,
		obsAround("ok", 500, 100, 60, 1),
		obsAround("bad", 100, 400, 60, 2),
	)
	resp, err := http.Post(ts.URL+"/v1/models/pde/evaluate", ctype, body)
	if err != nil {
		t.Fatal(err)
	}
	var res corpusResultJSON
	decodeBody(t, resp, &res)
	if res.Total != 2 || res.Infeasible != 1 {
		t.Fatalf("aggregate %+v", res)
	}
	// Labels carry the uploaded filenames.
	if res.Verdicts[0].Observation != "ok.csv" || res.Verdicts[1].Observation != "bad.csv" {
		t.Fatalf("verdicts %+v", res.Verdicts)
	}
}

func TestEvaluateRejectsBadCorpus(t *testing.T) {
	ts := newTestServer(t)
	t.Run("malformed CSV", func(t *testing.T) {
		var buf bytes.Buffer
		mw := multipart.NewWriter(&buf)
		fw, _ := mw.CreateFormFile("corpus", "broken.csv")
		fw.Write([]byte("a,b\n1,notanumber\n"))
		mw.Close()
		resp, err := http.Post(ts.URL+"/v1/models/pde/evaluate", mw.FormDataContentType(), &buf)
		if err != nil {
			t.Fatal(err)
		}
		wantError(t, resp, http.StatusBadRequest, "")
	})
	t.Run("empty corpus", func(t *testing.T) {
		resp := postJSON(t, ts.URL+"/v1/models/pde/evaluate", corpusJSON{})
		wantError(t, resp, http.StatusBadRequest, "no observations")
	})
	t.Run("bad JSON", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/models/pde/evaluate", "application/json", strings.NewReader("]"))
		if err != nil {
			t.Fatal(err)
		}
		wantError(t, resp, http.StatusBadRequest, "decode")
	})
	t.Run("null observation", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/models/pde/evaluate", "application/json",
			strings.NewReader(`{"observations":[null]}`))
		if err != nil {
			t.Fatal(err)
		}
		wantError(t, resp, http.StatusBadRequest, "null")
	})
}

// TestOverCapBodies413 sends bodies past Options.MaxBodyBytes to every
// kind of handler that reads one: each answers 413, not the 400 of a
// malformed body, while a body under the cap is still served.
func TestOverCapBodies413(t *testing.T) {
	ts := newTestServer(t, func(o *Options) { o.MaxBodyBytes = 512 })
	small, err := json.Marshal(obsAround("small", 500, 100, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	big, err := json.Marshal(obsAround("big", 500, 100, 40, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(small) >= 512 || len(big) <= 512 {
		t.Fatalf("test bodies of %d and %d bytes do not straddle the cap", len(small), len(big))
	}
	post := func(path string, body []byte) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	resp := post("/v1/models/pde/test", small)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("under-cap /test: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	corpus := []byte(`{"observations":[` + string(big) + `]}`)
	register := []byte(`{"name":"huge","source":"` + strings.Repeat("incr load.ret;", 64) + `"}`)
	for _, c := range []struct{ path, body string }{
		{"/v1/models/pde/test", string(big)},
		{"/v1/models/pde/evaluate", string(corpus)},
		{"/v1/models/pde/evaluate/stream", string(corpus)},
		{"/v1/models", string(register)},
		{"/v1/sweep", `{"seed":1,"samples":8,"uops_per_sample":1500,"pad":"` + strings.Repeat("x", 600) + `"}`},
	} {
		wantError(t, post(c.path, []byte(c.body)), http.StatusRequestEntityTooLarge, "request body too large")
	}

	st := createStream(t, ts.URL, map[string]any{"model": "pde"})
	status, sum := ingestLines(t, ts.URL, st.ID, string(small), string(big))
	// The line the cap cut short is one aborted line: counted once in
	// received and once in error_lines, and never decoded.
	if status != http.StatusRequestEntityTooLarge || sum.Queued != 1 || sum.ErrorLines != 1 || len(sum.Errors) != 1 ||
		!strings.Contains(sum.Errors[0].Error, "body exceeds 512 bytes") {
		t.Fatalf("over-cap ingest: status %d, summary %+v; want 413, one queued, one error on the cap", status, sum)
	}
	if sum.Received != sum.Queued+sum.Dropped+sum.Rejected+sum.ErrorLines {
		t.Fatalf("over-cap ingest summary %+v: received != queued + dropped + rejected + error_lines", sum)
	}
}

// readNDJSON decodes every line of an NDJSON evaluation response.
func readNDJSON(t *testing.T, resp *http.Response) []streamItemJSON {
	t.Helper()
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != "application/x-ndjson" {
		t.Fatalf("content type %q", got)
	}
	sc := bufio.NewScanner(resp.Body)
	var lines []streamItemJSON
	for sc.Scan() {
		var item streamItemJSON
		if err := json.Unmarshal(sc.Bytes(), &item); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, item)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestStreamOrdering drives the NDJSON endpoint over a one- and a
// four-worker engine: verdict lines arrive in corpus order at any worker
// count, so the streamed indices must be exactly 0..n-1, then the
// aggregate line.
func TestStreamOrdering(t *testing.T) {
	const n = 16
	corpus := corpusJSON{}
	for i := 0; i < n; i++ {
		corpus.Observations = append(corpus.Observations,
			obsAround(fmt.Sprintf("run-%d", i), 500, 100, 40, int64(i)))
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			eng := engine.New(engine.WithWorkers(workers))
			t.Cleanup(eng.Close)
			ts := newTestServer(t, func(o *Options) { o.Engine = eng })
			lines := readNDJSON(t, postJSON(t, ts.URL+"/v1/models/pde/evaluate/stream?batch=1", corpus))
			if len(lines) != n+1 {
				t.Fatalf("streamed %d lines, want %d verdicts + 1 aggregate", len(lines), n)
			}
			for i, item := range lines[:n] {
				if item.Index == nil || *item.Index != i {
					t.Fatalf("line %d has index %v, want %d", i, item.Index, i)
				}
				if item.Observation != fmt.Sprintf("run-%d", i) {
					t.Fatalf("line %d is %q", i, item.Observation)
				}
				if item.Feasible == nil || !*item.Feasible {
					t.Fatalf("line %d not feasible: %+v", i, item)
				}
			}
			final := lines[n]
			if !final.Done || final.Total != n || final.Infeasible != 0 || final.Error != "" {
				t.Fatalf("aggregate %+v", final)
			}
		})
	}
}

// TestStreamEarlyExit checks first=true stops the stream at the first
// refutation in corpus order, at any worker count: the lines are exactly
// indices 0..k, the last one refuting, then an aggregate with total k+1.
func TestStreamEarlyExit(t *testing.T) {
	const k = 5 // the first refuting index
	corpus := corpusJSON{}
	for i := 0; i < 33; i++ {
		corpus.Observations = append(corpus.Observations,
			obsAround(fmt.Sprintf("ok-%d", i), 500, 100, 60, int64(i+2)))
	}
	corpus.Observations[k] = obsAround("bad", 100, 400, 60, 1)
	corpus.Observations[20] = obsAround("later-bad", 100, 400, 60, 77)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			eng := engine.New(engine.WithWorkers(workers))
			t.Cleanup(eng.Close)
			ts := newTestServer(t, func(o *Options) { o.Engine = eng })
			lines := readNDJSON(t, postJSON(t, ts.URL+"/v1/models/pde/evaluate/stream?first=true&batch=2", corpus))
			if len(lines) != k+2 {
				t.Fatalf("streamed %d lines, want %d verdicts + 1 aggregate", len(lines), k+1)
			}
			for i, item := range lines[:k+1] {
				if item.Index == nil || *item.Index != i {
					t.Fatalf("line %d has index %v, want %d", i, item.Index, i)
				}
				if item.Feasible == nil || *item.Feasible != (i != k) {
					t.Fatalf("line %d: %+v", i, item)
				}
			}
			if lines[k].Observation != "bad" {
				t.Fatalf("refuting line is %q", lines[k].Observation)
			}
			final := lines[k+1]
			if !final.Done || final.Total != k+1 || final.Infeasible != 1 || final.Error != "" {
				t.Fatalf("aggregate %+v", final)
			}
		})
	}
}

// TestStreamClientDisconnect closes the response mid-stream and requires
// the server-side evaluation to terminate without leaking goroutines: the
// request context cancels the in-flight chunks.
func TestStreamClientDisconnect(t *testing.T) {
	before := runtime.NumGoroutine()

	eng := engine.New(engine.WithWorkers(2))
	srv := New(Options{Engine: eng, Catalog: []Model{{Name: "pde", Source: pdeModelSrc}}})
	ts := httptest.NewServer(srv)

	// A corpus large enough that evaluation is still in flight when the
	// client walks away after two lines.
	corpus := corpusJSON{}
	for i := 0; i < 4096; i++ {
		corpus.Observations = append(corpus.Observations,
			obsAround(fmt.Sprintf("run-%d", i), 500, 100, 50, int64(i)))
	}
	body, err := json.Marshal(corpus)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/models/pde/evaluate/stream?batch=1", "application/json",
		bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	for i := 0; i < 2 && sc.Scan(); i++ {
	}
	resp.Body.Close() // client disconnect: the handler's context ends

	// Teardown must not hang on an orphaned stream, and the goroutine
	// count must settle back to the pre-server baseline.
	ts.Close()
	eng.Close()
	http.DefaultClient.CloseIdleConnections()
	settleGoroutines(t, before)
}

// settleGoroutines waits for the goroutine count to return to the
// baseline, dumping stacks on timeout.
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before, %d after\n%s",
				baseline, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestConcurrencyCap checks requests beyond MaxConcurrent queue rather
// than run, and complete once slots free up.
func TestConcurrencyCap(t *testing.T) {
	ts := newTestServer(t, func(o *Options) { o.MaxConcurrent = 1 })
	corpus := corpusJSON{Observations: []*counters.Observation{
		obsAround("ok", 500, 100, 60, 1),
	}}
	body, err := json.Marshal(corpus)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/v1/models/pde/evaluate", "application/json",
				bytes.NewReader(body))
			if err != nil {
				done <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				done <- fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			done <- nil
		}()
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestRequestsShareRegionCache checks request payloads share the engine's
// content-addressed region cache: re-sending an observation under another
// label hits the region built for the first copy, while each verdict keeps
// its own request's label, and /stats and /healthz report the cache.
func TestRequestsShareRegionCache(t *testing.T) {
	ts := newTestServer(t)
	o := obsAround("ok", 500, 100, 60, 1)
	for i, label := range []string{"first", "second", "third"} {
		o.Label = label
		resp := postJSON(t, ts.URL+"/v1/models/pde/test", o)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
		var v verdictJSON
		decodeBody(t, resp, &v)
		if v.Observation != label {
			t.Fatalf("request %d: verdict labelled %q, want %q", i, v.Observation, label)
		}
	}
	resp := postJSON(t, ts.URL+"/v1/models/pde/test", obsAround("other", 500, 100, 60, 2))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	resp.Body.Close()

	var st statsJSON
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, resp, &st)
	if c := st.Caches; c.RegionMisses != 2 || c.RegionHits != 2 || c.RegionEntries != 2 || c.RegionEvictions != 0 || st.Regions != 2 {
		t.Fatalf("region misses %d hits %d entries %d evictions %d cached_regions %d, want 2/2/2/0/2",
			c.RegionMisses, c.RegionHits, c.RegionEntries, c.RegionEvictions, st.Regions)
	}
	var h healthJSON
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, resp, &h)
	if h.Regions != 2 {
		t.Fatalf("healthz cached_regions %d, want 2", h.Regions)
	}
}

// TestRejectsUnrecordedCounters checks observations missing model
// counters are refused rather than silently zero-filled into a
// confidently wrong verdict.
func TestRejectsUnrecordedCounters(t *testing.T) {
	ts := newTestServer(t)
	partial := counters.NewObservation("partial", counters.NewSet("load.causes_walk"))
	partial.Append([]float64{10})
	partial.Append([]float64{11})
	resp := postJSON(t, ts.URL+"/v1/models/pde/test", partial)
	wantError(t, resp, http.StatusBadRequest, "load.pde$_miss")
	// Same guard on the corpus endpoints.
	resp = postJSON(t, ts.URL+"/v1/models/pde/evaluate",
		corpusJSON{Observations: []*counters.Observation{obsAround("ok", 500, 100, 20, 1), partial}})
	wantError(t, resp, http.StatusBadRequest, "load.pde$_miss")
	// Extra recorded counters beyond the model's are fine (projected away).
	extra := counters.NewObservation("extra", counters.NewSet("load.causes_walk", "load.pde$_miss", "load.ret"))
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 20; i++ {
		extra.Append([]float64{500 + rng.NormFloat64(), 100 + rng.NormFloat64(), 600 + rng.NormFloat64()})
	}
	resp = postJSON(t, ts.URL+"/v1/models/pde/test", extra)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("superset observation rejected: status %d", resp.StatusCode)
	}
	resp.Body.Close()
}
