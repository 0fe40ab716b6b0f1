package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/jobs"
	"repro/internal/jobstore"
)

// durableServer wires a Server to a jobstore on a fault-injectable
// in-memory fs. The store runs its real retry and degradation clocks.
func durableServer(t *testing.T) (*Server, *jobstore.Store, *faultfs.Mem) {
	t.Helper()
	mem := faultfs.NewMem()
	st, err := jobstore.Open("jobs.db", jobstore.Options{FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	m := jobs.NewManager(jobs.Options{Journal: st})
	t.Cleanup(func() { m.Close(); st.Close() })
	return New(Options{Jobs: m, JobStore: st}), st, mem
}

func doJSON(t *testing.T, s *Server, method, path, body string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	var r *http.Request
	if body == "" {
		r = httptest.NewRequest(method, path, nil)
	} else {
		r = httptest.NewRequest(method, path, strings.NewReader(body))
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	out := map[string]any{}
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatalf("%s %s: non-JSON body %q", method, path, w.Body.String())
	}
	return w, out
}

// TestHealthzDegradedBlockAndDurableSubmitShedding walks the degradation
// contract end to end on the HTTP surface: healthy durable daemon →
// store failure fails a submit with 503 + Retry-After → /healthz flips
// to "degraded" with the failure detail → further durable submits and
// resumes are shed without touching the store → a successful probe
// clears everything.
func TestHealthzDegradedBlockAndDurableSubmitShedding(t *testing.T) {
	s, st, mem := durableServer(t)

	w, h := doJSON(t, s, "GET", "/healthz", "")
	if w.Code != http.StatusOK || h["status"] != "ok" || h["durable"] != true {
		t.Fatalf("healthy healthz = %d %v", w.Code, h)
	}
	if _, ok := h["degraded"]; ok {
		t.Fatalf("healthy healthz carries a degraded block: %v", h)
	}

	mem.FailWrites(1<<30, errors.New("disk on fire"))
	mem.FailSyncs(1<<30, errors.New("disk on fire"))
	w, body := doJSON(t, s, "POST", "/v1/sweep", "{}")
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit with failing journal = %d %v", w.Code, body)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("journal-failure 503 missing Retry-After")
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "journal") {
		t.Fatalf("journal-failure error = %q", body["error"])
	}

	w, h = doJSON(t, s, "GET", "/healthz", "")
	if h["status"] != "degraded" {
		t.Fatalf("degraded healthz status = %v", h["status"])
	}
	deg, ok := h["degraded"].(map[string]any)
	if !ok {
		t.Fatalf("degraded healthz missing block: %v", h)
	}
	// The retry_in_ms countdown is unit-tested in jobstore.
	if deg["state"] != "degraded" || deg["last_error"] != "disk on fire" {
		t.Fatalf("degraded block = %v", deg)
	}

	_, stats := doJSON(t, s, "GET", "/stats", "")
	js, ok := stats["jobstore"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing jobstore block: %v", stats)
	}
	if js["degradations"].(float64) < 1 {
		t.Fatalf("jobstore stats = %v", js)
	}

	// Shed without touching the store: both durable endpoints.
	for _, probe := range []struct{ method, path string }{
		{"POST", "/v1/sweep"},
		{"POST", "/v1/explore"},
		{"POST", "/v1/jobs/j000000/resume"},
	} {
		w, _ := doJSON(t, s, probe.method, probe.path, "{}")
		if w.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s %s while degraded = %d", probe.method, probe.path, w.Code)
		}
		if w.Header().Get("Retry-After") == "" {
			t.Fatalf("%s %s while degraded missing Retry-After", probe.method, probe.path)
		}
	}

	// Recovery: the store heals, a probe append past the degraded
	// backoff succeeds, healthz clears.
	mem.Heal()
	time.Sleep(jobstore.DefaultDegradedBackoff + 50*time.Millisecond)
	if err := st.JobSubmitted("jprobe1", "test", "", time.Now(), nil); err != nil {
		t.Fatalf("probe append after heal: %v", err)
	}
	w, h = doJSON(t, s, "GET", "/healthz", "")
	if h["status"] != "ok" {
		t.Fatalf("healthz after recovery = %v", h)
	}
	if _, ok := h["degraded"]; ok {
		t.Fatalf("healthz after recovery still degraded: %v", h)
	}
}

// TestJobsListRestoredMarker: jobs adopted from the journal carry the
// restored marker on /v1/jobs and /v1/jobs/{id}.
func TestJobsListRestoredMarker(t *testing.T) {
	m := jobs.NewManager(jobs.Options{})
	defer m.Close()
	now := time.Now()
	if _, err := m.Adopt(jobs.AdoptedJob{
		ID: "j000001", Kind: "sweep", State: jobs.StateDone,
		Created: now, Started: now, Finished: now,
	}); err != nil {
		t.Fatal(err)
	}
	s := New(Options{Jobs: m})

	_, list := doJSON(t, s, "GET", "/v1/jobs", "")
	arr, ok := list["jobs"].([]any)
	if !ok || len(arr) != 1 {
		t.Fatalf("jobs list = %v", list)
	}
	if job := arr[0].(map[string]any); job["restored"] != true {
		t.Fatalf("listed job missing restored marker: %v", job)
	}
	_, job := doJSON(t, s, "GET", "/v1/jobs/j000001", "")
	if job["restored"] != true {
		t.Fatalf("job status missing restored marker: %v", job)
	}
}
