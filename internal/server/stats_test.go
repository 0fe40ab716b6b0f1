package server

import (
	"net/http"
	"testing"

	"repro/internal/counters"
)

type statsResp struct {
	Evaluations      uint64 `json:"evaluations"`
	FilterFeasible   uint64 `json:"filter_feasible"`
	FilterInfeasible uint64 `json:"filter_infeasible"`
	CertFailures     uint64 `json:"certification_failures"`
	ExactFallbacks   uint64 `json:"exact_fallbacks"`
	SizeGated        uint64 `json:"exact_size_gated"`
	FilterHits       uint64 `json:"filter_hits"`
	Models           int    `json:"models"`
	Workers          int    `json:"workers"`

	KernelFastSolves     uint64 `json:"kernel_fast_solves"`
	KernelPromotedSolves uint64 `json:"kernel_promoted_solves"`
	KernelPromotions     uint64 `json:"kernel_promotions"`
	CertifyKernel        uint64 `json:"certifications_int64"`
	CertifyBigRat        uint64 `json:"certifications_bigrat"`
}

func getStats(t *testing.T, base string) statsResp {
	t.Helper()
	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /stats: status %d", resp.StatusCode)
	}
	var s statsResp
	decodeBody(t, resp, &s)
	return s
}

// TestStatsEndpoint drives verdicts through the service and checks the
// solver telemetry moves with them: evaluations accumulate, filter hits and
// exact fallbacks partition them, and ?exact=true routes around the filter.
func TestStatsEndpoint(t *testing.T) {
	ts := newTestServer(t)

	s0 := getStats(t, ts.URL)
	if s0.Evaluations != 0 || s0.Models != 1 || s0.Workers != 2 {
		t.Fatalf("fresh stats: %+v", s0)
	}

	corpus := corpusJSON{Observations: []*counters.Observation{
		obsAround("ok", 500, 100, 50, 1),
		obsAround("bad", 100, 400, 50, 2),
	}}
	resp := postJSON(t, ts.URL+"/v1/models/pde/evaluate", corpus)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	s1 := getStats(t, ts.URL)
	if s1.Evaluations != 2 {
		t.Fatalf("evaluations %d, want 2", s1.Evaluations)
	}
	if s1.FilterHits != s1.FilterFeasible+s1.FilterInfeasible {
		t.Fatalf("filter_hits %d does not match %d+%d", s1.FilterHits, s1.FilterFeasible, s1.FilterInfeasible)
	}
	if s1.FilterHits+s1.ExactFallbacks != s1.Evaluations {
		t.Fatalf("counters don't partition: %+v", s1)
	}
	// The pde model's region LPs are below the filter's size gate, so
	// every exact fallback is size-gated.
	if s1.SizeGated != s1.ExactFallbacks {
		t.Fatalf("exact_size_gated %d, want every one of %d exact fallbacks", s1.SizeGated, s1.ExactFallbacks)
	}
	// The int64 kernel accounts for every exact-tier solve, and the
	// promotion (overflow fallback) rate is reported, never hidden.
	if s1.KernelFastSolves+s1.KernelPromotedSolves != s1.ExactFallbacks {
		t.Fatalf("kernel counters don't cover exact solves: %+v", s1)
	}
	// Certification counters partition the certificate checks (one per
	// filter hit or certification failure).
	if s1.CertifyKernel+s1.CertifyBigRat != s1.FilterHits+s1.CertFailures {
		t.Fatalf("certification counters don't partition: %+v", s1)
	}

	// Forcing exact mode per request must add only exact fallbacks.
	resp = postJSON(t, ts.URL+"/v1/models/pde/evaluate?exact=true", corpus)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate?exact=true: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	s2 := getStats(t, ts.URL)
	if s2.Evaluations != 4 {
		t.Fatalf("evaluations %d, want 4", s2.Evaluations)
	}
	if s2.FilterHits != s1.FilterHits {
		t.Fatalf("exact-mode request changed filter hits: %d -> %d", s1.FilterHits, s2.FilterHits)
	}
	if s2.ExactFallbacks != s1.ExactFallbacks+2 {
		t.Fatalf("exact fallbacks %d, want %d", s2.ExactFallbacks, s1.ExactFallbacks+2)
	}
	// Exact mode never consults the filter, so nothing is size-gated.
	if s2.SizeGated != s1.SizeGated {
		t.Fatalf("exact-mode request changed exact_size_gated: %d -> %d", s1.SizeGated, s2.SizeGated)
	}

	// Malformed exact override is a client error.
	resp = postJSON(t, ts.URL+"/v1/models/pde/evaluate?exact=maybe", corpus)
	wantError(t, resp, http.StatusBadRequest, "exact")
}
