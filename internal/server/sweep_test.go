package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"testing"

	"repro/internal/haswell"
	"repro/internal/jobs"
	"repro/internal/sweep"
)

// sweepResultJSON mirrors jobs.SweepResult as it travels over the wire.
type sweepResultJSON struct {
	GridSize         int `json:"grid_size"`
	BaseObservations int `json:"base_observations"`
	UniqueBehaviours int `json:"unique_behaviours"`
	ClassesPlanned   int `json:"classes_planned"`
	ClassesEvaluated int `json:"classes_evaluated"`
	CellsAliased     int `json:"cells_aliased"`
	Consistent       int `json:"consistent"`
	Refuted          int `json:"refuted"`
	Verdicts         int `json:"verdicts"`
	Cells            []struct {
		Index      int    `json:"index"`
		Code       string `json:"code"`
		Event      uint8  `json:"event"`
		Umask      uint8  `json:"umask"`
		Cmask      uint8  `json:"cmask"`
		Sig        string `json:"sig"`
		Class      int    `json:"class"`
		Feasible   int    `json:"feasible"`
		Infeasible int    `json:"infeasible"`
		Consistent bool   `json:"consistent"`
	} `json:"cells"`
}

func sweepResultOf(t *testing.T, st jobs.Status) sweepResultJSON {
	t.Helper()
	raw, err := json.Marshal(st.Result)
	if err != nil {
		t.Fatal(err)
	}
	var res sweepResultJSON
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	return res
}

// cellGate holds every sweep runner at one committed cell until opened:
// the runner blocks in the manager's AfterSweepCell hook right after that
// cell's event is emitted, so a DELETE sent while it is held cancels the
// scan mid-grid by construction, however fast the solver is. Once open,
// later scans pass the cell without stopping.
type cellGate struct {
	index   int
	once    sync.Once
	release chan struct{}
}

func newCellGate(index int) *cellGate {
	return &cellGate{index: index, release: make(chan struct{})}
}

func (g *cellGate) hook(index int) {
	if index == g.index {
		<-g.release
	}
}

func (g *cellGate) open() { g.once.Do(func() { close(g.release) }) }

// sweepBody keeps the simulated base corpus test-sized; the grid (the
// default, 384 cells) is what carries the scale.
func sweepBody() map[string]any {
	return map[string]any{"seed": 1, "samples": 8, "uops_per_sample": 1500}
}

// TestSweepEndToEnd is the acceptance-criteria test: a default-grid sweep
// (>=10x the haswell-mmu catalogue) submitted through POST /v1/sweep is
// cancelled mid-grid from its event stream, resumed through the generic
// resume endpoint, and its finished cell list is bit-identical to an
// uninterrupted run of the same spec — while GET /stats shows the LP and
// verdict cache hits the grid's aliasing must produce.
func TestSweepEndToEnd(t *testing.T) {
	gate := newCellGate(4)
	ts, _ := newJobsServer(t, jobs.Options{AfterSweepCell: gate.hook})
	// Registered after the manager's Close, so it runs first: a failing
	// test never leaves a runner held while the manager waits for it.
	t.Cleanup(gate.open)

	resp := postJSON(t, ts.URL+"/v1/sweep", sweepBody())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	var sub struct {
		jobs.Status
		GridSize int `json:"grid_size"`
	}
	decodeBody(t, resp, &sub)
	wantGrid := sweep.DefaultGrid().Size()
	if sub.ID == "" || sub.Kind != "sweep" || sub.GridSize != wantGrid {
		t.Fatalf("submission: %+v", sub)
	}
	if cat := len(haswell.Catalog()); sub.GridSize < 10*cat {
		t.Fatalf("grid %d cells is not >=10x the %d-model catalogue", sub.GridSize, cat)
	}

	// Follow the event stream and cancel after the fifth committed cell,
	// while the gate holds the runner there — mid-grid by construction.
	sresp, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	cells := 0
	sc := bufio.NewScanner(sresp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev jobs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("event line %q: %v", sc.Text(), err)
		}
		if ev.Kind == "cell" {
			cells++
			if cells == 5 {
				dreq, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+sub.ID, nil)
				dresp, err := http.DefaultClient.Do(dreq)
				if err != nil {
					t.Fatal(err)
				}
				dresp.Body.Close()
				gate.open()
			}
		}
	}
	sresp.Body.Close()
	st := awaitJob(t, ts.URL, sub.ID)
	if st.State != jobs.StateCancelled {
		t.Fatalf("after mid-grid DELETE: %s (%s)", st.State, st.Error)
	}
	if cells >= wantGrid {
		t.Fatalf("cancellation landed after the grid finished (%d cells)", cells)
	}

	// Resume through the kind-dispatching endpoint.
	rresp, err := http.Post(ts.URL+"/v1/jobs/"+sub.ID+"/resume", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	if rresp.StatusCode != http.StatusAccepted {
		t.Fatalf("resume status %d", rresp.StatusCode)
	}
	var rsub jobs.Status
	decodeBody(t, rresp, &rsub)
	if rsub.ResumedFrom != sub.ID {
		t.Fatalf("resumed from %q, want %q", rsub.ResumedFrom, sub.ID)
	}
	rst := awaitJob(t, ts.URL, rsub.ID)
	if rst.State != jobs.StateDone {
		t.Fatalf("resumed job: %s (%s)", rst.State, rst.Error)
	}
	resumed := sweepResultOf(t, rst)

	// The resumed job announced its restored prefix.
	eresp, err := http.Get(ts.URL + "/v1/jobs/" + rsub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	restored := false
	esc := bufio.NewScanner(eresp.Body)
	esc.Buffer(make([]byte, 1<<20), 1<<20)
	for esc.Scan() {
		var ev jobs.Event
		if err := json.Unmarshal(esc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Kind == "restored" {
			restored = true
		}
	}
	eresp.Body.Close()
	if !restored {
		t.Fatal("resumed job emitted no restored event")
	}

	// An uninterrupted run of the same spec must agree cell for cell.
	var refSub jobs.Status
	decodeBody(t, postJSON(t, ts.URL+"/v1/sweep", sweepBody()), &refSub)
	refSt := awaitJob(t, ts.URL, refSub.ID)
	if refSt.State != jobs.StateDone {
		t.Fatalf("reference job: %s (%s)", refSt.State, refSt.Error)
	}
	ref := sweepResultOf(t, refSt)
	if !reflect.DeepEqual(resumed.Cells, ref.Cells) {
		t.Fatalf("resumed cells are not bit-identical to the uninterrupted run")
	}
	if resumed.Consistent != ref.Consistent || resumed.Refuted != ref.Refuted {
		t.Fatalf("summaries diverge: %+v vs %+v", resumed, ref)
	}

	// The scan discriminates: most encodings are refuted, the
	// architectural page_walker_loads encoding survives.
	if ref.GridSize != wantGrid || len(ref.Cells) != wantGrid || ref.Verdicts != wantGrid*ref.BaseObservations {
		t.Fatalf("result accounting: %+v", ref)
	}
	if ref.Refuted == 0 || ref.Consistent == 0 {
		t.Fatalf("degenerate verdict split: %+v", ref)
	}
	if ref.UniqueBehaviours >= wantGrid {
		t.Fatalf("no aliasing across the grid: %d behaviours", ref.UniqueBehaviours)
	}
	arch := fmt.Sprintf("%#x", uint32(0x0F)<<8|uint32(sweep.EventPageWalkerLoads))
	found := false
	for _, c := range ref.Cells {
		if c.Code == arch {
			found = true
			if !c.Consistent {
				t.Fatalf("architectural encoding refuted: %+v", c)
			}
		}
	}
	if !found {
		t.Fatalf("architectural cell %s missing from results", arch)
	}

	// The acceptance bar: one engine evaluation per behaviour class. The
	// 384-cell default grid must complete in at most 130 class
	// evaluations (~118 distinct behaviours), a ≥3× reduction.
	if ref.ClassesPlanned != ref.UniqueBehaviours || ref.ClassesPlanned+ref.CellsAliased != wantGrid {
		t.Fatalf("plan accounting: %+v", ref)
	}
	if ref.ClassesEvaluated > 130 {
		t.Fatalf("%d engine evaluations for the %d-cell default grid, want <= 130", ref.ClassesEvaluated, wantGrid)
	}
	if ref.ClassesEvaluated*3 > wantGrid {
		t.Fatalf("dedup below 3x: %d evaluations for %d cells", ref.ClassesEvaluated, wantGrid)
	}

	// Dedup observable, not assumed: GET /stats reports the planner's
	// evaluations-avoided ratio, and the cross-run re-evaluations land in
	// the shared engine's content-addressed verdict cache (the uncancelled
	// reference run re-presents LP content the first two runs solved).
	var stats struct {
		Caches struct {
			VerdictHits uint64 `json:"verdict_hits"`
		} `json:"caches"`
		Sweep jobs.SweepCounts `json:"sweep"`
	}
	gresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, gresp, &stats)
	if stats.Sweep.Jobs != 3 || stats.Sweep.CellsPlanned == 0 || stats.Sweep.ClassesPlanned == 0 {
		t.Fatalf("sweep telemetry: %+v", stats.Sweep)
	}
	if stats.Sweep.EvaluationsAvoided <= 0.5 {
		t.Fatalf("evaluations-avoided ratio %g, want > 0.5 across the aliased grid", stats.Sweep.EvaluationsAvoided)
	}
	if stats.Caches.VerdictHits == 0 {
		t.Fatalf("no cross-run verdict-cache hits: %+v", stats)
	}
}

func TestSweepSubmitValidation(t *testing.T) {
	ts, jm := newJobsServer(t, jobs.Options{})
	cases := []struct {
		name   string
		body   map[string]any
		query  string
		status int
		substr string
	}{
		{"partial axes", map[string]any{"events": []int{1}}, "", http.StatusBadRequest, "all three axes"},
		{"axis range", map[string]any{"events": []int{1}, "umasks": []int{300}, "cmasks": []int{0}}, "", http.StatusBadRequest, "out of range"},
		{"negative axis", map[string]any{"events": []int{-1}, "umasks": []int{1}, "cmasks": []int{0}}, "", http.StatusBadRequest, "out of range"},
		{"negative samples", map[string]any{"samples": -1}, "", http.StatusBadRequest, "non-negative"},
		{"negative workers", map[string]any{"workers": -1}, "", http.StatusBadRequest, "non-negative"},
		{"samples over bound", map[string]any{"samples": 1_000_000_000}, "", http.StatusBadRequest, "over the bound"},
		{"uops over bound", map[string]any{"uops_per_sample": 1 << 31}, "", http.StatusBadRequest, "over the bound"},
		{"product over bound", map[string]any{"samples": jobs.MaxSweepSamples, "uops_per_sample": jobs.MaxSweepUops/jobs.MaxSweepSamples + 1}, "", http.StatusBadRequest, "over the bound"},
		{"bad confidence", map[string]any{}, "?confidence=2", http.StatusBadRequest, "confidence"},
		{"unknown preset", map[string]any{"grid": "huge"}, "", http.StatusBadRequest, "grid preset"},
		{"preset with axes", map[string]any{"grid": "large", "events": []int{1}, "umasks": []int{1}, "cmasks": []int{0}}, "", http.StatusBadRequest, "mutually exclusive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postJSON(t, ts.URL+"/v1/sweep"+tc.query, tc.body)
			wantError(t, resp, tc.status, tc.substr)
		})
	}
	if n := jm.Len(); n != 0 {
		t.Fatalf("%d jobs queued by rejected submissions", n)
	}
}

// TestSweepLargeGridHTTPResume is the HTTP half of the 4096-cell
// acceptance smoke: a 4096-cell custom grid — aliasing tuned so its
// distinct LP content stays test-sized (umask low nibbles span {0x0,
// 0x1, 0x3, 0xF}; every non-zero cmask's threshold out-gates the tiny
// simulated corpus) — is cancelled mid-scan over the wire and resumed
// through POST /v1/jobs/{id}/resume, finishing bit-identical to an
// uninterrupted run.
func TestSweepLargeGridHTTPResume(t *testing.T) {
	gate := newCellGate(999)
	ts, _ := newJobsServer(t, jobs.Options{AfterSweepCell: gate.hook})
	// Registered after the manager's Close, so it runs first: a failing
	// test never leaves a runner held while the manager waits for it.
	t.Cleanup(gate.open)

	events := []int{0x42, 0x43, 0x44, int(sweep.EventPageWalkerLoads)}
	var umasks, cmasks []int
	for hi := 0; hi < 16; hi++ {
		for _, lo := range []int{0x0, 0x1, 0x3, 0xF} {
			umasks = append(umasks, hi<<4|lo)
		}
		cmasks = append(cmasks, hi<<4|0x0F)
	}
	cmasks[0] = 0 // one ungated cmask; the other 15 threshold everything to zero
	body := map[string]any{
		"events": events, "umasks": umasks, "cmasks": cmasks,
		"seed": 1, "samples": 2, "uops_per_sample": 300,
	}
	wantGrid := len(events) * len(umasks) * len(cmasks)
	if wantGrid < 4096 {
		t.Fatalf("smoke grid has %d cells, need >= 4096", wantGrid)
	}

	var sub struct {
		jobs.Status
		GridSize int `json:"grid_size"`
	}
	resp := postJSON(t, ts.URL+"/v1/sweep", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	decodeBody(t, resp, &sub)
	if sub.GridSize != wantGrid {
		t.Fatalf("grid size %d, want %d", sub.GridSize, wantGrid)
	}

	// Cancel from the event stream at the 1000th cell, while the gate
	// holds the runner there.
	sresp, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	cells := 0
	sc := bufio.NewScanner(sresp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev jobs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Kind == "cell" {
			cells++
			if cells == 1000 {
				dreq, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+sub.ID, nil)
				dresp, err := http.DefaultClient.Do(dreq)
				if err != nil {
					t.Fatal(err)
				}
				dresp.Body.Close()
				gate.open()
			}
		}
	}
	sresp.Body.Close()
	if st := awaitJob(t, ts.URL, sub.ID); st.State != jobs.StateCancelled {
		t.Fatalf("after mid-grid DELETE: %s (%s)", st.State, st.Error)
	}
	if cells >= wantGrid {
		t.Fatalf("cancellation landed after the grid finished (%d cells)", cells)
	}

	rresp, err := http.Post(ts.URL+"/v1/jobs/"+sub.ID+"/resume", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	if rresp.StatusCode != http.StatusAccepted {
		t.Fatalf("resume status %d", rresp.StatusCode)
	}
	var rsub jobs.Status
	decodeBody(t, rresp, &rsub)
	rst := awaitJob(t, ts.URL, rsub.ID)
	if rst.State != jobs.StateDone {
		t.Fatalf("resumed job: %s (%s)", rst.State, rst.Error)
	}
	resumed := sweepResultOf(t, rst)

	var refSub jobs.Status
	decodeBody(t, postJSON(t, ts.URL+"/v1/sweep", body), &refSub)
	refSt := awaitJob(t, ts.URL, refSub.ID)
	if refSt.State != jobs.StateDone {
		t.Fatalf("reference job: %s (%s)", refSt.State, refSt.Error)
	}
	ref := sweepResultOf(t, refSt)
	if !reflect.DeepEqual(resumed.Cells, ref.Cells) {
		t.Fatal("resumed 4096-cell scan is not bit-identical to the uninterrupted run")
	}
	if len(ref.Cells) != wantGrid || ref.ClassesPlanned >= wantGrid/4 {
		t.Fatalf("plan accounting: grid %d, classes %d", len(ref.Cells), ref.ClassesPlanned)
	}
}

func TestSweepGridCap(t *testing.T) {
	jm := jobs.NewManager(jobs.Options{})
	t.Cleanup(jm.Close)
	ts := newTestServer(t, func(o *Options) {
		o.Jobs = jm
		o.MaxSweepCells = 10
	})
	resp := postJSON(t, ts.URL+"/v1/sweep", map[string]any{})
	wantError(t, resp, http.StatusBadRequest, "cap is 10")
	// The large preset expands before the cap check like any grid.
	resp = postJSON(t, ts.URL+"/v1/sweep", map[string]any{"grid": "large"})
	wantError(t, resp, http.StatusBadRequest, "cap is 10")
	if size := sweep.LargeGrid().Size(); size < 4096 || size > DefaultMaxSweepCells {
		t.Fatalf("large preset is %d cells, want within [4096, %d]", size, DefaultMaxSweepCells)
	}
	// An in-cap custom grid is accepted.
	ok := postJSON(t, ts.URL+"/v1/sweep", map[string]any{
		"events": []int{0xBC}, "umasks": []int{0x0F}, "cmasks": []int{0},
		"samples": 2, "uops_per_sample": 200,
	})
	if ok.StatusCode != http.StatusAccepted {
		t.Fatalf("custom grid status %d", ok.StatusCode)
	}
	var sub jobs.Status
	decodeBody(t, ok, &sub)
	st := awaitJob(t, ts.URL, sub.ID)
	if st.State != jobs.StateDone {
		t.Fatalf("tiny sweep: %s (%s)", st.State, st.Error)
	}
}
