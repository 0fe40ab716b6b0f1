//go:build linux

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/jobstore"
	"repro/internal/sweep"
)

// The kill -9 drill runs counterpointd as a real child process: the test
// binary re-executes itself with daemonEnv set, and TestMain then runs
// main() instead of the tests. holdEnv, when also set, names a sweep grid
// index at which the child's sweep runner stops for good, so a SIGKILL
// lands mid-grid however fast the scan is. One cell earlier the runner
// outwaits the journal's checkpoint window, so the held cell's checkpoint
// is flushed and fsynced before the runner stops.
const (
	daemonEnv = "COUNTERPOINTD_TEST_DAEMON"
	holdEnv   = "COUNTERPOINTD_TEST_HOLD_CELL"
)

func TestMain(m *testing.M) {
	if os.Getenv(daemonEnv) == "" {
		os.Exit(m.Run())
	}
	if s := os.Getenv(holdEnv); s != "" {
		hold, err := strconv.Atoi(s)
		if err != nil {
			fmt.Fprintf(os.Stderr, "counterpointd: bad %s: %v\n", holdEnv, err)
			os.Exit(2)
		}
		testAfterSweepCell = func(index int) {
			switch index {
			case hold - 1:
				time.Sleep(jobstore.DefaultCheckpointEvery + 50*time.Millisecond)
			case hold:
				select {}
			}
		}
	}
	main()
	os.Exit(0)
}

// childDaemon is one counterpointd child process on a loopback port.
type childDaemon struct {
	cmd     *exec.Cmd
	base    string
	out     syncBuffer
	drained chan struct{} // closed once the child's stdout reaches EOF
}

// startChild re-executes the test binary as counterpointd with args plus
// a loopback listener, with env added to its environment, and returns
// once it reports its address. The child is killed at cleanup if the
// test has not stopped it.
func startChild(t *testing.T, env []string, args ...string) *childDaemon {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-addr", "127.0.0.1:0", "-no-catalog", "-workers", "2"}, args...)...)
	cmd.Env = append(append(os.Environ(), daemonEnv+"=1"), env...)
	cmd.Stderr = os.Stderr
	// The child dies with the test even if the test binary is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &childDaemon{cmd: cmd, drained: make(chan struct{})}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		<-d.drained
		_ = cmd.Wait()
	})
	addr := make(chan string, 1)
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			fmt.Fprintln(&d.out, sc.Text())
			if a, ok := strings.CutPrefix(sc.Text(), "counterpointd: listening on "); ok {
				a, _, _ = strings.Cut(a, " ")
				addr <- a
			}
		}
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.drained:
		t.Fatalf("counterpointd exited before listening: %q", d.out.String())
	case <-time.After(30 * time.Second):
		t.Fatal("counterpointd did not report its address within 30s")
	}
	return d
}

// kill9 SIGKILLs the child and waits for it to die.
func (d *childDaemon) kill9(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	<-d.drained
	if err := d.cmd.Wait(); err == nil {
		t.Fatal("SIGKILLed counterpointd exited cleanly")
	}
}

// stop shuts the child down gracefully (SIGTERM) and requires a clean exit.
func (d *childDaemon) stop(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-d.drained:
	case <-time.After(30 * time.Second):
		t.Fatal("counterpointd did not shut down within 30s")
	}
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("counterpointd exit: %v (output %q)", err, d.out.String())
	}
}

// kill9Client bounds every request of the drill, event streams included.
var kill9Client = &http.Client{Timeout: 2 * time.Minute}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := kill9Client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// kill9Job is the part of GET /v1/jobs/{id} the drill reads; Cells keeps
// the result's cells exactly as served.
type kill9Job struct {
	ID          string     `json:"id"`
	State       jobs.State `json:"state"`
	ResumedFrom string     `json:"resumed_from"`
	Restored    bool       `json:"restored"`
	Result      struct {
		Cells json.RawMessage `json:"cells"`
	} `json:"result"`
}

// kill9Event is one line of GET /v1/jobs/{id}/events; Data keeps the
// payload exactly as served.
type kill9Event struct {
	Kind string          `json:"kind"`
	Data json.RawMessage `json:"data"`
}

// submitSweep posts body to /v1/sweep and returns the job ID.
func submitSweep(t *testing.T, base string, body []byte) string {
	t.Helper()
	resp, err := kill9Client.Post(base+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sub kill9Job
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted || sub.ID == "" {
		t.Fatalf("sweep submit: status %d, id %q", resp.StatusCode, sub.ID)
	}
	return sub.ID
}

// jobEventLines reads id's event stream, calling stop after each event;
// it returns once stop reports true or the stream closes (the job is
// terminal).
func jobEventLines(t *testing.T, base, id string, stop func(kill9Event) bool) []kill9Event {
	t.Helper()
	resp, err := kill9Client.Get(base + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out []kill9Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev kill9Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("event %q: %v", sc.Text(), err)
		}
		out = append(out, ev)
		if stop(ev) {
			return out
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("events of %s: %v", id, err)
	}
	return out
}

// cellData returns the payloads of the cell events among evs, in order.
func cellData(evs []kill9Event) []string {
	var out []string
	for _, ev := range evs {
		if ev.Kind == "cell" {
			out = append(out, string(ev.Data))
		}
	}
	return out
}

// TestJobJournalSurvivesKill9 is the process-level crash drill: a
// counterpointd started with -job-db is SIGKILLed half-way through a
// 4096-cell sweep and restarted on the same journal. The restarted
// daemon must re-list the interrupted job and auto-resume it, and the
// resumed job's cells must be byte-identical to an uninterrupted run's.
// So must the cell events: the interrupted job's journaled cells, then
// the continuation's, each matching the uninterrupted run at its index.
func TestJobJournalSurvivesKill9(t *testing.T) {
	// The 4096-cell grid of the server's HTTP resume smoke: aliasing
	// keeps its distinct LP content test-sized (umask low nibbles span
	// {0x0, 0x1, 0x3, 0xF}; every non-zero cmask out-gates the tiny
	// simulated corpus).
	events := []int{0x42, 0x43, 0x44, int(sweep.EventPageWalkerLoads)}
	var umasks, cmasks []int
	for hi := 0; hi < 16; hi++ {
		for _, lo := range []int{0x0, 0x1, 0x3, 0xF} {
			umasks = append(umasks, hi<<4|lo)
		}
		cmasks = append(cmasks, hi<<4|0x0F)
	}
	cmasks[0] = 0
	grid := len(events) * len(umasks) * len(cmasks)
	if grid != 4096 {
		t.Fatalf("drill grid has %d cells, want 4096", grid)
	}
	body, err := json.Marshal(map[string]any{
		"events": events, "umasks": umasks, "cmasks": cmasks,
		"seed": 1, "samples": 2, "uops_per_sample": 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	const hold = 2047 // the victim's runner stops after committing this cell

	// Reference: the same sweep, uninterrupted, with no journal.
	ref := startChild(t, nil)
	refID := submitSweep(t, ref.base, body)
	refCells := cellData(jobEventLines(t, ref.base, refID, func(kill9Event) bool { return false }))
	var refJob kill9Job
	getJSON(t, ref.base+"/v1/jobs/"+refID, &refJob)
	ref.stop(t)
	if refJob.State != jobs.StateDone || len(refCells) != grid {
		t.Fatalf("reference run: state %s, %d cell events", refJob.State, len(refCells))
	}

	// Victim: journaled, held at cell hold, SIGKILLed there.
	db := filepath.Join(t.TempDir(), "jobs.db")
	victim := startChild(t, []string{holdEnv + "=" + strconv.Itoa(hold)}, "-job-db", db)
	id := submitSweep(t, victim.base, body)
	seen := 0
	jobEventLines(t, victim.base, id, func(ev kill9Event) bool {
		if ev.Kind == "cell" {
			seen++
		}
		return seen == hold+1
	})
	if seen != hold+1 {
		t.Fatalf("victim's event stream ended after %d cells, before the hold at cell %d", seen, hold)
	}
	victim.kill9(t)

	// Restart on the same journal, without the hold.
	d := startChild(t, nil, "-job-db", db)
	defer d.stop(t)
	if boot := d.out.String(); !strings.Contains(boot, "(1 jobs re-listed, 1 interrupted, 1 resumed") {
		t.Fatalf("boot log does not report the recovery: %q", boot)
	}
	var list struct {
		Jobs []kill9Job `json:"jobs"`
	}
	getJSON(t, d.base+"/v1/jobs", &list)
	var orig, cont string
	for _, j := range list.Jobs {
		switch {
		case j.ID == id:
			orig = j.ID
			if j.State != jobs.StateFailed || !j.Restored {
				t.Fatalf("interrupted job re-listed as %+v, want failed and restored", j)
			}
		case j.ResumedFrom == id:
			cont = j.ID
		}
	}
	if orig == "" || cont == "" {
		t.Fatalf("jobs after restart %+v: want %s re-listed and a continuation resumed from it", list.Jobs, id)
	}

	contEvents := jobEventLines(t, d.base, cont, func(kill9Event) bool { return false })
	var contJob kill9Job
	getJSON(t, d.base+"/v1/jobs/"+cont, &contJob)
	if contJob.State != jobs.StateDone {
		t.Fatalf("resumed sweep finished %s", contJob.State)
	}
	if !bytes.Equal(contJob.Result.Cells, refJob.Result.Cells) {
		t.Fatal("resumed sweep's cells are not byte-identical to the uninterrupted run's")
	}

	// The continuation restores the checkpoint of the held cell and
	// commits the rest; the interrupted job keeps the journaled cell
	// events up to the held cell. Stitched, they are the reference's.
	restored := -1
	for _, ev := range contEvents {
		if ev.Kind == "restored" {
			var data struct {
				Count int `json:"count"`
			}
			if err := json.Unmarshal(ev.Data, &data); err != nil {
				t.Fatal(err)
			}
			restored = data.Count
		}
	}
	prefix := cellData(jobEventLines(t, d.base, orig, func(kill9Event) bool { return false }))
	suffix := cellData(contEvents)
	if restored != hold+1 || len(prefix) != hold+1 || len(suffix) != grid-hold-1 {
		t.Fatalf("killed after cell %d: %d cell events journaled, %d cells restored, %d committed on resume",
			hold, len(prefix), restored, len(suffix))
	}
	for i, c := range append(prefix, suffix...) {
		if c != refCells[i] {
			t.Fatalf("cell event %d diverges:\nwant %s\ngot  %s", i, refCells[i], c)
		}
	}
}
