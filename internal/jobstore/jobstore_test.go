package jobstore

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"testing"
	"time"

	"repro/internal/counters"
	"repro/internal/engine"
	"repro/internal/faultfs"
	"repro/internal/haswell"
	"repro/internal/jobs"
	"repro/internal/recordlog"
	"repro/internal/sweep"
)

// sweepBase hand-builds a small deterministic base corpus (no simulator:
// these tests exercise durability, not hardware modelling). It is part
// of the journaled spec, so rebuilt jobs see the identical corpus.
func sweepBase() []*counters.Observation {
	gt := haswell.GroundTruthSet()
	var out []*counters.Observation
	for k := 0; k < 2; k++ {
		o := counters.NewObservation("synthetic", gt)
		rng := rand.New(rand.NewSource(int64(k + 1)))
		for s := 0; s < 6; s++ {
			row := make([]float64, gt.Len())
			for j := range row {
				row[j] = float64((k*83+j*29)%300 + rng.Intn(25))
			}
			o.Append(row)
		}
		out = append(out, haswell.WithAggregateWalkRef(o))
	}
	return out
}

func sweepSpec(eng *engine.Engine) jobs.SweepSpec {
	return jobs.SweepSpec{
		Grid: sweep.Grid{
			Events: []uint8{0x42, sweep.EventPageWalkerLoads},
			Umasks: []uint8{0x01, 0x0F, 0x1F},
			Cmasks: []uint8{0x00, 0x10},
		},
		Seed:    7,
		Base:    sweepBase(),
		Workers: 1,
		Engine:  eng,
	}
}

// fastOpts are store options tuned for tests: every checkpoint flushes
// (no coalescing window to wait out) and retries are instant.
func fastOpts(m *faultfs.Mem) Options {
	return Options{
		FS:              m,
		CheckpointEvery: -1,
		RetryAttempts:   2,
		RetryBackoff:    time.Microsecond,
	}
}

func mustOpen(t *testing.T, m *faultfs.Mem) *Store {
	t.Helper()
	s, err := Open("jobs.db", fastOpts(m))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

// cellEvents extracts the journaled/live "cell" event payloads as JSON
// lines — the byte-identity currency of the resume contract.
func cellEvents(t *testing.T, evs []jobs.Event) []string {
	t.Helper()
	var out []string
	for _, ev := range evs {
		if ev.Kind != "cell" {
			continue
		}
		b, err := json.Marshal(ev)
		if err != nil {
			t.Fatalf("marshal event: %v", err)
		}
		out = append(out, string(b))
	}
	return out
}

func jobEvents(t *testing.T, ctx context.Context, j *jobs.Job) []jobs.Event {
	t.Helper()
	var out []jobs.Event
	for ev := range j.Events(ctx, 0) {
		out = append(out, ev)
	}
	return out
}

// TestJournalRelistsTerminalJobsByteIdentically: run a sweep to
// completion under a journal, power-cycle, recover into a fresh manager,
// and require the re-listed job to replay the same ID, state, events and
// result, byte for byte.
func TestJournalRelistsTerminalJobsByteIdentically(t *testing.T) {
	ctx := context.Background()
	mem := faultfs.NewMem()
	st := mustOpen(t, mem)
	eng := engine.New()
	defer eng.Close()
	m := jobs.NewManager(jobs.Options{Journal: st})
	j, err := m.SubmitSweep(sweepSpec(eng))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if err := j.Wait(ctx); err != nil {
		t.Fatalf("sweep failed: %v", err)
	}
	wantEvents := jobEvents(t, ctx, j)
	wantResult, err := json.Marshal(j.Result())
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	st.Close()
	mem.Crash(0)

	st2 := mustOpen(t, mem)
	defer st2.Close()
	eng2 := engine.New()
	defer eng2.Close()
	m2 := jobs.NewManager(jobs.Options{Journal: st2})
	defer m2.Close()
	rep, err := Recover(m2, st2, map[string]Rebuilder{"sweep": jobs.RebuildSweep(eng2)})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if rep.Relisted != 1 || rep.Interrupted != 0 || rep.Resumed != 0 {
		t.Fatalf("report = %+v, want 1 relisted", rep)
	}
	rj, ok := m2.Get(j.ID)
	if !ok {
		t.Fatalf("job %s not re-listed", j.ID)
	}
	rst := rj.Status()
	if rst.State != jobs.StateDone || !rst.Restored {
		t.Fatalf("recovered status = %+v, want done+restored", rst)
	}
	gotEvents := jobEvents(t, ctx, rj)
	wj, _ := json.Marshal(wantEvents)
	gj, _ := json.Marshal(gotEvents)
	if !bytes.Equal(wj, gj) {
		t.Fatalf("recovered events diverge:\nwant %s\ngot  %s", wj, gj)
	}
	gotResult, err := json.Marshal(rj.Result())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantResult, gotResult) {
		t.Fatalf("recovered result diverges:\nwant %s\ngot  %s", wantResult, gotResult)
	}
	// Recovered terminal jobs stay resumable through the normal path.
	if _, err := m2.Resume(j.ID); err != nil {
		t.Fatalf("resume recovered job: %v", err)
	}
}

// TestRecoverAutoResumesInterruptedSweepBitIdentically is the crash
// drill: kill the power mid-grid, restart, and require the auto-resumed
// continuation to finish with cells and cell events byte-identical to an
// uninterrupted reference run.
func TestRecoverAutoResumesInterruptedSweepBitIdentically(t *testing.T) {
	ctx := context.Background()

	// Reference: the same spec, uninterrupted, no journal.
	refEng := engine.New()
	refM := jobs.NewManager(jobs.Options{})
	ref, err := refM.SubmitSweep(sweepSpec(refEng))
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	refCells, err := json.Marshal(ref.Result().(*jobs.SweepResult).Cells)
	if err != nil {
		t.Fatal(err)
	}
	refCellEvents := cellEvents(t, jobEvents(t, ctx, ref))
	refM.Close()
	refEng.Close()

	// Victim: same spec under a journal; power fails after the third
	// committed cell. The runner is held there until the power is out,
	// so the crash lands mid-grid however fast the scan is.
	mem := faultfs.NewMem()
	st := mustOpen(t, mem)
	eng := engine.New()
	defer eng.Close()
	release := make(chan struct{})
	m := jobs.NewManager(jobs.Options{Journal: st, AfterSweepCell: func(index int) {
		if index == 2 {
			<-release
		}
	}})
	j, err := m.SubmitSweep(sweepSpec(eng))
	if err != nil {
		t.Fatal(err)
	}
	evCtx, evCancel := context.WithCancel(ctx)
	seen := 0
	for ev := range j.Events(evCtx, 0) {
		if ev.Kind == "cell" {
			seen++
			if seen == 3 {
				// Power fails, and the "process" never writes again:
				// persistent faults keep the dying manager's shutdown
				// records (cancellation terminal, final checkpoint) from
				// reaching the journal, exactly like a kill -9.
				mem.Crash(0)
				mem.FailWrites(1<<30, errors.New("process died"))
				mem.FailSyncs(1<<30, errors.New("process died"))
				break
			}
		}
	}
	evCancel()
	close(release)
	m.Close()
	st.Close()
	mem.Heal()

	st2 := mustOpen(t, mem)
	defer st2.Close()
	eng2 := engine.New()
	defer eng2.Close()
	m2 := jobs.NewManager(jobs.Options{Journal: st2})
	defer m2.Close()
	rep, err := Recover(m2, st2, map[string]Rebuilder{"sweep": jobs.RebuildSweep(eng2)})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if rep.Interrupted != 1 || rep.Resumed != 1 {
		t.Fatalf("report = %+v, want 1 interrupted + 1 resumed", rep)
	}

	// The interrupted original is closed out and marked.
	oj, ok := m2.Get(j.ID)
	if !ok {
		t.Fatalf("interrupted job %s not re-listed", j.ID)
	}
	ost := oj.Status()
	if ost.State != jobs.StateFailed || !ost.Restored || ost.Error != interruptedError {
		t.Fatalf("interrupted status = %+v", ost)
	}

	// Find and await the continuation.
	var cont *jobs.Job
	for _, stt := range m2.List() {
		if stt.ResumedFrom == j.ID {
			c, ok := m2.Get(stt.ID)
			if !ok {
				t.Fatalf("continuation %s vanished", stt.ID)
			}
			cont = c
		}
	}
	if cont == nil {
		t.Fatalf("no continuation resumed_from %s in %+v", j.ID, m2.List())
	}
	if err := cont.Wait(ctx); err != nil {
		t.Fatalf("resumed sweep failed: %v", err)
	}
	gotCells, err := json.Marshal(cont.Result().(*jobs.SweepResult).Cells)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refCells, gotCells) {
		t.Fatalf("resumed cells diverge from uninterrupted run:\nwant %s\ngot  %s", refCells, gotCells)
	}
	// Cell-event byte identity across the crash: the journaled prefix of
	// the interrupted job plus the continuation's fresh cells must equal
	// the uninterrupted stream, except that both halves renumber Seq —
	// so compare the cells they carry.
	var prefix, suffix []string
	for _, line := range cellEvents(t, jobEvents(t, ctx, oj)) {
		prefix = append(prefix, line)
	}
	for _, line := range cellEvents(t, jobEvents(t, ctx, cont)) {
		suffix = append(suffix, line)
	}
	if len(prefix) == 0 {
		t.Fatal("no durable cell events survived the crash")
	}
	stitched := append(append([]string(nil), prefix...), suffix...)
	if len(stitched) != len(refCellEvents) {
		t.Fatalf("stitched %d cell events, reference %d", len(stitched), len(refCellEvents))
	}
	for i := range stitched {
		if !sameCell(t, stitched[i], refCellEvents[i]) {
			t.Fatalf("cell event %d diverges:\nwant %s\ngot  %s", i, refCellEvents[i], stitched[i])
		}
	}
}

// sameCell compares two cell-event JSON lines ignoring Seq (the stitched
// halves renumber their logs; the cell payload is the contract).
func sameCell(t *testing.T, a, b string) bool {
	t.Helper()
	var ea, eb jobs.Event
	if err := json.Unmarshal([]byte(a), &ea); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(b), &eb); err != nil {
		t.Fatal(err)
	}
	da, _ := json.Marshal(ea.Data)
	db, _ := json.Marshal(eb.Data)
	return ea.Kind == eb.Kind && bytes.Equal(da, db)
}

// TestTornTailRepair: a torn final frame is truncated on open; every
// fsynced record before it survives.
func TestTornTailRepair(t *testing.T) {
	mem := faultfs.NewMem()
	st := mustOpen(t, mem)
	t0 := time.Unix(1700000000, 0).UTC()
	if err := st.JobSubmitted("j000001", "test", "", t0, map[string]string{"k": "v"}); err != nil {
		t.Fatal(err)
	}
	st.JobEvent("j000001", jobs.Event{Seq: 0, Kind: "progress", Data: map[string]int{"n": 1}})
	st.JobFinished("j000001", jobs.StateDone, "", map[string]string{"ok": "yes"}, t0, t0.Add(time.Second))
	// An unsynced event, then a crash that tears it mid-frame.
	st.JobEvent("j000001", jobs.Event{Seq: 99, Kind: "late", Data: nil})
	mem.Crash(7)
	st.Close()

	st2 := mustOpen(t, mem)
	defer st2.Close()
	if !st2.Repaired() {
		t.Fatal("torn tail not reported as repaired")
	}
	snap := st2.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d jobs, want 1", len(snap))
	}
	rj := snap[0]
	if !rj.Terminal || rj.State != jobs.StateDone {
		t.Fatalf("job not terminal-done after repair: %+v", rj)
	}
	if len(rj.Events) != 1 || rj.Events[0].Kind != "progress" {
		t.Fatalf("events after repair = %+v", rj.Events)
	}
	if string(rj.Result) != `{"ok":"yes"}` {
		t.Fatalf("result after repair = %s", rj.Result)
	}
	// The repaired journal accepts appends again, durably.
	if err := st2.JobSubmitted("j000002", "test", "", t0, nil); err != nil {
		t.Fatalf("append after repair: %v", err)
	}
	mem.Crash(0)
	st3 := mustOpen(t, mem)
	defer st3.Close()
	if got := len(st3.Snapshot()); got != 2 {
		t.Fatalf("snapshot after post-repair append = %d jobs, want 2", got)
	}
}

// TestDegradationAndProbeRecovery: persistent write failures degrade the
// store (submits rejected, health reports the error and countdown);
// after the backoff a healthy probe clears it.
func TestDegradationAndProbeRecovery(t *testing.T) {
	mem := faultfs.NewMem()
	now := time.Unix(1700000000, 0)
	opts := fastOpts(mem)
	opts.DegradedBackoff = 10 * time.Second
	opts.now = func() time.Time { return now }
	opts.sleep = func(time.Duration) {}
	st, err := Open("jobs.db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	injected := errors.New("disk on fire")
	mem.FailWrites(100, injected)
	if err := st.JobSubmitted("j000001", "test", "", now, nil); !errors.Is(err, injected) {
		t.Fatalf("submit during faults: err = %v", err)
	}
	if !st.Degraded() {
		t.Fatal("store not degraded after persistent failures")
	}
	h := st.Health()
	if h.State != "degraded" || h.LastError == "" || h.RetryInMS <= 0 || h.Dropped == 0 {
		t.Fatalf("health = %+v", h)
	}
	// Before the probe time: rejected without touching the disk.
	mem.Heal()
	if err := st.JobSubmitted("j000002", "test", "", now, nil); err == nil {
		t.Fatal("submit accepted while degraded and before probe time")
	}
	// Past the probe time: the reopen probe succeeds and clears the state.
	now = now.Add(11 * time.Second)
	if err := st.JobSubmitted("j000003", "test", "", now, nil); err != nil {
		t.Fatalf("submit after probe: %v", err)
	}
	if st.Degraded() {
		t.Fatal("store still degraded after successful probe")
	}
	if h := st.Health(); h.State != "ok" || h.RetryInMS != 0 {
		t.Fatalf("health after recovery = %+v", h)
	}
	if c := st.Stats(); c.Degradations != 1 || c.DroppedRecords == 0 {
		t.Fatalf("stats after recovery = %+v", c)
	}
}

// TestCompactionDropsDeadRecords: removed jobs are dead weight that
// compaction reclaims, and the compacted journal reloads cleanly.
func TestCompactionDropsDeadRecords(t *testing.T) {
	mem := faultfs.NewMem()
	opts := fastOpts(mem)
	opts.CompactMinBytes = 1
	opts.CompactFactor = 2
	st, err := Open("jobs.db", opts)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Unix(1700000000, 0).UTC()
	big := bytes.Repeat([]byte("x"), 1000)
	for i := 0; i < 20; i++ {
		id := jobID(i)
		if err := st.JobSubmitted(id, "test", "", t0, map[string]string{"pad": string(big)}); err != nil {
			t.Fatal(err)
		}
		st.JobEvent(id, jobs.Event{Seq: 0, Kind: "progress", Data: string(big)})
		st.JobFinished(id, jobs.StateDone, "", map[string]int{"i": i}, t0, t0)
	}
	grown := st.Stats().SizeBytes
	for i := 0; i < 19; i++ {
		st.JobRemoved(jobID(i))
	}
	c := st.Stats()
	if c.Compactions == 0 {
		t.Fatalf("no compaction after removing 19/20 jobs (size %d → %d, live %d)", grown, c.SizeBytes, c.LiveBytes)
	}
	if c.SizeBytes >= grown/4 {
		t.Fatalf("compaction barely shrank the log: %d → %d", grown, c.SizeBytes)
	}
	if c.SizeBytes != c.LiveBytes {
		t.Fatalf("compacted log size %d != live %d", c.SizeBytes, c.LiveBytes)
	}
	st.Close()
	mem.Crash(0)
	st2 := mustOpen(t, mem)
	defer st2.Close()
	snap := st2.Snapshot()
	if len(snap) != 1 || snap[0].ID != jobID(19) {
		t.Fatalf("compacted journal reloads %d jobs, want just %s", len(snap), jobID(19))
	}
	if len(snap[0].Events) != 1 { // the "progress" event survived compaction
		t.Fatalf("survivor has %d events, want 1", len(snap[0].Events))
	}
}

func jobID(i int) string { return "j" + string(rune('A'+i/10)) + string(rune('0'+i%10)) + "0000" }

// TestCheckpointCoalescing: a burst of checkpoints inside the window
// journals once at the flush point — and the terminal barrier always
// lands the newest one.
func TestCheckpointCoalescing(t *testing.T) {
	mem := faultfs.NewMem()
	now := time.Unix(1700000000, 0)
	opts := fastOpts(mem)
	opts.CheckpointEvery = time.Minute
	opts.now = func() time.Time { return now }
	st, err := Open("jobs.db", opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.JobSubmitted("j000001", "test", "", now, nil); err != nil {
		t.Fatal(err)
	}
	base := st.Stats().Appends
	for i := 0; i < 100; i++ {
		st.JobCheckpoint("j000001", map[string]int{"n": i})
	}
	// First checkpoint flushed immediately (no window yet), the other 99
	// coalesced.
	if got := st.Stats().Appends - base; got != 1 {
		t.Fatalf("checkpoint burst journaled %d records, want 1", got)
	}
	st.JobFinished("j000001", jobs.StateDone, "", nil, now, now)
	st.Close()
	mem.Crash(0)
	st2 := mustOpen(t, mem)
	defer st2.Close()
	snap := st2.Snapshot()
	if len(snap) != 1 {
		t.Fatal("job lost")
	}
	if got := string(snap[0].Checkpoint); got != `{"n":99}` {
		t.Fatalf("durable checkpoint = %s, want the newest (n=99)", got)
	}
}

// TestShortWriteRepairedOnRetry: a short write mid-frame is rolled back
// to the frame boundary and the retry lands the record intact.
func TestShortWriteRepairedOnRetry(t *testing.T) {
	mem := faultfs.NewMem()
	st := mustOpen(t, mem)
	defer st.Close()
	t0 := time.Unix(1700000000, 0).UTC()
	if err := st.JobSubmitted("j000001", "test", "", t0, nil); err != nil {
		t.Fatal(err)
	}
	mem.ShortWrites(1)
	if err := st.JobSubmitted("j000002", "test", "", t0, nil); err != nil {
		t.Fatalf("submit with one short write should retry and succeed: %v", err)
	}
	if got := st.Stats().Retries; got == 0 {
		t.Fatal("short write did not count a retry")
	}
	mem.Crash(0)
	st2 := mustOpen(t, mem)
	defer st2.Close()
	if st2.Repaired() {
		t.Fatal("retry left a torn frame behind")
	}
	if got := len(st2.Snapshot()); got != 2 {
		t.Fatalf("snapshot = %d jobs, want 2", got)
	}
}

// BenchmarkJournalAppend measures the unsynced event append path — the
// per-cell/per-node hot path of a journaled job (alloc-gated in CI).
func BenchmarkJournalAppend(b *testing.B) {
	mem := faultfs.NewMem()
	st, err := Open("jobs.db", Options{FS: mem, CheckpointEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	if err := st.JobSubmitted("j000001", "bench", "", time.Unix(1700000000, 0), nil); err != nil {
		b.Fatal(err)
	}
	data := map[string]int{"cell": 0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data["cell"] = i
		st.JobEvent("j000001", jobs.Event{Seq: i, Kind: "cell", Data: data})
	}
}

// TestOpenRefusesForeignFile: a -job-db pointed at a file that is not a
// journal (here a text file) fails to open and leaves the file intact,
// instead of truncating it as a torn tail.
func TestOpenRefusesForeignFile(t *testing.T) {
	mem := faultfs.NewMem()
	text := []byte("not a journal\n")
	f, err := mem.OpenFile("jobs.db", os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(text); err != nil {
		t.Fatal(err)
	}
	if _, err := Open("jobs.db", fastOpts(mem)); !errors.Is(err, recordlog.ErrForeign) {
		t.Fatalf("Open on a text file: err = %v, want ErrForeign", err)
	}
	if got := mem.Bytes("jobs.db"); !bytes.Equal(got, text) {
		t.Fatalf("foreign file changed to %q", got)
	}
}
