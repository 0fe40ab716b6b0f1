package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/sweep"
)

// sweepArtifacts captures everything a sweep run externalises: the result
// cells, the full event log, and the checkpoint bytes. The differential
// suite requires all three to be bit-identical between the batched and
// the sequential pipeline.
type sweepArtifacts struct {
	res        *SweepResult
	events     []byte
	checkpoint []byte
}

func runSweep(t *testing.T, spec SweepSpec) sweepArtifacts {
	t.Helper()
	m := NewManager(Options{})
	defer m.Close()
	j, err := m.SubmitSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	var events []Event
	for ev := range j.Events(context.Background(), 0) {
		events = append(events, ev)
	}
	evBytes, err := json.Marshal(events)
	if err != nil {
		t.Fatal(err)
	}
	cpBytes, err := json.Marshal(j.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	return sweepArtifacts{res: j.Result().(*SweepResult), events: evBytes, checkpoint: cpBytes}
}

// TestSweepBatchedSerialBitIdentity is the differential suite for the
// batched pipeline: across a mixed grid, an aliased-heavy grid and the
// one-class degenerate grid, the parallel class fan-out (Workers: 4) must
// reproduce the sequential reference scan (Workers: 1) bit for bit —
// result cells, event log (order and payloads), and checkpoint bytes.
// The 1-core recording box cannot show a wall-clock win; this equality is
// what stands in for it.
func TestSweepBatchedSerialBitIdentity(t *testing.T) {
	grids := []struct {
		name string
		grid sweep.Grid
	}{
		{"mixed", sweepTestGrid()},
		// Every umask aliases low nibble 0x1, so the 12 cells collapse to
		// one class per (event, cmask) pair.
		{"aliased-heavy", sweep.Grid{
			Events: []uint8{0x42, sweep.EventPageWalkerLoads},
			Umasks: []uint8{0x01, 0x11, 0x21, 0x41, 0x81, 0xF1},
			Cmasks: []uint8{0x00},
		}},
		// Umask 0x00 selects nothing: the whole grid is the single "zero"
		// class and the batched path degenerates to one evaluation.
		{"one-class", sweep.Grid{
			Events: []uint8{0x42, 0x43, 0x44},
			Umasks: []uint8{0x00},
			Cmasks: []uint8{0x00, 0x01},
		}},
	}
	for _, tc := range grids {
		t.Run(tc.name, func(t *testing.T) {
			// Separate engines on purpose: shared caches cannot paper over a
			// divergence, and solver-side state never leaks between modes.
			serialEng := engine.New()
			defer serialEng.Close()
			serialSpec := testSweepSpec(serialEng)
			serialSpec.Grid = tc.grid
			serialSpec.Workers = 1
			serial := runSweep(t, serialSpec)

			batchedEng := engine.New()
			defer batchedEng.Close()
			batchedSpec := testSweepSpec(batchedEng)
			batchedSpec.Grid = tc.grid
			batchedSpec.Workers = 4
			batched := runSweep(t, batchedSpec)

			if !reflect.DeepEqual(batched.res.Cells, serial.res.Cells) {
				t.Fatalf("cells diverge:\nbatched %+v\nserial  %+v", batched.res.Cells, serial.res.Cells)
			}
			if !reflect.DeepEqual(batched.res, serial.res) {
				t.Fatalf("results diverge:\nbatched %+v\nserial  %+v", batched.res, serial.res)
			}
			if string(batched.events) != string(serial.events) {
				t.Fatalf("event logs diverge:\nbatched %s\nserial  %s", batched.events, serial.events)
			}
			if string(batched.checkpoint) != string(serial.checkpoint) {
				t.Fatalf("checkpoints diverge:\nbatched %s\nserial  %s", batched.checkpoint, serial.checkpoint)
			}
			if tc.name == "one-class" && batched.res.ClassesEvaluated != 1 {
				t.Fatalf("degenerate grid took %d evaluations", batched.res.ClassesEvaluated)
			}
		})
	}
}

// TestSweepBatchedCancelResume cancels a batched scan mid-batch — while
// class evaluations beyond the committed prefix are in flight — and
// checks the resumed run still reproduces an uninterrupted sequential
// scan bit for bit.
func TestSweepBatchedCancelResume(t *testing.T) {
	eng := engine.New()
	defer eng.Close()
	var gate cellHook
	m := NewManager(Options{AfterSweepCell: gate.hook})
	defer m.Close()

	refSpec := testSweepSpec(eng)
	refSpec.Workers = 1
	ref, err := m.SubmitSweep(refSpec)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := ref.Result().(*SweepResult)

	blocked := make(chan struct{})
	release := make(chan struct{})
	spec := testSweepSpec(eng)
	spec.Workers = 4
	gate.arm(2, func() {
		close(blocked)
		<-release
	})
	j, err := m.SubmitSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-blocked
	if err := m.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := j.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("wait: %v", err)
	}
	cp, ok := j.Checkpoint().([]SweepCell)
	if !ok || len(cp) == 0 || len(cp) >= spec.Grid.Size() {
		t.Fatalf("checkpoint: %d cells (ok=%v)", len(cp), ok)
	}

	r, err := m.ResumeSweep(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	got := r.Result().(*SweepResult)
	if !reflect.DeepEqual(got.Cells, want.Cells) {
		t.Fatalf("resumed batched cells differ from sequential reference:\n got %+v\nwant %+v", got.Cells, want.Cells)
	}
	// Classes fully covered by the restored prefix were not re-evaluated.
	if got.ClassesEvaluated >= got.ClassesPlanned {
		t.Fatalf("resume re-evaluated every class: %d of %d", got.ClassesEvaluated, got.ClassesPlanned)
	}
}

// largeSmokeGrid is the ≥4096-cell resume smoke grid: 4 events × 64
// umasks × 16 cmasks = 4096 cells. Aliasing is deliberately extreme —
// umask low nibbles only span {0x0, 0x1, 0x3, 0xF} and every cmask above
// 0x00 gates the hand-built corpus (whose totals stay below 1<<12) down
// to the all-zero behaviour — so the scan's distinct LP content stays
// test-sized while the planner still handles thousands of cells and
// hundreds of classes.
func largeSmokeGrid() sweep.Grid {
	g := sweep.Grid{
		Events: []uint8{0x42, 0x43, 0x44, sweep.EventPageWalkerLoads},
		Cmasks: []uint8{
			0x00, 0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x70,
			0x80, 0x90, 0xA0, 0xB0, 0xC0, 0xD0, 0xE0, 0xF0,
		},
	}
	for hi := 0; hi < 16; hi++ {
		for _, lo := range []uint8{0x0, 0x1, 0x3, 0xF} {
			g.Umasks = append(g.Umasks, uint8(hi<<4)|lo)
		}
	}
	return g
}

// TestSweepLargeGridResumeEquivalence is the jobs-layer half of the
// 4096-cell acceptance smoke: a 4096-cell scan is cancelled mid-grid and
// its resumption must be bit-identical to an uninterrupted run.
func TestSweepLargeGridResumeEquivalence(t *testing.T) {
	grid := largeSmokeGrid()
	if grid.Size() < 4096 {
		t.Fatalf("smoke grid has %d cells, need >= 4096", grid.Size())
	}
	eng := engine.New()
	defer eng.Close()
	var gate cellHook
	m := NewManager(Options{AfterSweepCell: gate.hook})
	defer m.Close()

	spec := testSweepSpec(eng)
	spec.Grid = grid
	ref, err := m.SubmitSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := ref.Result().(*SweepResult)
	if want.GridSize != grid.Size() || len(want.Cells) != grid.Size() {
		t.Fatalf("reference accounting: %+v", want)
	}
	// The planner is what makes this grid tractable at all: thousands of
	// cells, hundreds of classes.
	if want.ClassesPlanned >= grid.Size()/4 {
		t.Fatalf("planner dedup too weak for the smoke: %d classes for %d cells", want.ClassesPlanned, grid.Size())
	}

	// Cancel deep inside the grid, past the first classes' commit wave.
	blocked := make(chan struct{})
	release := make(chan struct{})
	spec2 := testSweepSpec(eng)
	spec2.Grid = grid
	gate.arm(1000, func() {
		close(blocked)
		<-release
	})
	j, err := m.SubmitSweep(spec2)
	if err != nil {
		t.Fatal(err)
	}
	<-blocked
	if err := m.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := j.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("wait: %v", err)
	}
	cp, _ := j.Checkpoint().([]SweepCell)
	if len(cp) < 1000 || len(cp) >= grid.Size() {
		t.Fatalf("checkpoint size %d", len(cp))
	}

	r, err := m.ResumeSweep(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	got := r.Result().(*SweepResult)
	if !reflect.DeepEqual(got.Cells, want.Cells) {
		t.Fatal("resumed 4096-cell scan is not bit-identical to the uninterrupted run")
	}
	if got.Consistent != want.Consistent || got.Refuted != want.Refuted {
		t.Fatalf("summaries diverge: %+v vs %+v", got, want)
	}
}
