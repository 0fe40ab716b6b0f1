package server

import (
	"bufio"
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/counters"
)

// FuzzStreamNDJSON fuzzes the ingest decoder with arbitrary byte
// streams, mirroring the FuzzReadCSV contract in internal/counters:
// malformed input — torn lines, NaN/Inf sample values, unknown
// counters, empty sample sets, oversized lines — must surface as a
// per-line error, never a panic and never a silently skipped sample.
// The accounting invariant is total: every non-blank line is either
// delivered (and then satisfies every invariant the stream worker
// relies on), reported to the error callback, or the one aborted line
// the scan returns, and the whole scan is deterministic.
func FuzzStreamNDJSON(f *testing.F) {
	m, err := core.ModelFromDSL("pde", pdeModelSrc, pdeSet())
	if err != nil {
		f.Fatal(err)
	}
	const maxLine = 1 << 10

	valid := `{"label":"ok","events":["load.causes_walk","load.pde$_miss"],"samples":[[10,2],[11,3]]}`
	f.Add([]byte(valid))
	f.Add([]byte(valid + "\n" + valid + "\n"))
	f.Add([]byte(`{"label":"torn","events":["load.causes_walk"`))                                       // torn JSON
	f.Add([]byte(`{"label":"nan","events":["load.causes_walk","load.pde$_miss"],"samples":[[NaN,1]]}`)) // NaN literal
	f.Add([]byte(`{"label":"inf","events":["load.causes_walk","load.pde$_miss"],"samples":[[1,Inf]]}`))
	f.Add([]byte(`{"label":"alien","events":["cpu.cycles"],"samples":[[1],[2]]}`))     // unknown counters
	f.Add([]byte(`{"label":"missing","events":["load.causes_walk"],"samples":[[1]]}`)) // partial coverage
	f.Add([]byte(`{"label":"empty","events":["load.causes_walk","load.pde$_miss"],"samples":[]}`))
	f.Add([]byte(`{"label":"dup","events":["load.causes_walk","load.causes_walk"],"samples":[[1,1]]}`))
	f.Add([]byte(`{"label":"ragged","events":["load.causes_walk","load.pde$_miss"],"samples":[[1],[1,2]]}`))
	f.Add([]byte("\n\n  \n")) // blank lines only
	f.Add([]byte(`{"label":"big","events":["load.causes_walk","load.pde$_miss"],"samples":[[` +
		strings.Repeat("1,", maxLine) + `1]]}`)) // oversized line
	f.Add([]byte("\x00\xff\xfe junk"))

	f.Fuzz(func(t *testing.T, data []byte) {
		scan := func() (received, delivered, errored int, scanErr error) {
			var aborted int
			received, aborted, scanErr = scanNDJSON(bytes.NewReader(data), maxLine, m,
				func(line int, o *counters.Observation) bool {
					delivered++
					if line <= 0 {
						t.Fatalf("delivered line number %d", line)
					}
					// The worker's invariants: a delivered observation is
					// non-nil, has samples, and covers the model counters.
					if o == nil || o.Len() == 0 {
						t.Fatalf("delivered invalid observation %+v", o)
					}
					if missing := missingCounters(m, o); len(missing) > 0 {
						t.Fatalf("delivered observation missing counters %v", missing)
					}
					return true
				},
				func(line int, err error) {
					errored++
					if line <= 0 || err == nil {
						t.Fatalf("error callback line %d err %v", line, err)
					}
				})
			if (scanErr != nil) != (aborted > 0) {
				t.Fatalf("scan error %v with aborted line %d", scanErr, aborted)
			}
			if scanErr != nil {
				errored++ // the caller reports the aborted line
			}
			return
		}
		received, delivered, errored, scanErr := scan()
		if scanErr != nil && scanErr != bufio.ErrTooLong {
			t.Fatalf("scan error %v (only ErrTooLong is possible from a byte reader)", scanErr)
		}
		// Total accounting: nothing is silently skipped.
		if received != delivered+errored {
			t.Fatalf("%d non-blank lines but %d delivered + %d errored", received, delivered, errored)
		}
		// Determinism: a second scan of the same bytes agrees exactly.
		r2, d2, e2, s2 := scan()
		if r2 != received || d2 != delivered || e2 != errored || s2 != scanErr {
			t.Fatalf("scan not deterministic: (%d,%d,%d,%v) then (%d,%d,%d,%v)",
				received, delivered, errored, scanErr, r2, d2, e2, s2)
		}
	})
}

// TestScanNDJSONStopsOnDeliverFalse pins the early-stop contract the
// reject policy depends on: a false return stops the scan immediately,
// and lines past the stop are not counted as received.
func TestScanNDJSONStopsOnDeliverFalse(t *testing.T) {
	m, err := core.ModelFromDSL("pde", pdeModelSrc, pdeSet())
	if err != nil {
		t.Fatal(err)
	}
	body := strings.Join([]string{
		ndjsonObs("a", 500, 100, 4, 1),
		ndjsonObs("b", 500, 100, 4, 2),
		ndjsonObs("c", 500, 100, 4, 3),
	}, "\n")
	calls := 0
	received, _, scanErr := scanNDJSON(strings.NewReader(body), 1<<20, m,
		func(int, *counters.Observation) bool { calls++; return calls < 2 },
		func(int, error) { t.Fatal("no malformed lines in this body") })
	if scanErr != nil {
		t.Fatal(scanErr)
	}
	if calls != 2 || received != 2 {
		t.Fatalf("deliver calls %d received %d, want 2 and 2", calls, received)
	}
}
