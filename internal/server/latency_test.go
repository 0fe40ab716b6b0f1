package server

import (
	"testing"
	"time"
)

// TestLatencyHistQuantiles pins the stream latency quantiles to nearest
// rank, ⌈p·N⌉: bucket i of the histogram holds durations in
// [2^(i−1), 2^i) ns and a quantile reads its bucket's upper bound, clamped
// to the exact maximum.
func TestLatencyHistQuantiles(t *testing.T) {
	check := func(name string, h *latencyHist, p50, p99 uint64) {
		t.Helper()
		if got := h.quantile(50); got != p50 {
			t.Errorf("%s: p50 = %d ns, want %d", name, got, p50)
		}
		if got := h.quantile(99); got != p99 {
			t.Errorf("%s: p99 = %d ns, want %d", name, got, p99)
		}
	}

	check("empty", &latencyHist{}, 0, 0)

	// Three samples in distinct buckets: p50 is the 2nd (rank ⌈1.5⌉), not
	// the smallest, and p99 is the 3rd (rank ⌈2.97⌉), whose bucket bound
	// 16384 is clamped to the maximum.
	var three latencyHist
	for _, ns := range []time.Duration{100, 1000, 10000} {
		three.record(ns)
	}
	check("3 samples", &three, 1024, 10000)

	// 100 samples, 98 fast and 2 slow: p50 is rank 50 and p99 rank 99,
	// the first slow one; integer ranks take no rounding step.
	var hundred latencyHist
	for i := 0; i < 100; i++ {
		ns := time.Duration(100)
		if i >= 98 {
			ns = 1 << 20
		}
		hundred.record(ns)
	}
	check("100 samples", &hundred, 128, 1<<20)

	// Every sample in one bucket: its bound 1024 exceeds every observed
	// duration, so both quantiles clamp to the exact maximum.
	var same latencyHist
	for _, ns := range []time.Duration{700, 900, 1000} {
		same.record(ns)
	}
	check("clamp to max", &same, 1000, 1000)
	if s := same.snapshot(); s.Count != 3 || s.P50Micro != 1 || s.P99Micro != 1 || s.MaxMicro != 1 {
		t.Errorf("snapshot %+v, want count 3 and p50 = p99 = max = 1 µs", s)
	}
}
