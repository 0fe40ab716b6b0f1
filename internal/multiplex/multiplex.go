// Package multiplex simulates hardware event counter multiplexing — the
// mechanism by which perf time-shares N logical counters over K physical
// counters (typically 4–8 on x86-64) and the dominant noise source in HEC
// measurements (paper §1, Figure 1c).
//
// Within each sample interval the kernel rotates which K logical events are
// programmed. A counter scheduled for s of the interval's S scheduler
// slices observes only those slices and is linearly extrapolated:
//
//	reported = observed × S / s
//
// Extrapolation is exact for perfectly steady workloads and noisy for
// bursty ones; the more logical counters are active, the fewer slices each
// gets and the larger the extrapolation error — reproducing Figure 1c's
// noise scaling. Because all counters ride the same workload phases, their
// errors are correlated, which is precisely the structure CounterPoint's
// correlated confidence regions exploit.
package multiplex

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/counters"
)

// Config parameterises the multiplexing scheduler.
type Config struct {
	// PhysicalCounters is K, the number of simultaneously programmable
	// counters (Haswell: 4 per thread, 8 with hyperthreading off).
	PhysicalCounters int
	// SlicesPerSample is S, the number of rotation quanta per reported
	// sample interval.
	SlicesPerSample int
	// RotationJitter randomises the rotation offset at each sample
	// boundary (seeded by JitterSeed). Real perf rotation timing drifts
	// against workload phases; without jitter a deterministic rotation can
	// resonate with periodic workloads.
	RotationJitter bool
	JitterSeed     int64
}

// Apply multiplexes a slice-granularity ground-truth observation. truth
// must contain numSamples × cfg.SlicesPerSample rows, each the counter
// deltas of one scheduler slice. The result has numSamples rows of
// extrapolated counter values — what perf would report.
func Apply(truth *counters.Observation, cfg Config) (*counters.Observation, error) {
	if cfg.PhysicalCounters <= 0 || cfg.SlicesPerSample <= 0 {
		return nil, fmt.Errorf("multiplex: non-positive config")
	}
	n := truth.Set.Len()
	s := cfg.SlicesPerSample
	if truth.Len() == 0 || truth.Len()%s != 0 {
		return nil, fmt.Errorf("multiplex: %d slices not divisible into samples of %d", truth.Len(), s)
	}
	k := cfg.PhysicalCounters
	out := counters.NewObservation(truth.Label, truth.Set)
	rotation := 0
	var rng *rand.Rand
	if cfg.RotationJitter {
		rng = rand.New(rand.NewSource(cfg.JitterSeed))
	}
	for base := 0; base < truth.Len(); base += s {
		if rng != nil {
			rotation = rng.Intn(n)
		}
		observed := make([]float64, n)
		slices := make([]int, n)
		for sl := 0; sl < s; sl++ {
			row := truth.Samples[base+sl]
			if k >= n {
				// No multiplexing needed: everything counts all the time.
				for c := 0; c < n; c++ {
					observed[c] += row[c]
					slices[c]++
				}
				continue
			}
			for j := 0; j < k; j++ {
				c := (rotation + j) % n
				observed[c] += row[c]
				slices[c]++
			}
			rotation = (rotation + k) % n
		}
		sample := make([]float64, n)
		for c := 0; c < n; c++ {
			if slices[c] == 0 {
				// Never scheduled this interval: perf reports zero with a
				// zero enabled-time; we conservatively report 0.
				continue
			}
			sample[c] = observed[c] * float64(s) / float64(slices[c])
		}
		out.Append(sample)
	}
	return out, nil
}

// NoiseSummary quantifies multiplexing noise for an observation: the mean,
// over counters with non-trivial activity, of each counter's coefficient
// of variation (σ/μ) across samples. Figure 1c plots this against the
// number of active counters.
func NoiseSummary(o *counters.Observation) float64 {
	if o.Len() < 2 {
		return 0
	}
	n := o.Set.Len()
	mean := o.Mean()
	total, used := 0.0, 0
	for c := 0; c < n; c++ {
		if mean[c] < 1 {
			continue
		}
		varc := 0.0
		for _, row := range o.Samples {
			d := row[c] - mean[c]
			varc += d * d
		}
		varc /= float64(o.Len() - 1)
		total += math.Sqrt(varc) / mean[c]
		used++
	}
	if used == 0 {
		return 0
	}
	return total / float64(used)
}
