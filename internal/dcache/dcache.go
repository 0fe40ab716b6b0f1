// Package dcache is a second, deliberately small case-study component
// demonstrating that CounterPoint generalises beyond the MMU (paper §9:
// "exploring the utility of CounterPoint to [other components] would
// broaden its applicability", §3: μpath-style modelling "is well
// positioned to extend to other microarchitectural components").
//
// The component is an L1 data cache with an optional next-line stream
// prefetcher, exposing three HECs:
//
//	l1d.hit   demand access served by the L1
//	l1d.miss  demand access that missed
//	l1d.fill  lines filled into the L1 (demand fills and prefetch fills)
//
// The conventional mental model says every fill is a demand fill:
// l1d.fill = l1d.miss. A stream prefetcher breaks that equality — fills
// exceed misses on sequential workloads — and CounterPoint localises the
// flaw the same way it does for the MMU: the violated constraint names the
// fill counter, the refined μDD adds prefetch μpaths, and the refined
// model is feasible while remaining refutable on prefetch-free hardware.
package dcache

import (
	"repro/internal/counters"
	"repro/internal/memsim"
	"repro/internal/workloads"
)

// HEC names exposed by the simulated L1D.
const (
	Hit  counters.Event = "l1d.hit"
	Miss counters.Event = "l1d.miss"
	Fill counters.Event = "l1d.fill"
)

// Set returns the component's counter set.
func Set() *counters.Set {
	return counters.NewSet(Hit, Miss, Fill)
}

// Config parameterises the simulated cache.
type Config struct {
	SizeBytes, Ways, LineBytes int
	// StreamPrefetcher fills line L+1 when two consecutive demand accesses
	// hit consecutive lines L-1, L (ascending), mirroring a next-line
	// stream detector.
	StreamPrefetcher bool
}

// DefaultConfig is a 32 KB, 8-way L1D with the prefetcher on (the
// simulated ground truth).
func DefaultConfig() Config {
	return Config{SizeBytes: 32 << 10, Ways: 8, LineBytes: 64, StreamPrefetcher: true}
}

// Sim is the simulated L1D.
type Sim struct {
	cfg      Config
	cache    *memsim.Cache
	counts   counters.Vector
	lastLine uint64
	haveLast bool
}

// NewSim builds the cache simulator.
func NewSim(cfg Config) (*Sim, error) {
	c, err := memsim.NewCache(cfg.SizeBytes, cfg.Ways, cfg.LineBytes)
	if err != nil {
		return nil, err
	}
	return &Sim{cfg: cfg, cache: c, counts: counters.NewVector(Set())}, nil
}

// Access performs one demand access.
func (s *Sim) Access(va uint64) {
	line := va / uint64(s.cfg.LineBytes)
	if s.cache.Access(va) {
		s.counts.Add(Hit, 1)
	} else {
		s.counts.Add(Miss, 1)
		s.counts.Add(Fill, 1)
	}
	if s.cfg.StreamPrefetcher && s.haveLast && line == s.lastLine+1 {
		// Stream detected: prefetch the next line if absent.
		next := (line + 1) * uint64(s.cfg.LineBytes)
		if !s.cache.Access(next) {
			// Access filled it; the fill is a prefetch fill.
			s.counts.Add(Fill, 1)
		}
	}
	s.lastLine = line
	s.haveLast = true
}

// Observation runs gen for numSamples intervals of accessesPerSample and
// returns per-interval counter deltas.
func (s *Sim) Observation(gen workloads.Generator, numSamples, accessesPerSample int) *counters.Observation {
	o := counters.NewObservation(gen.Name(), Set())
	prev := s.counts.Clone()
	for k := 0; k < numSamples; k++ {
		for i := 0; i < accessesPerSample; i++ {
			s.Access(gen.Next().VA)
		}
		delta := make([]float64, Set().Len())
		for i := range delta {
			delta[i] = s.counts.Values[i] - prev.Values[i]
		}
		o.Append(delta)
		prev = s.counts.Clone()
	}
	return o
}

// ConventionalModelSrc is the textbook L1D μDD: every miss is filled, and
// nothing else fills.
const ConventionalModelSrc = `
switch L1DStatus {
    Hit  => incr l1d.hit;
    Miss => { incr l1d.miss; incr l1d.fill; };
};
done;
`

// PrefetcherModelSrc refines the conventional model: a demand access may
// additionally trigger a stream prefetch that fills a line without a
// demand miss.
const PrefetcherModelSrc = `
switch L1DStatus {
    Hit  => incr l1d.hit;
    Miss => { incr l1d.miss; incr l1d.fill; };
};
switch PfTriggered {
    No  => pass;
    Yes => switch PfLineAbsent {
        Yes => incr l1d.fill;
        No  => pass;
    };
};
done;
`
