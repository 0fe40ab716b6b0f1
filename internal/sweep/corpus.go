package sweep

import (
	"context"

	"repro/internal/counters"
	"repro/internal/haswell"
	"repro/internal/pagetable"
	"repro/internal/workloads"
)

// BaseSpec sizes the sweep's base corpus: the ground-truth observations
// every derived event is synthesised from. The grid multiplies whatever
// is simulated here by hundreds of cells, so the base stays deliberately
// small — six workloads chosen to exercise distinct counter regimes
// (including the descending non-dividing-stride Linear and minimum-
// footprint Random parameterisations the generator bugfixes unblocked).
type BaseSpec struct {
	// Samples and UopsPerSample control each observation's time series.
	Samples       int
	UopsPerSample int
	// Seed offsets all workload and simulator seeds; the whole corpus —
	// and therefore the whole sweep — is a pure function of it.
	Seed int64
}

// DefaultBaseSpec is the service-scale base corpus.
func DefaultBaseSpec() BaseSpec {
	return BaseSpec{Samples: 12, UopsPerSample: 6000, Seed: 1}
}

// WithDefaults is s with DefaultBaseSpec's sizes in place of
// non-positive ones: the corpus BuildBaseCorpus simulates for s.
func (s BaseSpec) WithDefaults() BaseSpec {
	d := DefaultBaseSpec()
	if s.Samples <= 0 {
		s.Samples = d.Samples
	}
	if s.UopsPerSample <= 0 {
		s.UopsPerSample = d.UopsPerSample
	}
	return s
}

// baseEntries is the flat workload table behind every sweep. Order is
// load-bearing: entry index feeds each simulator seed, and resumed jobs
// rebuild the corpus expecting bit-identical samples.
func baseEntries(seed int64) []haswell.Entry {
	var out []haswell.Entry
	add := func(label string, ps pagetable.PageSize, gen func() (workloads.Generator, error)) {
		cfg := haswell.DefaultConfig(ps)
		cfg.Seed = seed + int64(len(out))
		out = append(out, haswell.Entry{Label: label, Config: cfg, Gen: gen})
	}
	add("burst8-256m", pagetable.Page4K, func() (workloads.Generator, error) {
		return workloads.NewRandomBurst(256<<20, 8, 0.8, seed+11)
	})
	add("random-24m", pagetable.Page4K, func() (workloads.Generator, error) {
		return workloads.NewRandom(24<<20, 1.0, seed+23)
	})
	add("random-2mpage", pagetable.Page2M, func() (workloads.Generator, error) {
		return workloads.NewRandom(8<<30, 0.9, seed+31)
	})
	// Descending linear whose stride does not divide the footprint: the
	// exact shape the pre-fix Linear turned into 2^64-wrapped addresses.
	add("linear-desc-nondiv", pagetable.Page4K, func() (workloads.Generator, error) {
		return workloads.NewLinear(32<<20+100, 64, 1.0, true)
	})
	add("stencil-loop", pagetable.Page4K, func() (workloads.Generator, error) {
		return workloads.NewStencil(160<<10, 0.9)
	})
	add("zipfian-64m", pagetable.Page4K, func() (workloads.Generator, error) {
		return workloads.NewZipfian(64<<20, 1.3, 0.85, seed+47)
	})
	return out
}

// BuildBaseCorpus simulates the sweep's workload table on the ground-truth
// hardware and returns one observation per entry, extended with the
// walk_ref aggregate. The entries run on haswell.SimulateEntries' worker
// pool, and each checks the context between sampling intervals (corpus
// synthesis is the slow prefix of a sweep job, and a cancelled job must
// not keep simulating).
func BuildBaseCorpus(ctx context.Context, spec BaseSpec) ([]*counters.Observation, error) {
	spec = spec.WithDefaults()
	return haswell.SimulateEntries(ctx, baseEntries(spec.Seed), spec.Samples, spec.UopsPerSample)
}
