package haswell

import (
	"context"
	"fmt"

	"repro/internal/counters"
	"repro/internal/ordered"
	"repro/internal/pagetable"
	"repro/internal/workloads"
)

// CorpusSpec sizes the simulated measurement corpus. The paper collects ~20
// million HEC samples; our default corpus is scaled to keep the full
// experiment suite in CI-sized minutes while stressing the same MMU
// corners.
type CorpusSpec struct {
	// Samples and UopsPerSample control each observation's time series.
	Samples       int
	UopsPerSample int
	// Quick restricts the corpus to a representative subset (used by tests).
	Quick bool
	// Seed offsets all workload and simulator seeds.
	Seed int64
}

// DefaultCorpusSpec is the experiment-scale corpus.
func DefaultCorpusSpec() CorpusSpec {
	return CorpusSpec{Samples: 24, UopsPerSample: 20000, Seed: 1}
}

// QuickCorpusSpec is the test-scale corpus.
func QuickCorpusSpec() CorpusSpec {
	return CorpusSpec{Samples: 12, UopsPerSample: 8000, Quick: true, Seed: 1}
}

// Entry is one corpus observation to simulate: a workload constructor run
// on a simulator configuration.
type Entry struct {
	Label  string
	Config Config
	Gen    func() (workloads.Generator, error)
}

// BuildCorpus simulates the workload corpus on the ground-truth hardware
// (DiscoveredFeatures) and returns one observation per workload/config,
// already extended with the walk_ref aggregate. Workloads cover the
// regimes each discovered feature is inferred from:
//
//   - burst-random → MSHR merging + early PSC lookup (pde$_miss >
//     causes_walk, ret_stlb_miss > walk_done);
//   - small/medium random at 4K → walk replay (walk_done exceeding what
//     walk_ref allows);
//   - 1G/2M pages → the PML4E-cache-vs-bypass ambiguity;
//   - looping stencil/linear with warm TLBs → LSQ prefetcher activity
//     decoupled from every miss stream;
//   - linear sweeps with mixed load-store ratios → prefetcher triggers and
//     store behaviour.
func BuildCorpus(spec CorpusSpec) ([]*counters.Observation, error) {
	return SimulateEntries(context.Background(), corpusEntries(spec), spec.Samples, spec.UopsPerSample)
}

// SimulateEntries simulates every entry for samples intervals of uops
// micro-ops each, after a one-interval warm-up, and returns the
// observations in entry order, labelled "<entry label>/<workload>" and
// extended with the walk_ref aggregate. Entries are independent, so they
// all run at once through ordered.Run, each on a goroutine of its own,
// and each result lands in its entry's slot: the corpus does not depend
// on scheduling. The tables are short (6 entries for a sweep's base, 17
// for the default corpus) and their entries differ in cost several times
// over; since Run claims no further ahead than its window, any smaller
// window idles cores behind a slow entry. Every entry checks ctx between
// sampling intervals; the first error in entry order is returned with no
// corpus.
func SimulateEntries(ctx context.Context, entries []Entry, samples, uops int) ([]*counters.Observation, error) {
	obs := make([]*counters.Observation, len(entries))
	err := ordered.Run(ctx, len(entries), len(entries), ordered.Go,
		func(ctx context.Context, i int) (*counters.Observation, error) {
			return simulateEntry(ctx, entries[i], samples, uops)
		},
		func(i int, o *counters.Observation) error {
			obs[i] = o
			return nil
		})
	if err != nil {
		return nil, err
	}
	return obs, nil
}

func simulateEntry(ctx context.Context, e Entry, samples, uops int) (*counters.Observation, error) {
	gen, err := e.Gen()
	if err != nil {
		return nil, fmt.Errorf("corpus %s: %w", e.Label, err)
	}
	sim := NewSimulator(e.Config)
	// Warm up: one sample's worth of micro-ops reaches steady state.
	sim.Step(gen, uops)
	o, err := sim.observe(ctx, gen, samples, uops)
	if err != nil {
		return nil, err
	}
	o.Label = e.Label + "/" + o.Label
	return WithAggregateWalkRef(o), nil
}

func corpusEntries(spec CorpusSpec) []Entry {
	seed := spec.Seed
	cfg4k := func() Config { return DefaultConfig(pagetable.Page4K) }
	var out []Entry
	add := func(label string, cfg Config, gen func() (workloads.Generator, error)) {
		cfg.Seed = seed + int64(len(out))
		out = append(out, Entry{Label: label, Config: cfg, Gen: gen})
	}

	// Burst-random: merging + early-PSC anomaly (pde$_miss > causes_walk).
	for _, fp := range []uint64{256 << 20, 1 << 30} {
		fp := fp
		for _, burst := range []int{8, 16} {
			burst := burst
			add(fmt.Sprintf("burst%d-%dm", burst, fp>>20), cfg4k(), func() (workloads.Generator, error) {
				return workloads.NewRandomBurst(fp, burst, 0.8, seed+101)
			})
			if spec.Quick {
				break
			}
		}
		if spec.Quick {
			break
		}
	}

	// Random, PDE-cache-friendly footprint: exposes replayed walks
	// (walk_done with missing walk_ref).
	for _, fp := range []uint64{24 << 20, 48 << 20} {
		fp := fp
		add(fmt.Sprintf("random-%dm", fp>>20), cfg4k(), func() (workloads.Generator, error) {
			return workloads.NewRandom(fp, 1.0, seed+201)
		})
		if spec.Quick {
			break
		}
	}

	// Large random: deep walks, PDE-cache misses.
	if !spec.Quick {
		add("random-1g", cfg4k(), func() (workloads.Generator, error) {
			return workloads.NewRandom(1<<30, 0.7, seed+301)
		})
	}

	// Huge pages: the PML4E-cache / bypass ambiguity. The footprint must
	// exceed STLB reach (1024 × 1 GB) for 1 GB translations to walk; the
	// simulator's bump allocator only hands out addresses, so a multi-TB
	// footprint costs no memory.
	cfg1g := DefaultConfig(pagetable.Page1G)
	add("random-1gpage", cfg1g, func() (workloads.Generator, error) {
		return workloads.NewRandom(4<<40, 1.0, seed+401)
	})
	cfg2m := DefaultConfig(pagetable.Page2M)
	add("random-2mpage", cfg2m, func() (workloads.Generator, error) {
		return workloads.NewRandom(8<<30, 0.9, seed+451)
	})

	// Looping stencil inside DTLB reach: prefetcher signal with no miss
	// stream. A small store fraction keeps store-side-trigger models
	// testable the way the paper's corpus does (Table 5: t12 is feasible).
	add("stencil-loop", cfg4k(), func() (workloads.Generator, error) {
		return workloads.NewStencil(160<<10, 0.9)
	})

	// Linear sweeps: prefetcher + merging together.
	for _, stride := range []uint64{64, 192} {
		stride := stride
		add(fmt.Sprintf("linear-s%d", stride), cfg4k(), func() (workloads.Generator, error) {
			return workloads.NewLinear(64<<20, stride, 0.9, false)
		})
		if spec.Quick {
			break
		}
	}
	if !spec.Quick {
		add("linear-desc", cfg4k(), func() (workloads.Generator, error) {
			return workloads.NewLinear(32<<20, 64, 1.0, true)
		})
		// Store-only linear: must show no prefetch activity (C.2).
		add("linear-stores", cfg4k(), func() (workloads.Generator, error) {
			return workloads.NewLinear(32<<20, 64, 0.0, false)
		})
		add("pointerchase", cfg4k(), func() (workloads.Generator, error) {
			return workloads.NewPointerChase(128<<20, seed+501)
		})
		add("zipfian", cfg4k(), func() (workloads.Generator, error) {
			return workloads.NewZipfian(256<<20, 1.2, 0.85, seed+601)
		})
		// Accessed-bit clearing: prefetch walks abort mid-stream.
		abit := cfg4k()
		abit.AccessedClearEvery = 50000
		add("linear-abitclear", abit, func() (workloads.Generator, error) {
			return workloads.NewLinear(16<<20, 64, 1.0, false)
		})
	}
	return out
}
