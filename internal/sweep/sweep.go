// Package sweep expands a raw hardware-counter config grid — event ×
// umask × cmask, the axes a perf_event_attr encodes — into synthetic
// "hidden event" counter columns over a simulated corpus, the workload
// behind the service's POST /v1/sweep endpoint.
//
// The paper refutes assumptions against a hand-curated catalogue of
// documented Haswell MMU events; "Exploration and Exploitation of Hidden
// PMU Events" (arXiv:2304.12072) shows the interesting regime is the
// thousands of *undocumented* encodings an event-select MSR accepts.
// This package stands in for that hidden space: a deterministic, seeded
// Decoder maps every raw config onto a behaviour synthesised from the
// simulator's ground-truth counters, and the engine is asked, per
// encoding, whether the derived event could be the page-walker reference
// count the discovered model expects (the walk_ref aggregate). Encodings
// whose behaviour is consistent survive; the rest are refuted — at grid
// sizes 10–100× the haswell-mmu catalogue, which is exactly the stress
// test the engine's content-addressed LP/verdict caches exist for.
//
// Hidden-space structure (all deliberate, all deterministic in the seed):
//
//   - Each event selector indexes a bank of BankSlots ground-truth
//     counters through a seeded permutation; umask bits select bank
//     members to sum. Umask bits at or above BankSlots are ignored, so
//     umasks equal modulo 1<<BankSlots alias to the same behaviour —
//     real PMUs are full of such aliases, and aliased cells must hit the
//     engine's caches instead of re-solving.
//   - A non-zero cmask gates each sample: totals below cmask<<8 read as
//     zero (a threshold counter). A cmask high enough to gate everything
//     aliases with umask 0.
//   - Event EventPageWalkerLoads (0xBC, the documented Haswell
//     page_walker_loads selector) is architectural: its bank is exactly
//     walk_ref.{l1,l2,l3,mem}, so umask 0x0F at cmask 0 reproduces the
//     walk_ref aggregate bit for bit and must be found feasible.
//
// Two configs that alias share a selection signature, so they decode to
// the same derived corpus.
//
// For grid-scale scans the Decoder also acts as a planner: Plan groups a
// cell list into behaviour classes by signature before anything is
// materialised or solved, so a batched scan evaluates one representative
// corpus per class (DecodeClass, pooled buffers) and copies the verdict
// onto every aliased cell without touching the engine.
package sweep

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/counters"
	"repro/internal/haswell"
)

// RawConfig is one raw counter configuration: the event-select, unit-mask
// and counter-mask fields of a perf-style encoding.
type RawConfig struct {
	Event uint8 `json:"event"`
	Umask uint8 `json:"umask"`
	Cmask uint8 `json:"cmask"`
}

// Code packs the config in the perf event encoding (cmask<<24 | umask<<8
// | event), the form Snippet-3-style flat config tables use.
func (c RawConfig) Code() uint32 {
	return uint32(c.Cmask)<<24 | uint32(c.Umask)<<8 | uint32(c.Event)
}

// String renders the packed code in hex, e.g. "0x100030d".
func (c RawConfig) String() string { return fmt.Sprintf("%#x", c.Code()) }

// EventPageWalkerLoads is the architectural event selector (Haswell's
// documented page_walker_loads event code): its bank is exactly the four
// walk_ref level counters, so umask 0x0F at cmask 0 is the true walk_ref
// aggregate.
const EventPageWalkerLoads uint8 = 0xBC

// Grid declares a raw config space as three flat axes; its cells are the
// cross product.
type Grid struct {
	Events []uint8
	Umasks []uint8
	Cmasks []uint8
}

// Validate rejects grids with an empty axis.
func (g Grid) Validate() error {
	if len(g.Events) == 0 || len(g.Umasks) == 0 || len(g.Cmasks) == 0 {
		return fmt.Errorf("sweep: grid needs at least one event, umask and cmask")
	}
	return nil
}

// Size returns the number of grid cells.
func (g Grid) Size() int { return len(g.Events) * len(g.Umasks) * len(g.Cmasks) }

// Cells expands the grid in deterministic order: event-major, then umask,
// then cmask. Cell indices — checkpoint offsets included — refer to this
// order.
func (g Grid) Cells() []RawConfig {
	out := make([]RawConfig, 0, g.Size())
	for _, e := range g.Events {
		for _, u := range g.Umasks {
			for _, c := range g.Cmasks {
				out = append(out, RawConfig{Event: e, Umask: u, Cmask: c})
			}
		}
	}
	return out
}

// DefaultGrid is the stock hidden-event scan: 16 event selectors (real
// Haswell event codes, the architectural page_walker_loads selector
// included) × 8 umasks × 3 cmasks = 384 cells, >10× the haswell-mmu model
// catalogue. Declared as flat tables in the style of the hidden-PMU
// scanners' config arrays.
func DefaultGrid() Grid {
	return Grid{
		Events: []uint8{
			0x08, 0x0D, 0x24, 0x3C, 0x49, 0x4F, 0x51, 0x5C,
			0x85, 0xA1, 0xAE, EventPageWalkerLoads, 0xC2, 0xD0, 0xD1, 0xF0,
		},
		Umasks: []uint8{0x00, 0x01, 0x03, 0x0F, 0x11, 0x1F, 0x81, 0xFF},
		Cmasks: []uint8{0x00, 0x01, 0x10},
	}
}

// LargeGrid pushes the scan toward the hidden-PMU papers' 100× regime:
// 64 event selectors × 16 umasks × 4 cmasks = 4096 cells, >100× the
// haswell-mmu catalogue yet still under the service's default
// -max-sweep-cells cap. The umask axis deliberately repeats low nibbles
// across high bits (0x11 aliases 0x01, 0xF3 aliases 0x03, ...) the way
// real PMU encodings do, so roughly half the grid collapses onto already-
// planned behaviour classes.
func LargeGrid() Grid {
	return Grid{
		Events: []uint8{
			0x03, 0x05, 0x08, 0x0D, 0x0E, 0x10, 0x11, 0x14,
			0x24, 0x27, 0x2E, 0x3C, 0x48, 0x49, 0x4C, 0x4F,
			0x51, 0x58, 0x5C, 0x5E, 0x60, 0x63, 0x79, 0x80,
			0x85, 0x87, 0x88, 0x89, 0x9C, 0xA1, 0xA2, 0xA3,
			0xA8, 0xAB, 0xAE, 0xB0, 0xB1, 0xB7, EventPageWalkerLoads, 0xBD,
			0xC0, 0xC1, 0xC2, 0xC3, 0xC4, 0xC5, 0xC8, 0xCA,
			0xCC, 0xD0, 0xD1, 0xD2, 0xD3, 0xE6, 0xF0, 0xF1,
			0xF2, 0xF4, 0x6C, 0x6D, 0x6E, 0x6F, 0x70, 0x71,
		},
		Umasks: []uint8{
			0x00, 0x01, 0x02, 0x03, 0x05, 0x07, 0x0B, 0x0F,
			0x11, 0x13, 0x1F, 0x33, 0x55, 0x7F, 0xAA, 0xFF,
		},
		Cmasks: []uint8{0x00, 0x01, 0x04, 0x10},
	}
}

// BankSlots is the number of ground-truth counters an event selector's
// bank exposes; umask bits at or above it are ignored (aliasing).
const BankSlots = 4

// cmaskShift scales the 8-bit cmask into a per-sample threshold
// (threshold = cmask << cmaskShift).
const cmaskShift = 8

// Derived is one decoded behaviour: the derived corpus for every base
// observation, over the decoder's target set, with the walk_ref aggregate
// column replaced by the synthesised event. Aliasing configs share one
// *Derived — pointer equality is the aliasing test.
type Derived struct {
	// Sig is the behaviour's content signature (selected ground-truth
	// columns plus threshold).
	Sig string
	// Corpus holds one derived observation per base observation, in base
	// order.
	Corpus []*counters.Observation
}

// Class is one behaviour class of a planned scan: the cells whose
// configs decode to the same derived corpus. Cells holds ascending
// cell-list indices; Cells[0] is the representative a batched scan
// actually evaluates, the rest inherit its verdict.
type Class struct {
	Sig   string
	Cells []int
}

// Decoder deterministically maps raw configs onto derived corpora over a
// fixed base corpus. Plan, Signature, DecodeClass and Release may be
// called from concurrent scan workers.
type Decoder struct {
	seed    int64
	base    []*counters.Observation
	target  *counters.Set
	sources []int     // base-set column indices selectable by hashed banks
	perm    []int     // seeded permutation of sources
	refBank []int     // base-set columns of walk_ref.{l1,l2,l3,mem}
	proj    []int     // base-set column per target column (-1 for the aggregate)
	aggPos  int       // aggregate column in target
	pool    sync.Pool // *Derived shaped for base×target, recycled by DecodeClass/Release
}

// Plan groups cells into behaviour classes by signature, in first-
// occurrence order, without materialising a single corpus — the planning
// stage of a batched scan. Representatives (Cells[0]) are therefore in
// ascending cell order across classes, which is what lets a batched
// evaluator commit verdicts in exact grid order.
func (d *Decoder) Plan(cells []RawConfig) []Class {
	index := make(map[string]int, len(cells))
	var classes []Class
	for i, cfg := range cells {
		sig := d.Signature(cfg)
		k, ok := index[sig]
		if !ok {
			k = len(classes)
			index[sig] = k
			classes = append(classes, Class{Sig: sig})
		}
		classes[k].Cells = append(classes[k].Cells, i)
	}
	return classes
}

// NewDecoder builds a decoder over base (simulator ground-truth
// observations, walk_ref aggregate included) producing derived corpora
// over target. Every target event except the walk_ref aggregate must be
// recorded by the base corpus — silently zero-filled counters would make
// every verdict meaningless.
func NewDecoder(seed int64, base []*counters.Observation, target *counters.Set) (*Decoder, error) {
	if len(base) == 0 {
		return nil, fmt.Errorf("sweep: decoder needs a base corpus")
	}
	set := base[0].Set
	for _, o := range base[1:] {
		if !o.Set.Equal(set) {
			return nil, fmt.Errorf("sweep: base corpus mixes counter sets (%q vs %q)", o.Set, set)
		}
	}
	aggPos, ok := target.Index(haswell.AggregateWalkRef)
	if !ok {
		return nil, fmt.Errorf("sweep: target set must contain %s", haswell.AggregateWalkRef)
	}
	d := &Decoder{
		seed:   seed,
		base:   base,
		target: target,
		aggPos: aggPos,
		proj:   make([]int, target.Len()),
	}
	for j := 0; j < target.Len(); j++ {
		e := target.At(j)
		if j == aggPos {
			d.proj[j] = -1
			continue
		}
		i, ok := set.Index(e)
		if !ok {
			return nil, fmt.Errorf("sweep: base corpus does not record target counter %s", e)
		}
		d.proj[j] = i
	}
	for _, e := range []counters.Event{counters.WalkRefL1, counters.WalkRefL2, counters.WalkRefL3, counters.WalkRefMem} {
		i, ok := set.Index(e)
		if !ok {
			return nil, fmt.Errorf("sweep: base corpus does not record %s", e)
		}
		d.refBank = append(d.refBank, i)
	}
	// Bank sources: every base column except the aggregate itself (the
	// synthesised event must derive from ground truth, not from a prior
	// derivation).
	for i, e := range set.Events() {
		if e == haswell.AggregateWalkRef {
			continue
		}
		d.sources = append(d.sources, i)
	}
	if len(d.sources) < BankSlots {
		return nil, fmt.Errorf("sweep: base corpus has %d selectable counters, need at least %d", len(d.sources), BankSlots)
	}
	d.perm = seededPerm(seed, len(d.sources))
	return d, nil
}

// seededPerm is a Fisher–Yates shuffle driven by splitmix64, so the
// permutation depends only on the seed (no math/rand version drift).
func seededPerm(seed int64, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	x := uint64(seed) ^ 0x9E3779B97F4A7C15
	next := func() uint64 {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	for i := n - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// bankStart hashes an event selector to its bank's starting position in
// the permuted source list.
func bankStart(seed int64, event uint8) int {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(event) + 0x632BE59BD9B4E019
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int(z % uint64(1<<62)) // keep it non-negative before the caller's mod
}

// bank returns the base-set columns behind an event selector's BankSlots
// slots.
func (d *Decoder) bank(event uint8) []int {
	if event == EventPageWalkerLoads {
		return d.refBank
	}
	start := bankStart(d.seed, event) % len(d.sources)
	out := make([]int, BankSlots)
	for b := 0; b < BankSlots; b++ {
		out[b] = d.sources[d.perm[(start+b)%len(d.sources)]]
	}
	return out
}

// selection resolves a config to the base columns it sums and its gating
// threshold. Umask bits at or above BankSlots are ignored.
func (d *Decoder) selection(cfg RawConfig) (cols []int, threshold float64) {
	bank := d.bank(cfg.Event)
	for b := 0; b < BankSlots; b++ {
		if cfg.Umask&(1<<b) != 0 {
			cols = append(cols, bank[b])
		}
	}
	sort.Ints(cols)
	// Duplicate columns are impossible within one bank, but two hashed
	// banks may overlap after the sort; keep duplicates — double-counting
	// is a legitimate hidden behaviour — so the signature stays faithful.
	return cols, float64(uint64(cfg.Cmask) << cmaskShift)
}

// Signature returns the behaviour signature cfg decodes to, without
// materialising the corpus (cheap aliasing queries for tests and stats).
func (d *Decoder) Signature(cfg RawConfig) string {
	cols, threshold := d.selection(cfg)
	return signature(cols, threshold)
}

func signature(cols []int, threshold float64) string {
	if len(cols) == 0 {
		return "zero"
	}
	parts := make([]string, len(cols))
	for i, c := range cols {
		parts[i] = fmt.Sprintf("c%d", c)
	}
	return fmt.Sprintf("%s|t%g", strings.Join(parts, "+"), threshold)
}

// newDerived allocates a Derived shaped for the decoder's base corpus
// and target set: one observation per base observation, each
// observation's rows carved out of a single flat backing array. The
// whole derivation costs len(base) backing allocations instead of one
// per sample row.
func (d *Decoder) newDerived() *Derived {
	n := d.target.Len()
	dv := &Derived{Corpus: make([]*counters.Observation, len(d.base))}
	for i, o := range d.base {
		out := counters.NewObservation("", d.target)
		backing := make([]float64, len(o.Samples)*n)
		out.Samples = make([][]float64, len(o.Samples))
		for s := range o.Samples {
			out.Samples[s] = backing[s*n : (s+1)*n : (s+1)*n]
		}
		dv.Corpus[i] = out
	}
	return dv
}

// fill overwrites every column of dv with cfg's decoded behaviour. Every
// target column is written unconditionally, which is what makes recycled
// buffers safe: nothing from the previous occupant survives.
func (d *Decoder) fill(dv *Derived, cols []int, threshold float64, sig string) {
	dv.Sig = sig
	for i, o := range d.base {
		out := dv.Corpus[i]
		out.Label = o.Label + "#" + sig
		for s, row := range o.Samples {
			r := out.Samples[s]
			for j, bi := range d.proj {
				if bi >= 0 {
					r[j] = row[bi]
				}
			}
			v := 0.0
			for _, ci := range cols {
				v += row[ci]
			}
			if threshold > 0 && v < threshold {
				v = 0
			}
			r[d.aggPos] = v
		}
	}
}

// DecodeClass materialises cfg's derived corpus from the decoder's
// buffer pool: a planned scan decodes each behaviour class exactly once
// (Plan already collapsed the aliases), so nothing is memoised, which
// would only pin every class's corpus in memory for the whole scan.
// Safe for concurrent use. Call Release once the class verdict is
// committed so peak memory tracks in-flight classes, not grid size; the
// observations must not be retained past that point.
func (d *Decoder) DecodeClass(cfg RawConfig) *Derived {
	cols, threshold := d.selection(cfg)
	sig := signature(cols, threshold)
	dv, _ := d.pool.Get().(*Derived)
	if dv == nil {
		dv = d.newDerived()
	}
	d.fill(dv, cols, threshold, sig)
	return dv
}

// Release recycles a DecodeClass derivation's buffers for the next
// class.
func (d *Decoder) Release(dv *Derived) { d.pool.Put(dv) }
