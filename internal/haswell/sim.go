package haswell

import (
	"context"
	"math/rand"

	"repro/internal/counters"
	"repro/internal/memsim"
	"repro/internal/pagetable"
	"repro/internal/workloads"
)

// Simulator is the simulated Haswell MMU plus its supporting substrates:
// a real four-level page table, a three-level data-cache hierarchy, split
// L1 DTLBs, a unified STLB, and the paging-structure caches.
type Simulator struct {
	cfg   Config
	table *pagetable.Table
	mem   *memsim.Hierarchy
	dtlb  *memsim.LRU // keyed by virtual page number
	stlb  *memsim.LRU
	pde   *memsim.LRU // fully associative: VA[47:21] → PD entry
	pdpte *memsim.LRU // fully associative: VA[47:30] → PDPT entry
	pml4e *memsim.LRU // fully associative: VA[47:39] → PML4 entry
	rng   *rand.Rand

	counts counters.Vector
	set    *counters.Set
	// Column of each event in counts.Values, resolved once from set; -1
	// marks an event outside the set, which is not counted (an
	// unprogrammed hardware counter does not count either).
	typedCol [2][numTypedEvents]int // [tLoad or tStore][ev*]
	refCol   [memsim.Mem + 1]int    // walk_ref.* by serving level
	steps    []pagetable.Step       // walk buffer reused across accesses

	// Prefetcher trigger state: last load's page and cache line index.
	lastLoadPage uint64
	lastLoadLine int
	haveLastLoad bool

	// MSHR window state. Walks complete (and their TLB/PSC fills become
	// visible) at the end of the window they started in; demand misses to a
	// pending virtual page within the window merge into the owner walk.
	windowLeft   int
	pendingVPNs  map[uint64]bool
	pendingFills []fillReq

	uops uint64
}

// Access-type indices into Simulator.typedCol.
const (
	tLoad = iota
	tStore
)

// Per-access-type events, indices into Simulator.typedCol[t].
const (
	evRet = iota
	evRetSTLBMiss
	evSTLBHit
	evSTLBHit4K
	evSTLBHit2M
	evCausesWalk
	evPDEMiss
	evWalkDone
	evWalkDone4K
	evWalkDone2M
	evWalkDone1G
	numTypedEvents
)

// typedSuffixes names each per-access-type event.
var typedSuffixes = [numTypedEvents]string{
	evRet:         counters.Ret,
	evRetSTLBMiss: counters.RetSTLBMiss,
	evSTLBHit:     counters.STLBHit,
	evSTLBHit4K:   counters.STLBHit4K,
	evSTLBHit2M:   counters.STLBHit2M,
	evCausesWalk:  counters.CausesWalk,
	evPDEMiss:     counters.PDECacheMis,
	evWalkDone:    counters.WalkDone,
	evWalkDone4K:  counters.WalkDone4K,
	evWalkDone2M:  counters.WalkDone2M,
	evWalkDone1G:  counters.WalkDone1G,
}

// physBase is where the page table's bump allocator starts handing out
// table pages and data frames. Data reaches the cache hierarchy
// identity-mapped, from workloads.VABase (1<<36) up; the largest corpus
// footprint (random-1gpage, 4 TB) ends below 1<<43, and the allocator,
// moved a gigabyte up by each of at most 4096 1 GB data frames, stays
// within 1<<44 + 1<<43. So for every corpus workload walker refs and data
// never share lines. 1<<40 and 1<<44 map to the same cache sets, and the
// corpus goldens held across the move from 1<<40.
const physBase = 1 << 44

// NewSimulator builds a simulator for cfg.
func NewSimulator(cfg Config) *Simulator {
	cfg.applyDefaults()
	s := &Simulator{
		cfg:         cfg,
		table:       pagetable.New(physBase),
		mem:         memsim.MustHierarchy(memsim.HaswellConfig()),
		dtlb:        memsim.NewLRU(cfg.DTLBEntries, 4),
		stlb:        memsim.NewLRU(cfg.STLBEntries, 8),
		pde:         memsim.NewLRU(cfg.PDEEntries, cfg.PDEEntries),
		pdpte:       memsim.NewLRU(cfg.PDPTEEntries, cfg.PDPTEEntries),
		pml4e:       memsim.NewLRU(cfg.PML4EEntries, cfg.PML4EEntries),
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		set:         GroundTruthSet(),
		pendingVPNs: map[uint64]bool{},
		windowLeft:  cfg.WindowUops,
	}
	s.counts = counters.NewVector(s.set)
	for t, at := range [...]counters.AccessType{tLoad: counters.Load, tStore: counters.Store} {
		for ev, suffix := range typedSuffixes {
			s.typedCol[t][ev] = column(s.set, counters.E(at, suffix))
		}
	}
	for lvl, e := range [...]counters.Event{
		memsim.L1: counters.WalkRefL1, memsim.L2: counters.WalkRefL2,
		memsim.L3: counters.WalkRefL3, memsim.Mem: counters.WalkRefMem,
	} {
		s.refCol[lvl] = column(s.set, e)
	}
	return s
}

// column returns e's index in set, or -1 if set lacks it.
func column(set *counters.Set, e counters.Event) int {
	if i, ok := set.Index(e); ok {
		return i
	}
	return -1
}

func (s *Simulator) vpn(va uint64) uint64 { return va / uint64(s.cfg.PageSize) }

// incr counts one occurrence of the per-access-type event ev for access
// type t.
func (s *Simulator) incr(t, ev int) { s.bump(s.typedCol[t][ev]) }

// bump increments counter column col; -1 is an event outside the set.
func (s *Simulator) bump(col int) {
	if col >= 0 {
		s.counts.Values[col]++
	}
}

// Step processes n accesses from gen.
func (s *Simulator) Step(gen workloads.Generator, n int) {
	for i := 0; i < n; i++ {
		s.process(gen.Next())
	}
}

// Observation runs the workload for numSamples intervals of uopsPerSample
// micro-ops each and returns the per-interval ground-truth counter deltas —
// the noise-free time series that perf would see with one physical counter
// per event.
func (s *Simulator) Observation(gen workloads.Generator, numSamples, uopsPerSample int) *counters.Observation {
	o, _ := s.observe(context.Background(), gen, numSamples, uopsPerSample)
	return o
}

// observe is Observation stopping with ctx's error, and no observation,
// when ctx ends between two intervals.
func (s *Simulator) observe(ctx context.Context, gen workloads.Generator, numSamples, uopsPerSample int) (*counters.Observation, error) {
	o := counters.NewObservation(gen.Name(), s.set)
	prev := s.counts.Clone()
	for k := 0; k < numSamples; k++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		s.Step(gen, uopsPerSample)
		cur := s.counts
		delta := make([]float64, s.set.Len())
		for i := range delta {
			delta[i] = cur.Values[i] - prev.Values[i]
		}
		o.Append(delta)
		prev = cur.Clone()
	}
	return o, nil
}

// process runs one access: its translation, whose walker references reach
// the data-cache hierarchy first, then the data access itself
// (identity-mapped), which keeps the hierarchy realistic.
func (s *Simulator) process(a workloads.Access) {
	s.translate(a)
	s.mem.Access(a.VA)
}

// translate runs an access's address translation through the TLBs, the
// paging-structure caches and the page walker, counting its events.
func (s *Simulator) translate(a workloads.Access) {
	s.uops++
	if s.cfg.AccessedClearEvery > 0 && s.uops%uint64(s.cfg.AccessedClearEvery) == 0 {
		s.table.ClearAccessed()
	}
	if s.windowLeft <= 0 {
		s.rollWindow()
	}
	s.windowLeft--

	t := tStore
	if a.IsLoad {
		t = tLoad
	}
	retired := s.rng.Float64() >= s.cfg.SpecRate

	ps := s.cfg.PageSize
	va := a.VA &^ ps.Mask()
	s.table.EnsureMapped(va, ps)
	vpn := s.vpn(a.VA)

	// LSQ-side TLB prefetcher: fires on consecutive same-page loads to
	// cache lines 51→52 (ascending) or 8→7 (descending), before any TLB
	// lookup and regardless of speculation (paper §7.1). 4K pages only.
	if s.cfg.Features.TLBPrefetch && a.IsLoad && ps == pagetable.Page4K {
		page := a.VA >> 12
		line := int(a.VA >> 6 & 0x3f)
		if s.haveLastLoad && s.lastLoadPage == page {
			if s.lastLoadLine == 51 && line == 52 {
				s.prefetch(a.VA + uint64(ps))
			} else if s.lastLoadLine == 8 && line == 7 {
				s.prefetch(a.VA - uint64(ps))
			}
		}
		s.lastLoadPage = page
		s.lastLoadLine = line
		s.haveLastLoad = true
	}

	// L1 DTLB.
	if s.dtlb.Lookup(vpn) {
		if retired {
			s.incr(t, evRet)
		}
		return
	}
	// STLB.
	if s.stlb.Lookup(vpn) {
		s.incr(t, evSTLBHit)
		switch ps {
		case pagetable.Page4K:
			s.incr(t, evSTLBHit4K)
		case pagetable.Page2M:
			s.incr(t, evSTLBHit2M)
		}
		s.dtlb.Fill(vpn)
		if retired {
			s.incr(t, evRet)
		}
		return
	}

	// STLB miss. Early-PSC hardware looks the PDE cache up before the MSHR
	// merge decision, so merged requests also count PDE-cache misses. The
	// PDE cache holds only non-leaf 4K-region PD entries, so 2M and 1G
	// requests probe it and always miss (Table 1 constraint (2) relies on
	// this: every walk's pde$_miss budget covers its deepest refs).
	pdeHit := false
	pdeLooked := false
	if s.cfg.Features.EarlyPSC {
		pdeLooked = true
		pdeHit = s.pdeLookup(a.VA, ps, t)
	}

	if s.cfg.Features.WalkMerging && s.pendingVPNs[vpn] {
		// Merged into the outstanding walk: no causes_walk, no refs; the
		// micro-op obtains its translation from the owner walk.
		if retired {
			s.incr(t, evRet)
			s.incr(t, evRetSTLBMiss)
		}
		return
	}
	s.pendingVPNs[vpn] = true

	s.incr(t, evCausesWalk)
	if !s.cfg.Features.EarlyPSC {
		// Conventional hardware: only the walk owner consults the PDE cache,
		// at walk start.
		pdeLooked = true
		pdeHit = s.pdeLookup(a.VA, ps, t)
	}

	// Determine the walk start level from the paging-structure caches.
	startLevel := s.walkStartLevel(a.VA, ps, pdeLooked, pdeHit)

	cleared := s.rng.Float64() < s.cfg.ClearRate
	if cleared {
		// Machine clear mid-walk: a partial prefix of the walk's references
		// was already issued and counted.
		s.partialWalkRefs(a.VA, startLevel)
		if retired && s.cfg.Features.WalkReplay {
			// Replay at retirement as a non-speculative walk: completes and
			// fills, but its references are not recorded by walk_ref.
			s.replayWalk(a.VA, ps, vpn)
			s.walkDone(t, ps)
			s.incr(t, evRet)
			s.incr(t, evRetSTLBMiss)
		}
		// Squashed (or replay-less hardware): the translation is abandoned.
		return
	}

	// Normal demand walk.
	steps, ok := s.walk(a.VA, startLevel, true, false)
	for _, st := range steps {
		s.walkRef(st.EntryPhys)
	}
	if !ok {
		// Page fault — cannot happen here because EnsureMapped ran, but be
		// conservative: abandon without completion.
		return
	}
	s.fillAfterWalk(a.VA, ps, vpn)
	s.walkDone(t, ps)
	if retired {
		s.incr(t, evRet)
		s.incr(t, evRetSTLBMiss)
	}
}

// pdeLookup probes the PDE cache for a translation request of type t,
// incrementing T.pde$_miss on a miss. Only 4K regions can hit: 2M/1G leaf
// entries are never cached, so those probes always miss.
func (s *Simulator) pdeLookup(va uint64, ps pagetable.PageSize, t int) bool {
	hit := ps == pagetable.Page4K && s.pde.Lookup(va>>21)
	if !hit {
		s.incr(t, evPDEMiss)
	}
	return hit
}

// walkStartLevel consults the PSC hierarchy: the longest cached prefix lets
// the walker skip levels. pdeLooked/pdeHit carry the (possibly early) PDE
// result.
func (s *Simulator) walkStartLevel(va uint64, ps pagetable.PageSize, pdeLooked, pdeHit bool) int {
	switch ps {
	case pagetable.Page4K:
		if pdeLooked && pdeHit {
			return 3 // read only the PT entry
		}
		if !pdeLooked {
			if s.pde.Lookup(va >> 21) {
				return 3
			}
		}
		if s.pdpte.Lookup(va >> 30) {
			return 2
		}
		if s.cfg.Features.PML4ECache && s.pml4e.Lookup(va>>39) {
			return 1
		}
		return 0
	case pagetable.Page2M:
		if s.pdpte.Lookup(va >> 30) {
			return 2 // read only the PD (leaf) entry
		}
		if s.cfg.Features.PML4ECache && s.pml4e.Lookup(va>>39) {
			return 1
		}
		return 0
	default: // 1G
		if s.cfg.Features.PML4ECache && s.pml4e.Lookup(va>>39) {
			return 1 // read only the PDPT (leaf) entry
		}
		return 0
	}
}

// walkRef issues one page-walker load and classifies it by serving level.
func (s *Simulator) walkRef(entryPhys uint64) {
	s.bump(s.refCol[s.mem.Access(entryPhys)])
}

// walk runs a page walk into the simulator's reused step buffer; the
// steps are valid until the next walk.
func (s *Simulator) walk(va uint64, startLevel int, setAccessed, abortOnUnaccessed bool) ([]pagetable.Step, bool) {
	var ok bool
	s.steps, ok = s.table.Walk(s.steps[:0], va, startLevel, setAccessed, abortOnUnaccessed)
	return s.steps, ok
}

// partialWalkRefs emits the reference prefix a machine-cleared walk issued
// before the clear (anywhere from zero to all of its reads).
func (s *Simulator) partialWalkRefs(va uint64, startLevel int) {
	steps, _ := s.walk(va, startLevel, false, false)
	if len(steps) == 0 {
		return
	}
	k := s.rng.Intn(len(steps) + 1)
	for _, st := range steps[:k] {
		s.walkRef(st.EntryPhys)
	}
}

// replayWalk re-walks non-speculatively: accessed bits are set and caches
// filled, but no walk_ref counters increment (replay loads carry special
// non-speculative attributes that walk_ref does not capture — paper §C.4).
func (s *Simulator) replayWalk(va uint64, ps pagetable.PageSize, vpn uint64) {
	if _, ok := s.walk(va, 0, true, false); !ok {
		return
	}
	s.fillAfterWalk(va, ps, vpn)
}

// fillReq is a deferred TLB/PSC fill that becomes visible when the walk's
// window ends.
type fillReq struct {
	va  uint64
	vpn uint64
	ps  pagetable.PageSize
}

// fillAfterWalk schedules the completed translation's TLB and paging-
// structure cache fills for the end of the current window, modelling walk
// latency: until the walk completes, further misses to the same page keep
// missing the STLB and merge into the owner walk.
func (s *Simulator) fillAfterWalk(va uint64, ps pagetable.PageSize, vpn uint64) {
	s.pendingFills = append(s.pendingFills, fillReq{va: va, vpn: vpn, ps: ps})
}

// rollWindow completes the window's outstanding walks: fills become
// visible and the MSHRs drain.
func (s *Simulator) rollWindow() {
	s.windowLeft = s.cfg.WindowUops
	for _, f := range s.pendingFills {
		s.stlb.Fill(f.vpn)
		s.dtlb.Fill(f.vpn)
		switch f.ps {
		case pagetable.Page4K:
			s.pde.Fill(f.va >> 21)
			s.pdpte.Fill(f.va >> 30)
		case pagetable.Page2M:
			s.pdpte.Fill(f.va >> 30)
		}
		if s.cfg.Features.PML4ECache {
			s.pml4e.Fill(f.va >> 39)
		}
	}
	s.pendingFills = s.pendingFills[:0]
	clear(s.pendingVPNs)
}

func (s *Simulator) walkDone(t int, ps pagetable.PageSize) {
	s.incr(t, evWalkDone)
	switch ps {
	case pagetable.Page4K:
		s.incr(t, evWalkDone4K)
	case pagetable.Page2M:
		s.incr(t, evWalkDone2M)
	default:
		s.incr(t, evWalkDone1G)
	}
}

// prefetch performs a TLB prefetch for the page containing va: a PDE-cache
// lookup followed by a prefetch-induced page table walk that injects loads
// like a demand walk but aborts on the first entry whose accessed bit is
// unset, and never sets accessed bits itself (paper §7.1).
func (s *Simulator) prefetch(va uint64) {
	ps := s.cfg.PageSize
	s.table.EnsureMapped(va&^ps.Mask(), ps)
	pdeHit := false
	if ps == pagetable.Page4K {
		pdeHit = s.pde.Lookup(va >> 21)
		if !pdeHit {
			// The prefetcher lives on the load side.
			s.incr(tLoad, evPDEMiss)
		}
	}
	startLevel := 0
	if pdeHit {
		startLevel = 3
	} else if s.pdpte.Lookup(va >> 30) {
		startLevel = 2
	} else if s.cfg.Features.PML4ECache && s.pml4e.Lookup(va>>39) {
		startLevel = 1
	}
	steps, ok := s.walk(va, startLevel, false, true)
	for _, st := range steps {
		s.walkRef(st.EntryPhys)
	}
	if !ok {
		// Aborted (unset accessed bit or unmapped): no fill, no completion.
		return
	}
	// Successful prefetch fills the STLB and paging-structure caches; no
	// causes_walk, no walk_done (those count demand STLB misses).
	vpn := s.vpn(va)
	s.stlb.Fill(vpn)
	switch ps {
	case pagetable.Page4K:
		s.pde.Fill(va >> 21)
		s.pdpte.Fill(va >> 30)
	case pagetable.Page2M:
		s.pdpte.Fill(va >> 30)
	}
}
