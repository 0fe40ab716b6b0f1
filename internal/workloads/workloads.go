// Package workloads generates deterministic memory-access streams that
// stand in for the paper's benchmark corpus (GAPBS, SPEC2006, PARSEC, YCSB
// plus two microbenchmarks, §7.1).
//
// The paper's reverse-engineering power comes from workloads that stress
// distinct corners of the MMU:
//
//   - Linear: the paper's linear-access microbenchmark, parameterised by
//     footprint, stride and load-store ratio. Sequential page-crossing
//     accesses are what arm the LSQ-side TLB prefetcher (cache-line pairs
//     51→52 ascending, 8→7 descending).
//   - Random: the paper's random-access microbenchmark — defeats the
//     prefetcher, stresses walk merging and PDE-cache misses.
//   - PointerChase: dependent-chain traversal with graph-like locality
//     (GAPBS stand-in).
//   - Zipfian: skewed key-value accesses (YCSB stand-in).
//   - Stencil: repeated sweeps over a modest working set with neighbour
//     touches (PARSEC/SPEC stand-in); small footprints re-loop and expose
//     prefetcher behaviour without any TLB miss stream.
//
// Generators are infinite and deterministic for a given seed.
package workloads

import (
	"fmt"
	"math/rand"
)

// Access is one memory micro-op issued by a workload.
type Access struct {
	VA     uint64
	IsLoad bool
}

// Generator produces an infinite deterministic access stream.
type Generator interface {
	// Name identifies the workload and its parameters.
	Name() string
	// Next returns the next access.
	Next() Access
}

// VABase is where workload heaps start; leaving low VA space empty keeps
// the first PML4/PDPT indices non-trivial.
const VABase = 0x10_0000_0000

// storeEvery converts a load fraction into a deterministic interleaving
// period: one store every k accesses (k=0 means no stores).
func storeEvery(loadRatio float64) int {
	if loadRatio >= 1 {
		return 0
	}
	if loadRatio <= 0 {
		return 1
	}
	k := int(1.0 / (1.0 - loadRatio))
	if k < 1 {
		k = 1
	}
	return k
}

// Linear is the linear-access microbenchmark: an infinite loop striding
// through a footprint, ascending or descending.
type Linear struct {
	name      string
	footprint uint64
	step      uint64 // stride reduced mod footprint: all offset arithmetic stays in [0, footprint)
	desc      bool
	every     int
	off       uint64
	count     int
}

// NewLinear builds a linear generator. stride is in bytes; loadRatio in
// [0,1] sets the fraction of loads; descending reverses direction.
func NewLinear(footprint, stride uint64, loadRatio float64, descending bool) (*Linear, error) {
	if footprint == 0 || stride == 0 {
		return nil, fmt.Errorf("workloads: linear needs positive footprint and stride")
	}
	dir := "asc"
	if descending {
		dir = "desc"
	}
	return &Linear{
		name: fmt.Sprintf("linear[fp=%d,stride=%d,load=%.2f,%s]",
			footprint, stride, loadRatio, dir),
		footprint: footprint,
		step:      stride % footprint,
		desc:      descending,
		every:     storeEvery(loadRatio),
	}, nil
}

// Name implements Generator.
func (l *Linear) Name() string { return l.name }

// Next implements Generator.
func (l *Linear) Next() Access {
	var va uint64
	if l.desc {
		// The descending offset is -(off+step) mod footprint. Both operands
		// are already reduced mod footprint, so the subtraction cannot wrap
		// below zero the way footprint-stride-off did whenever stride did
		// not divide footprint; the trailing %footprint folds the pos==0
		// case back to offset 0.
		pos := (l.off + l.step) % l.footprint
		va = VABase + (l.footprint-pos)%l.footprint
	} else {
		va = VABase + l.off
	}
	l.off = (l.off + l.step) % l.footprint
	l.count++
	isLoad := l.every == 0 || l.count%l.every != 0
	return Access{VA: va, IsLoad: isLoad}
}

// Random is the random-access microbenchmark: uniform accesses over the
// footprint, defeating every prefetcher.
type Random struct {
	name      string
	footprint uint64
	every     int
	rng       *rand.Rand
	count     int
}

// NewRandom builds a random generator with the given seed. The footprint
// must cover at least one 8-byte slot: Next derives addresses from
// footprint/8 slots, so footprints 1–7 would divide by zero.
func NewRandom(footprint uint64, loadRatio float64, seed int64) (*Random, error) {
	if footprint < 8 {
		return nil, fmt.Errorf("workloads: random needs a footprint of at least 8 bytes, got %d", footprint)
	}
	return &Random{
		name:      fmt.Sprintf("random[fp=%d,load=%.2f]", footprint, loadRatio),
		footprint: footprint,
		every:     storeEvery(loadRatio),
		rng:       rand.New(rand.NewSource(seed)),
	}, nil
}

// Name implements Generator.
func (r *Random) Name() string { return r.name }

// Next implements Generator.
func (r *Random) Next() Access {
	va := VABase + (r.rng.Uint64()%(r.footprint/8))*8
	r.count++
	isLoad := r.every == 0 || r.count%r.every != 0
	return Access{VA: va, IsLoad: isLoad}
}

// PointerChase traverses a pseudo-random permutation cycle — dependent
// loads with poor locality, like graph analytics (GAPBS stand-in).
type PointerChase struct {
	name  string
	nodes []uint64
	cur   int
}

// NewPointerChase builds a chase over footprint bytes with 64-byte nodes.
func NewPointerChase(footprint uint64, seed int64) (*PointerChase, error) {
	n := int(footprint / 64)
	if n < 2 {
		return nil, fmt.Errorf("workloads: pointer chase needs at least 128 bytes")
	}
	if n > 1<<22 {
		n = 1 << 22 // cap index memory; the cycle still spans the footprint
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	nodes := make([]uint64, n)
	stride := footprint / uint64(n)
	for i, p := range perm {
		nodes[i] = VABase + uint64(p)*stride
	}
	return &PointerChase{
		name:  fmt.Sprintf("pointerchase[fp=%d]", footprint),
		nodes: nodes,
	}, nil
}

// Name implements Generator.
func (p *PointerChase) Name() string { return p.name }

// Next implements Generator.
func (p *PointerChase) Next() Access {
	va := p.nodes[p.cur]
	p.cur = (p.cur + 1) % len(p.nodes)
	return Access{VA: va, IsLoad: true}
}

// Zipfian issues skewed accesses over a key space (YCSB stand-in): hot keys
// dominate, cold keys stress the TLB tail.
type Zipfian struct {
	name  string
	zipf  *rand.Zipf
	rng   *rand.Rand
	slot  uint64
	every int
	count int
}

// NewZipfian builds a zipfian generator with skew s > 1 over footprint
// bytes in 64-byte slots.
func NewZipfian(footprint uint64, s float64, loadRatio float64, seed int64) (*Zipfian, error) {
	slots := footprint / 64
	if slots < 2 {
		return nil, fmt.Errorf("workloads: zipfian needs at least 128 bytes")
	}
	if s <= 1 {
		return nil, fmt.Errorf("workloads: zipfian skew must be > 1, got %g", s)
	}
	rng := rand.New(rand.NewSource(seed))
	return &Zipfian{
		name:  fmt.Sprintf("zipfian[fp=%d,s=%.2f,load=%.2f]", footprint, s, loadRatio),
		zipf:  rand.NewZipf(rng, s, 1, slots-1),
		rng:   rng,
		slot:  slots,
		every: storeEvery(loadRatio),
	}, nil
}

// Name implements Generator.
func (z *Zipfian) Name() string { return z.name }

// Next implements Generator.
func (z *Zipfian) Next() Access {
	// Spread ranks over the address space so hot keys are not all on one
	// page: multiply by a large odd constant mod slots.
	rank := z.zipf.Uint64()
	slot := (rank * 2654435761) % z.slot
	z.count++
	isLoad := z.every == 0 || z.count%z.every != 0
	return Access{VA: VABase + slot*64, IsLoad: isLoad}
}

// Stencil sweeps a working set repeatedly touching each element and its
// neighbours (PARSEC/SPEC stand-in). Small footprints loop forever with
// no steady-state TLB misses, which is exactly the regime that isolates
// LSQ-side prefetcher activity from the miss stream (Appendix C.2).
type Stencil struct {
	name      string
	footprint uint64
	off       uint64
	phase     int
	every     int
	count     int
}

// NewStencil builds a stencil sweep over footprint bytes.
func NewStencil(footprint uint64, loadRatio float64) (*Stencil, error) {
	if footprint < 192 {
		return nil, fmt.Errorf("workloads: stencil needs at least 192 bytes")
	}
	return &Stencil{
		name:      fmt.Sprintf("stencil[fp=%d,load=%.2f]", footprint, loadRatio),
		footprint: footprint,
		every:     storeEvery(loadRatio),
	}, nil
}

// Name implements Generator.
func (s *Stencil) Name() string { return s.name }

// Next implements Generator.
func (s *Stencil) Next() Access {
	var va uint64
	switch s.phase {
	case 0: // left neighbour
		va = VABase + (s.off+s.footprint-64)%s.footprint
	case 1: // centre
		va = VABase + s.off
	default: // right neighbour, then advance
		va = VABase + (s.off+64)%s.footprint
		s.off = (s.off + 64) % s.footprint
	}
	s.phase = (s.phase + 1) % 3
	s.count++
	isLoad := s.every == 0 || s.count%s.every != 0
	return Access{VA: va, IsLoad: isLoad}
}

// RandomBurst picks a random page and issues a burst of accesses to it
// before jumping to another page — the object-access pattern (read many
// fields of one heap object, then chase to the next). Bursts are what
// exercise MMU MSHR merging: every access of a burst lands on the same
// page while its walk is outstanding, and with early paging-structure-cache
// lookup each merged request can miss the PDE cache, driving
// pde$_miss above causes_walk (the paper's §1 anomaly).
type RandomBurst struct {
	name      string
	footprint uint64
	burst     int
	every     int
	rng       *rand.Rand
	cur       uint64
	left      int
	count     int
}

// NewRandomBurst builds a burst-random generator: bursts of burstLen
// accesses to 64-byte-spaced addresses within one random 4 KB page.
func NewRandomBurst(footprint uint64, burstLen int, loadRatio float64, seed int64) (*RandomBurst, error) {
	if footprint < 4096 {
		return nil, fmt.Errorf("workloads: random burst needs at least one page")
	}
	if burstLen < 1 {
		return nil, fmt.Errorf("workloads: burst length must be positive")
	}
	return &RandomBurst{
		name: fmt.Sprintf("randburst[fp=%d,burst=%d,load=%.2f]",
			footprint, burstLen, loadRatio),
		footprint: footprint,
		burst:     burstLen,
		every:     storeEvery(loadRatio),
		rng:       rand.New(rand.NewSource(seed)),
	}, nil
}

// Name implements Generator.
func (r *RandomBurst) Name() string { return r.name }

// Next implements Generator.
func (r *RandomBurst) Next() Access {
	if r.left == 0 {
		pages := r.footprint / 4096
		r.cur = VABase + (r.rng.Uint64()%pages)*4096
		r.left = r.burst
	}
	off := uint64(r.rng.Intn(64)) * 64
	r.left--
	r.count++
	isLoad := r.every == 0 || r.count%r.every != 0
	return Access{VA: r.cur + off, IsLoad: isLoad}
}

// Phased alternates between two sub-generators with fixed phase lengths.
// Phase changes on a timescale comparable to the multiplexing quantum make
// per-slice counter rates non-stationary, which is what turns counter
// multiplexing into measurement noise (Figure 1c): an extrapolated counter
// sampled only during quiet phases under-reports, and vice versa.
type Phased struct {
	name string
	a, b Generator
	lenA int
	lenB int
	pos  int
}

// NewPhased interleaves lenA accesses from a with lenB accesses from b.
func NewPhased(a Generator, lenA int, b Generator, lenB int) (*Phased, error) {
	if lenA < 1 || lenB < 1 {
		return nil, fmt.Errorf("workloads: phase lengths must be positive")
	}
	return &Phased{
		name: fmt.Sprintf("phased[%s:%d|%s:%d]", a.Name(), lenA, b.Name(), lenB),
		a:    a, b: b, lenA: lenA, lenB: lenB,
	}, nil
}

// Name implements Generator.
func (p *Phased) Name() string { return p.name }

// Next implements Generator.
func (p *Phased) Next() Access {
	period := p.lenA + p.lenB
	inA := p.pos%period < p.lenA
	p.pos++
	if inA {
		return p.a.Next()
	}
	return p.b.Next()
}
