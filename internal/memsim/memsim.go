// Package memsim simulates a set-associative write-allocate cache hierarchy
// (L1/L2/L3) with LRU replacement.
//
// Its sole job in this reproduction is to classify page-table-walker memory
// references into the Haswell Refs counter group: walk_ref.l1, walk_ref.l2,
// walk_ref.l3 and walk_ref.mem record at which level of the data-cache
// hierarchy each walker load was served (Table 2: page_walker_loads.*).
// Regular program accesses also flow through the hierarchy so that walker
// entries compete with data for capacity, as on real hardware.
package memsim

import (
	"fmt"
	"math/bits"
)

// Level identifies where an access was served.
type Level int

// Hierarchy levels.
const (
	L1 Level = iota
	L2
	L3
	Mem
)

func (l Level) String() string {
	switch l {
	case L1:
		return "L1"
	case L2:
		return "L2"
	case L3:
		return "L3"
	case Mem:
		return "Mem"
	}
	return "?"
}

// LRU is a set-associative array of keys with least-recently-used
// replacement: the caches here, and the simulated TLBs and
// paging-structure caches. Each set lists its resident keys most recent
// first, each stored as key+1 so that a zero is an empty way; empty ways
// only ever trail the resident keys, so a set needs no initialising
// beyond make. A hit moves its key to the front, and a fill on a miss
// shifts the resident keys down one way, dropping the least recently used
// key once the set is full, and writes the key at the front. Nothing is ever invalidated, so this is exact LRU.
// Keys must be below 1<<64-1.
type LRU struct {
	sets uint64
	mask uint64 // sets-1 when sets is a power of two, which skips the division
	ways int
	// tags is set-major: set s occupies tags[s*ways : (s+1)*ways].
	tags []uint64
}

// NewLRU builds an LRU of entries keys in sets of ways, indexed by key
// modulo the set count. With fewer entries than ways it is one fully
// associative set of entries keys.
func NewLRU(entries, ways int) *LRU {
	sets := entries / ways
	if sets < 1 {
		sets = 1
		ways = entries
	}
	l := &LRU{sets: uint64(sets), ways: ways, tags: make([]uint64, sets*ways)}
	if sets&(sets-1) == 0 {
		l.mask = uint64(sets) - 1
	}
	return l
}

// set returns the ways of the set key maps to.
func (l *LRU) set(key uint64) []uint64 {
	s := key & l.mask
	if l.mask+1 != l.sets {
		s = key % l.sets
	}
	i := int(s) * l.ways
	return l.tags[i : i+l.ways]
}

// Lookup reports whether key is resident, moving it to the front of its
// set on a hit.
func (l *LRU) Lookup(key uint64) bool {
	ways, k := l.set(key), key+1
	p, hit := find(ways, k)
	if hit {
		promote(ways, p, k)
	}
	return hit
}

// Fill makes key the most recently used key of its set, inserting it on
// a miss, and reports whether it was already resident.
func (l *LRU) Fill(key uint64) bool {
	ways, k := l.set(key), key+1
	p, hit := find(ways, k)
	promote(ways, p, k)
	return hit
}

// find returns the way holding the stored key k, or on a miss the way a
// fill overwrites: the first empty way, else the last, least recently
// used one.
func find(ways []uint64, k uint64) (int, bool) {
	for p, t := range ways {
		if t == k {
			return p, true
		}
		if t == 0 {
			return p, false
		}
	}
	return len(ways) - 1, false
}

// promote shifts ways[:p] down one way, over way p, and writes k at the
// front.
func promote(ways []uint64, p int, k uint64) {
	copy(ways[1:p+1], ways[:p])
	ways[0] = k
}

// Cache is one set-associative LRU cache level, keyed by line number.
type Cache struct {
	lineBits uint
	lines    *LRU
}

// NewCache builds a cache of sizeBytes with the given associativity and
// line size (both powers of two).
func NewCache(sizeBytes, ways, lineBytes int) (*Cache, error) {
	if sizeBytes <= 0 || ways <= 0 || lineBytes <= 0 {
		return nil, fmt.Errorf("memsim: non-positive cache geometry")
	}
	if lineBytes&(lineBytes-1) != 0 {
		return nil, fmt.Errorf("memsim: line size %d not a power of two", lineBytes)
	}
	lines := sizeBytes / lineBytes
	sets := lines / ways
	if sets == 0 || sets*ways*lineBytes != sizeBytes {
		return nil, fmt.Errorf("memsim: geometry %dB/%dway/%dB does not tile", sizeBytes, ways, lineBytes)
	}
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("memsim: set count %d not a power of two", sets)
	}
	return &Cache{
		lineBits: uint(bits.TrailingZeros(uint(lineBytes))),
		lines:    NewLRU(lines, ways),
	}, nil
}

// Access looks up addr, filling on miss, and reports whether it hit.
func (c *Cache) Access(addr uint64) bool {
	return c.lines.Fill(addr >> c.lineBits)
}

// Hierarchy is an inclusive three-level cache hierarchy.
type Hierarchy struct {
	l1, l2, l3 *Cache
}

// HierarchyConfig sizes each level.
type HierarchyConfig struct {
	L1Bytes, L1Ways int
	L2Bytes, L2Ways int
	L3Bytes, L3Ways int
	LineBytes       int
}

// HaswellConfig mirrors the Xeon E5-2680 v3 data-cache hierarchy used in
// the paper's testbed (32 KB L1D, 256 KB L2, shared L3 scaled down to a
// single core's slice to keep simulation memory modest).
func HaswellConfig() HierarchyConfig {
	return HierarchyConfig{
		L1Bytes: 32 << 10, L1Ways: 8,
		L2Bytes: 256 << 10, L2Ways: 8,
		L3Bytes: 2 << 20, L3Ways: 16,
		LineBytes: 64,
	}
}

// NewHierarchy builds the three levels.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	l1, err := NewCache(cfg.L1Bytes, cfg.L1Ways, cfg.LineBytes)
	if err != nil {
		return nil, fmt.Errorf("memsim: L1: %w", err)
	}
	l2, err := NewCache(cfg.L2Bytes, cfg.L2Ways, cfg.LineBytes)
	if err != nil {
		return nil, fmt.Errorf("memsim: L2: %w", err)
	}
	l3, err := NewCache(cfg.L3Bytes, cfg.L3Ways, cfg.LineBytes)
	if err != nil {
		return nil, fmt.Errorf("memsim: L3: %w", err)
	}
	return &Hierarchy{l1: l1, l2: l2, l3: l3}, nil
}

// MustHierarchy is NewHierarchy for statically known-good configs.
func MustHierarchy(cfg HierarchyConfig) *Hierarchy {
	h, err := NewHierarchy(cfg)
	if err != nil {
		panic(err)
	}
	return h
}

// Access performs a load/store at addr, filling all levels on the way down,
// and returns the level that served it.
func (h *Hierarchy) Access(addr uint64) Level {
	lvl := Mem
	switch {
	case h.l1.Access(addr):
		lvl = L1
	case h.l2.Access(addr):
		lvl = L2
	case h.l3.Access(addr):
		lvl = L3
	}
	return lvl
}
