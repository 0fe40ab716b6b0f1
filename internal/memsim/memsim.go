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

// Cache is one set-associative LRU cache level.
type Cache struct {
	sets     int
	ways     int
	lineBits uint
	setBits  uint // log2(sets): the tag is the line number above the set index
	// lines is set-major: set s occupies lines[s*ways : (s+1)*ways].
	lines []line
	clock uint64
}

// line is one way of a set; lru is the clock of its last use (higher =
// more recent).
type line struct {
	tag   uint64
	lru   uint64
	valid bool
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
		sets:     sets,
		ways:     ways,
		lineBits: uint(bits.TrailingZeros(uint(lineBytes))),
		setBits:  uint(bits.TrailingZeros(uint(sets))),
		lines:    make([]line, sets*ways),
	}, nil
}

// Access looks up addr, filling on miss, and reports whether it hit.
func (c *Cache) Access(addr uint64) bool {
	ln := addr >> c.lineBits
	set := int(ln) & (c.sets - 1)
	tag := ln >> c.setBits
	c.clock++
	ways := c.lines[set*c.ways : (set+1)*c.ways]
	for w := range ways {
		if ways[w].valid && ways[w].tag == tag {
			ways[w].lru = c.clock
			return true
		}
	}
	// Miss: fill the first invalid way after way 0, else the LRU way.
	victim := 0
	for w := 1; w < len(ways); w++ {
		if !ways[w].valid {
			victim = w
			break
		}
		if ways[w].lru < ways[victim].lru {
			victim = w
		}
	}
	ways[victim] = line{tag: tag, lru: c.clock, valid: true}
	return false
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
