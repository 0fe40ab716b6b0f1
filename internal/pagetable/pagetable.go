// Package pagetable implements an x86-64-style four-level radix page table
// (PML4 → PDPT → PD → PT) with 4 KB, 2 MB and 1 GB mappings and per-entry
// accessed bits.
//
// The Haswell MMU simulator walks these tables exactly as a hardware page
// table walker would: one entry read per level, each read addressed by the
// physical address of the entry so the cache hierarchy (package memsim) can
// classify it into the walk_ref.{l1,l2,l3,mem} counters. Accessed bits
// matter because prefetch-induced walks abort when they encounter an entry
// whose accessed bit is unset (paper §7.1), while demand walks set it.
package pagetable

import "fmt"

// PageSize selects the translation granularity of a mapping.
type PageSize int

// Supported page sizes.
const (
	Page4K PageSize = 1 << 12
	Page2M PageSize = 1 << 21
	Page1G PageSize = 1 << 30
)

func (s PageSize) String() string {
	switch s {
	case Page4K:
		return "4K"
	case Page2M:
		return "2M"
	case Page1G:
		return "1G"
	}
	return fmt.Sprintf("PageSize(%d)", int(s))
}

// Levels returns how many page-table levels a walk for this page size
// traverses (the leaf entry's level): 4K → 4, 2M → 3, 1G → 2.
func (s PageSize) Levels() int {
	switch s {
	case Page4K:
		return 4
	case Page2M:
		return 3
	case Page1G:
		return 2
	}
	panic(fmt.Sprintf("pagetable: invalid page size %d", int(s)))
}

// Mask returns the page-offset mask.
func (s PageSize) Mask() uint64 { return uint64(s) - 1 }

const (
	entriesPerTable = 512
	entryBytes      = 8
	tableBytes      = entriesPerTable * entryBytes
)

// node is one 4 KB page-table page.
type node struct {
	phys     uint64 // physical base address of this table page
	children [entriesPerTable]*node
	leaf     [entriesPerTable]bool
	present  [entriesPerTable]bool
	accessed [entriesPerTable]bool
	target   [entriesPerTable]uint64 // leaf: physical frame base
}

// Table is a four-level page table with a bump physical-frame allocator.
type Table struct {
	root     *node
	nextPhys uint64
}

// New returns an empty table. Physical addresses for table pages and data
// frames are handed out by a bump allocator starting at physBase.
func New(physBase uint64) *Table {
	t := &Table{nextPhys: physBase &^ uint64(tableBytes-1)}
	t.root = t.newNode()
	return t
}

func (t *Table) newNode() *node {
	n := &node{phys: t.nextPhys}
	t.nextPhys += tableBytes
	return n
}

// indices extracts the 9-bit radix index for each level (level 0 = PML4).
func indices(va uint64) [4]int {
	return [4]int{
		int(va >> 39 & 0x1ff),
		int(va >> 30 & 0x1ff),
		int(va >> 21 & 0x1ff),
		int(va >> 12 & 0x1ff),
	}
}

// Map establishes a mapping of size s covering va, allocating intermediate
// tables as needed. Mapping is idempotent; remapping a region at a
// different size is an error (as it would be for a real OS).
func (t *Table) Map(va uint64, s PageSize) error {
	idx := indices(va)
	leafLevel := s.Levels() - 1 // 0-based level holding the leaf entry
	n := t.root
	for level := 0; level < leafLevel; level++ {
		i := idx[level]
		if n.present[i] {
			if n.leaf[i] {
				return fmt.Errorf("pagetable: va %#x already mapped as leaf at level %d", va, level)
			}
		} else {
			child := t.newNode()
			n.children[i] = child
			n.present[i] = true
		}
		n = n.children[i]
	}
	i := idx[leafLevel]
	if n.present[i] {
		if !n.leaf[i] {
			return fmt.Errorf("pagetable: va %#x already mapped at smaller size", va)
		}
		return nil
	}
	n.present[i] = true
	n.leaf[i] = true
	n.target[i] = t.nextPhys
	t.nextPhys += uint64(s)
	return nil
}

// EnsureMapped maps the page containing va at size s if not yet mapped.
func (t *Table) EnsureMapped(va uint64, s PageSize) {
	if err := t.Map(va&^s.Mask(), s); err != nil {
		// Map is idempotent for same-size remaps; a size conflict is a
		// simulator bug worth failing loudly on.
		panic(err)
	}
}

// Step describes one walker memory access during a walk: the level read
// (0 = PML4), the physical address of the entry, whether the entry was the
// leaf, and whether its accessed bit was already set before this walk.
type Step struct {
	Level       int
	EntryPhys   uint64
	Leaf        bool
	AccessedWas bool
	TargetPhys  uint64 // leaf steps: translated frame base
}

// Walk appends the sequence of entry reads for va to steps and returns it
// (a caller that walks on every access can pass one reused buffer). The
// walk starts at startLevel (0 = full walk from PML4; a
// paging-structure-cache hit lets the walker skip levels). setAccessed
// controls whether the walk sets accessed bits as it goes (demand walks
// do; prefetch walks must not). If abortOnUnaccessed is true the walk
// stops after reading the first entry whose accessed bit is unset
// (prefetch semantics), reporting ok=false.
//
// ok reports whether a complete translation was obtained.
func (t *Table) Walk(steps []Step, va uint64, startLevel int, setAccessed, abortOnUnaccessed bool) (_ []Step, ok bool) {
	idx := indices(va)
	n := t.root
	// Descend silently to startLevel (these levels were served by a
	// paging-structure cache and emit no memory references).
	for level := 0; level < startLevel; level++ {
		i := idx[level]
		if !n.present[i] || n.leaf[i] {
			// Cache claimed a hit for a prefix that does not exist or was a
			// leaf above startLevel; treat as a failed translation.
			return steps, false
		}
		n = n.children[i]
	}
	for level := startLevel; level < 4; level++ {
		i := idx[level]
		st := Step{
			Level:       level,
			EntryPhys:   n.phys + uint64(i*entryBytes),
			AccessedWas: n.accessed[i],
		}
		if !n.present[i] {
			// Page fault: the entry read still happened.
			steps = append(steps, st)
			return steps, false
		}
		st.Leaf = n.leaf[i]
		if n.leaf[i] {
			st.TargetPhys = n.target[i]
		}
		steps = append(steps, st)
		if abortOnUnaccessed && !n.accessed[i] {
			return steps, false
		}
		if setAccessed {
			n.accessed[i] = true
		}
		if n.leaf[i] {
			return steps, true
		}
		n = n.children[i]
	}
	return steps, false
}

// ClearAccessed clears every accessed bit (as an OS page-reclaim scan
// would), letting tests and workloads re-create the unset-accessed-bit
// conditions that abort prefetch walks.
func (t *Table) ClearAccessed() {
	var rec func(n *node)
	rec = func(n *node) {
		for i := 0; i < entriesPerTable; i++ {
			n.accessed[i] = false
			if n.present[i] && !n.leaf[i] {
				rec(n.children[i])
			}
		}
	}
	rec(t.root)
}
