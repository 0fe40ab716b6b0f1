package memsim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The stamp-based caches below are the LRU the simulator used before the
// recency-ordered LRU replaced them: every way keeps the clock of its last
// use, a hit scans the set for the tag, and a miss scans it again for the
// smallest stamp. They are the reference the differential tests hold LRU
// to, access for access.

// stampCache is the old memsim.Cache: a miss fills the first invalid way
// after way 0, else the way with the smallest stamp.
type stampCache struct {
	sets     int
	ways     int
	lineBits uint
	setBits  uint
	lines    []stampLine
	clock    uint64
}

type stampLine struct {
	tag   uint64
	lru   uint64
	valid bool
}

func newStampCache(sizeBytes, ways, lineBytes int) *stampCache {
	sets := sizeBytes / lineBytes / ways
	c := &stampCache{sets: sets, ways: ways, lines: make([]stampLine, sets*ways)}
	for 1<<c.lineBits < lineBytes {
		c.lineBits++
	}
	for 1<<c.setBits < sets {
		c.setBits++
	}
	return c
}

func (c *stampCache) Access(addr uint64) bool {
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
	ways[victim] = stampLine{tag: tag, lru: c.clock, valid: true}
	return false
}

// stampTLB is the old haswell.tlbCache: any entry count, vpn modulo the
// set count, one fully associative set when entries < ways.
type stampTLB struct {
	sets    int
	ways    int
	entries []stampEntry
	clock   uint64
}

type stampEntry struct {
	vpn   uint64
	lru   uint64
	valid bool
}

func newStampTLB(entries, ways int) *stampTLB {
	sets := entries / ways
	if sets < 1 {
		sets = 1
		ways = entries
	}
	return &stampTLB{sets: sets, ways: ways, entries: make([]stampEntry, sets*ways)}
}

func (t *stampTLB) set(vpn uint64) []stampEntry {
	s := int(vpn % uint64(t.sets))
	return t.entries[s*t.ways : (s+1)*t.ways]
}

func (t *stampTLB) Lookup(vpn uint64) bool {
	ways := t.set(vpn)
	t.clock++
	for w := range ways {
		if ways[w].valid && ways[w].vpn == vpn {
			ways[w].lru = t.clock
			return true
		}
	}
	return false
}

func (t *stampTLB) Fill(vpn uint64) {
	ways := t.set(vpn)
	t.clock++
	victim := 0
	for w := range ways {
		if ways[w].valid && ways[w].vpn == vpn {
			ways[w].lru = t.clock
			return
		}
		if !ways[w].valid {
			victim = w
			break
		}
		if ways[w].lru < ways[victim].lru {
			victim = w
		}
	}
	ways[victim] = stampEntry{vpn: vpn, lru: t.clock, valid: true}
}

// stampPSC is the old haswell.pscCache: fully associative, appending
// until full, then evicting the smallest stamp.
type stampPSC struct {
	cap   int
	tags  []uint64
	lru   []uint64
	clock uint64
}

func (c *stampPSC) Lookup(prefix uint64) bool {
	c.clock++
	for i, t := range c.tags {
		if t == prefix {
			c.lru[i] = c.clock
			return true
		}
	}
	return false
}

func (c *stampPSC) Fill(prefix uint64) {
	c.clock++
	for i, t := range c.tags {
		if t == prefix {
			c.lru[i] = c.clock
			return
		}
	}
	if len(c.tags) < c.cap {
		c.tags = append(c.tags, prefix)
		c.lru = append(c.lru, c.clock)
		return
	}
	victim := 0
	for i := range c.lru {
		if c.lru[i] < c.lru[victim] {
			victim = i
		}
	}
	c.tags[victim] = prefix
	c.lru[victim] = c.clock
}

// keyStreams returns named key streams for a structure of sets sets of
// ways ways: seeded random keys over a few times its capacity, and
// adversarial ones that thrash one set, cycle through exactly its ways,
// ping-pong, repeat one key, or sit at the ends of the key range (0 is
// the key stored as 1, and 1<<64-2 the largest storable key).
func keyStreams(sets, ways int) map[string][]uint64 {
	const n = 4000
	capacity := uint64(sets * ways)
	rng := rand.New(rand.NewSource(int64(sets*1000 + ways)))
	out := map[string][]uint64{}
	add := func(name string, f func(i int) uint64) {
		s := make([]uint64, n)
		for i := range s {
			s[i] = f(i)
		}
		out[name] = s
	}
	add("random-2x", func(int) uint64 { return uint64(rng.Int63n(int64(2*capacity + 1))) })
	add("random-8x", func(int) uint64 { return uint64(rng.Int63n(int64(8*capacity + 1))) })
	add("random-wide", func(int) uint64 { return rng.Uint64() >> uint(rng.Intn(64)) })
	// Keys k*sets map to set 0 under both modulo and mask indexing.
	add("one-set-cycle-ways", func(i int) uint64 { return uint64(i%ways) * uint64(sets) })
	add("one-set-cycle-ways+1", func(i int) uint64 { return uint64(i%(ways+1)) * uint64(sets) })
	add("one-set-random", func(int) uint64 { return uint64(rng.Intn(2*ways+1)) * uint64(sets) })
	add("ping-pong", func(i int) uint64 { return uint64(i%2) * uint64(sets) })
	add("repeat", func(int) uint64 { return 7 })
	add("mru-then-sweep", func(i int) uint64 {
		if i%3 == 0 {
			return 0
		}
		return uint64(i) * uint64(sets)
	})
	add("range-ends", func(i int) uint64 {
		if i%2 == 0 {
			return uint64(rng.Intn(ways + 2))
		}
		return math.MaxUint64 - 1 - uint64(rng.Intn(ways+2))
	})
	return out
}

// TestLRUMatchesStampCache drives Cache and the stamp-based cache with
// the same addresses over 1-, 2-, 8- and 16-way geometries (and the
// Haswell levels) and requires the same hit or miss on every access.
func TestLRUMatchesStampCache(t *testing.T) {
	for _, g := range []struct{ size, ways, line int }{
		{1024, 1, 64}, {4096, 2, 64}, {32 << 10, 8, 64}, {64 << 10, 16, 64},
		{256, 16, 16}, {256 << 10, 8, 64}, {2 << 20, 16, 64},
	} {
		sets := g.size / g.line / g.ways
		for name, keys := range keyStreams(sets, g.ways) {
			t.Run(fmt.Sprintf("%dB-%dway-%dB/%s", g.size, g.ways, g.line, name), func(t *testing.T) {
				got, err := NewCache(g.size, g.ways, g.line)
				if err != nil {
					t.Fatal(err)
				}
				want := newStampCache(g.size, g.ways, g.line)
				for i, k := range keys {
					// Keys are line numbers, placed at a varying offset
					// within the line, which must not matter; keys too
					// wide to shift are used as addresses.
					addr := k<<want.lineBits | uint64(i)%uint64(g.line)
					if k>>(64-want.lineBits) != 0 {
						addr = k
					}
					if h, w := got.Access(addr), want.Access(addr); h != w {
						t.Fatalf("access %d (addr %#x): hit %v, reference %v", i, addr, h, w)
					}
				}
			})
		}
	}
}

// TestLRUMatchesStampTLB checks NewLRU against the stamp-based TLB on
// interleaved lookups and fills, over power-of-two and other set counts
// and the entries < ways fallback to one fully associative set.
func TestLRUMatchesStampTLB(t *testing.T) {
	for _, g := range []struct{ entries, ways int }{
		{64, 4}, {1024, 8}, {24, 4}, {36, 4}, {7, 1}, {3, 4}, {1, 8},
	} {
		sets, ways := g.entries/g.ways, g.ways
		if sets < 1 {
			sets, ways = 1, g.entries
		}
		for name, keys := range keyStreams(sets, ways) {
			t.Run(fmt.Sprintf("%d-entry-%dway/%s", g.entries, g.ways, name), func(t *testing.T) {
				got, want := NewLRU(g.entries, g.ways), newStampTLB(g.entries, g.ways)
				compareLookupFill(t, keys, got, want)
			})
		}
	}
}

// TestLRUMatchesStampPSC checks a fully associative NewLRU(n, n) against
// the stamp-based paging-structure cache for capacities 1, 2 and 32.
func TestLRUMatchesStampPSC(t *testing.T) {
	for _, n := range []int{1, 2, 32} {
		for name, keys := range keyStreams(1, n) {
			t.Run(fmt.Sprintf("%d-entry/%s", n, name), func(t *testing.T) {
				compareLookupFill(t, keys, NewLRU(n, n), &stampPSC{cap: n})
			})
		}
	}
}

type lookupFiller interface {
	Lookup(uint64) bool
	Fill(uint64)
}

// compareLookupFill looks every key up and, on a miss, fills it with
// probability 3/4, the way the walker fills after a miss; every eighth
// access also fills a hit key again, as the STLB does for a prefetched
// page. Every lookup must agree with the reference, and Fill's hit
// report with the lookup just before it.
func compareLookupFill(t *testing.T, keys []uint64, got *LRU, want lookupFiller) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(len(keys))))
	for i, k := range keys {
		h, w := got.Lookup(k), want.Lookup(k)
		if h != w {
			t.Fatalf("lookup %d (key %#x): hit %v, reference %v", i, k, h, w)
		}
		if (!h && rng.Intn(4) != 0) || (h && i%8 == 0) {
			if resident := got.Fill(k); resident != h {
				t.Fatalf("fill %d (key %#x): reported resident %v after lookup hit %v", i, k, resident, h)
			}
			want.Fill(k)
		}
	}
}
