package haswell

// tlbCache is a set-associative LRU TLB keyed by virtual page number.
type tlbCache struct {
	sets int
	ways int
	// entries is set-major: set s occupies entries[s*ways : (s+1)*ways].
	entries []tlbEntry
	clock   uint64
}

// tlbEntry is one way of a set; lru is the clock of its last use.
type tlbEntry struct {
	vpn   uint64
	lru   uint64
	valid bool
}

func newTLB(entries, ways int) *tlbCache {
	sets := entries / ways
	if sets < 1 {
		sets = 1
		ways = entries
	}
	return &tlbCache{sets: sets, ways: ways, entries: make([]tlbEntry, sets*ways)}
}

// set returns the ways of the set vpn maps to.
func (t *tlbCache) set(vpn uint64) []tlbEntry {
	s := int(vpn % uint64(t.sets))
	return t.entries[s*t.ways : (s+1)*t.ways]
}

// Lookup reports whether vpn is cached, updating LRU state on hit.
func (t *tlbCache) Lookup(vpn uint64) bool {
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

// Fill inserts vpn, evicting the LRU way.
func (t *tlbCache) Fill(vpn uint64) {
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
	ways[victim] = tlbEntry{vpn: vpn, lru: t.clock, valid: true}
}

// pscCache is a small fully-associative LRU paging-structure cache (PDE,
// PDPTE or PML4E cache) keyed by a virtual-address prefix.
type pscCache struct {
	cap   int
	tags  []uint64
	lru   []uint64
	clock uint64
}

func newPSC(entries int) *pscCache {
	return &pscCache{cap: entries}
}

// Lookup reports whether the prefix is cached.
func (c *pscCache) Lookup(prefix uint64) bool {
	c.clock++
	for i, t := range c.tags {
		if t == prefix {
			c.lru[i] = c.clock
			return true
		}
	}
	return false
}

// Fill inserts the prefix, evicting LRU if full.
func (c *pscCache) Fill(prefix uint64) {
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
