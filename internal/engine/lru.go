package engine

// lruCache is a bounded map with least-recently-used eviction, so the hot
// set stays live however much one-shot traffic passes through. Entries
// live in one slice, linked by index into a ring headed by the most
// recently used; a full cache reuses the evicted slot, so inserts do not
// allocate and the collector scans one array rather than two objects per
// entry. Not safe for concurrent use — each cache sits behind its owner's
// mutex.
type lruCache[K comparable, V any] struct {
	limit     int
	items     map[K]int32 // key → index into ents
	ents      []lruEntry[K, V]
	head      int32
	evictions uint64
}

type lruEntry[K comparable, V any] struct {
	key        K
	val        V
	prev, next int32
}

// newLRU returns a cache holding at most limit entries (limit ≥ 1).
func newLRU[K comparable, V any](limit int) *lruCache[K, V] {
	return &lruCache[K, V]{limit: max(limit, 1), items: make(map[K]int32)}
}

// Get returns the value for k, marking it most recently used.
func (c *lruCache[K, V]) Get(k K) (V, bool) {
	if i, ok := c.items[k]; ok {
		c.touch(i)
		return c.ents[i].val, true
	}
	var zero V
	return zero, false
}

// Add inserts (k, v), evicting the least recently used entry when the
// cache is full. If k is already present its existing value is kept and
// returned — first writer wins, so concurrent builders converge on one
// shared instance.
func (c *lruCache[K, V]) Add(k K, v V) V {
	if i, ok := c.items[k]; ok {
		c.touch(i)
		return c.ents[i].val
	}
	var i int32
	if len(c.ents) < c.limit {
		i = int32(len(c.ents))
		c.ents = append(c.ents, lruEntry[K, V]{prev: i, next: i})
	} else {
		i = c.ents[c.head].prev // the ring's tail: least recently used
		delete(c.items, c.ents[i].key)
		c.evictions++
	}
	c.ents[i].key, c.ents[i].val = k, v
	c.items[k] = i
	c.touch(i)
	return v
}

// touch moves entry i to the head (unlinking a fresh, self-linked entry is a no-op).
func (c *lruCache[K, V]) touch(i int32) {
	if i == c.head {
		return
	}
	e := &c.ents[i]
	c.ents[e.prev].next = e.next
	c.ents[e.next].prev = e.prev
	h := &c.ents[c.head]
	e.prev, e.next = h.prev, c.head
	c.ents[h.prev].next = i
	h.prev = i
	c.head = i
}

// Len reports the current entry count.
func (c *lruCache[K, V]) Len() int { return len(c.items) }

// Evictions reports how many entries have been evicted since creation.
func (c *lruCache[K, V]) Evictions() uint64 { return c.evictions }
