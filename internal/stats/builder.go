package stats

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"math"
	"sync"

	"repro/internal/counters"
)

// RegionBuilder builds confidence regions with the χ² quantiles memoised,
// keyed by (confidence, degrees of freedom): the Newton/bisection
// inversion of the incomplete gamma function is identical for every
// observation over the same counter-set width.
//
// The builder keeps no finished regions. Callers that evaluate the same
// data repeatedly (the engine, whose model sweeps and refine loops test
// many models against one corpus) key their own cache by RegionDigest,
// which addresses a region by the content it is built from.
//
// A RegionBuilder is safe for concurrent use.
type RegionBuilder struct {
	mu  sync.RWMutex
	chi map[chiKey]float64
}

// chiCacheLimit bounds the retained χ² quantiles. The key includes the
// confidence level, which a service exposes to clients, so the cache must
// degrade to uncached computation rather than grow with adversarial
// distinct confidences.
const chiCacheLimit = 1 << 12

type chiKey struct {
	confidence float64
	df         int
}

// NewRegionBuilder returns an empty builder.
func NewRegionBuilder() *RegionBuilder {
	return &RegionBuilder{chi: make(map[chiKey]float64)}
}

// ChiSquareQuantile is the memoised form of the package-level function.
func (b *RegionBuilder) ChiSquareQuantile(confidence float64, df int) (float64, error) {
	k := chiKey{confidence, df}
	b.mu.RLock()
	q, ok := b.chi[k]
	b.mu.RUnlock()
	if ok {
		return q, nil
	}
	q, err := ChiSquareQuantile(confidence, df)
	if err != nil {
		return 0, err
	}
	b.mu.Lock()
	if len(b.chi) < chiCacheLimit {
		b.chi[k] = q
	}
	b.mu.Unlock()
	return q, nil
}

// RegionUncached builds the confidence region of o projected onto set
// (o's own set when set is nil), sharing the memoised χ² quantiles. The
// region's Set is always set itself, never o's, so a region built from a
// request payload retains nothing of the request.
func (b *RegionBuilder) RegionUncached(o *counters.Observation, set *counters.Set, confidence float64, mode NoiseMode) (*Region, error) {
	if set == nil {
		set = o.Set
	}
	proj := o
	if !o.Set.Equal(set) {
		proj = o.Project(set)
	}
	r, err := newRegion(proj, confidence, mode, b.ChiSquareQuantile)
	if err != nil {
		return nil, err
	}
	r.Set = set // equal to proj.Set, so the memoised key still holds
	return r, nil
}

// RegionDigest computes content keys for confidence regions. The zero
// value is ready to use; a RegionDigest reuses its hash state and scratch,
// so a caller holding one computes keys without allocating. Not safe for
// concurrent use.
type RegionDigest struct {
	h   hash.Hash
	buf [4096]byte
	n   int // bytes of buf not yet written to h
	sum [sha256.Size]byte
	idx []int
}

// Key returns the first 16 bytes of a SHA-256 over exactly what the
// region of o projected onto set (o's own set when set is nil) is built
// from: the set's events (each behind its length), the noise mode, the
// confidence, the sample count and the float64 bits of every projected
// sample, with counters o did not record reading 0 as Observation.Project
// fills them. Observations whose projections hold the same samples share
// a key whatever their labels or pointers, and any sample bit that
// differs changes it. The projection is read in place, never copied.
func (d *RegionDigest) Key(o *counters.Observation, set *counters.Set, confidence float64, mode NoiseMode) [16]byte {
	if set == nil {
		set = o.Set
	}
	if d.h == nil {
		d.h = sha256.New()
	}
	d.h.Reset()
	d.n = 0
	// idx[j] is the column of o holding set's j-th event, or -1.
	d.idx = d.idx[:0]
	same := o.Set.Equal(set)
	d.word(uint64(set.Len()))
	for j := 0; j < set.Len(); j++ {
		e := set.At(j)
		d.str(string(e))
		i, ok := j, same
		if !same {
			i, ok = o.Set.Index(e)
		}
		if !ok {
			i = -1
		}
		d.idx = append(d.idx, i)
	}
	d.word(uint64(mode))
	d.word(math.Float64bits(confidence))
	d.word(uint64(o.Len()))
	// One tight loop over every sample, the block buffer in locals: rows
	// are often only a few counters wide.
	buf, n := d.buf[:], d.n
	for _, row := range o.Samples {
		for _, i := range d.idx {
			x := 0.0
			if i >= 0 {
				x = row[i]
			}
			if n+8 > len(buf) {
				d.h.Write(buf[:n])
				n = 0
			}
			binary.LittleEndian.PutUint64(buf[n:], math.Float64bits(x))
			n += 8
		}
	}
	d.n = n
	d.flush()
	return [16]byte(d.h.Sum(d.sum[:0])[:16])
}

// word buffers one little-endian 64-bit word.
func (d *RegionDigest) word(bits uint64) {
	if d.n+8 > len(d.buf) {
		d.flush()
	}
	binary.LittleEndian.PutUint64(d.buf[d.n:], bits)
	d.n += 8
}

// str buffers s behind its length.
func (d *RegionDigest) str(s string) {
	d.word(uint64(len(s)))
	for len(s) > 0 {
		if d.n == len(d.buf) {
			d.flush()
		}
		k := copy(d.buf[d.n:], s)
		d.n += k
		s = s[k:]
	}
}

// flush hashes the buffered bytes.
func (d *RegionDigest) flush() {
	d.h.Write(d.buf[:d.n])
	d.n = 0
}
