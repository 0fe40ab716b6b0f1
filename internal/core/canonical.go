package core

// Content-addressed LP identity. Canonicalizing a feasibility LP to a
// deterministic byte encoding — primitive integer rows in a stable order
// — gives every LP a content hash that survives serialization boundaries:
// two Problems built independently (different pointers, different row
// order, scaled rows) hash equal exactly when they denote the same
// constraint system. The engine keys its verdict cache on this hash, and
// internal/perfdb persists verdicts under it, so cache hits outlive a
// counterpointd restart and can be shared across future distributed
// workers (ROADMAP).
//
// Canonical form clp2, binary, every integer little-endian:
//
//	"clp2"
//	u64 NumVars
//	u64 0 (free-variable count: every variable is non-negative)
//	u8 0 (objective tag: every LP is a pure feasibility question)
//	rows, narrow ones first, each group sorted and deduplicated:
//	   narrow: int64 tag (0 le, 1 eq), then NumVars+1 int64 words
//	   wide:   int64 tag (2 le, 3 eq), then NumVars+1 big integers
//
// A big integer is a u8 sign (0 non-negative, 1 negative), a u32 byte
// count and the magnitude's bytes, big-endian. A row is the problem's
// primitive integer row (coefficients, then the right-hand side; see
// simplex.Problem.IntRow), with GE rows negated onto LE and EQ rows
// negated when their first non-zero entry is negative — all equivalence
// transformations of the feasible set. A row is narrow when every entry
// fits int64, which depends only on its values. The hash is SHA-256 over
// the encoding.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/big"
	"slices"
	"sort"
	"sync"

	"repro/internal/simplex"
)

// LPHash is the SHA-256 of an LP's canonical encoding.
type LPHash [32]byte

// String returns the hash in hex.
func (h LPHash) String() string { return hex.EncodeToString(h[:]) }

// Row tags of the clp2 encoding.
const (
	tagLE   = 0
	tagEQ   = 1
	tagWide = 2 // added to tagLE/tagEQ for a wide row
)

// lpEncoder is the pooled scratch of one encoding: the narrow canonical
// rows (tag, then entries) in one flat slice, their sort order, and the
// rare wide rows.
type lpEncoder struct {
	buf   []byte
	rows  []int64
	width int // words per narrow row: the tag and NumVars+1 entries
	order []int32
	wide  []wideCanon
}

// wideCanon is a canonical row with an entry outside int64.
type wideCanon struct {
	tag int64
	a   []*big.Int
}

var encoders = sync.Pool{New: func() any { return new(lpEncoder) }}

// HashLP returns the content hash of p's canonical form.
func HashLP(p *simplex.Problem) LPHash {
	e := encoders.Get().(*lpEncoder)
	e.encode(p)
	h := sha256.Sum256(e.buf)
	encoders.Put(e)
	return h
}

func (e *lpEncoder) Len() int      { return len(e.order) }
func (e *lpEncoder) Swap(i, j int) { e.order[i], e.order[j] = e.order[j], e.order[i] }
func (e *lpEncoder) Less(i, j int) bool {
	return slices.Compare(e.row(e.order[i]), e.row(e.order[j])) < 0
}

func (e *lpEncoder) row(k int32) []int64 {
	return e.rows[int(k)*e.width : int(k+1)*e.width]
}

// encode writes p's canonical encoding into e.buf.
func (e *lpEncoder) encode(p *simplex.Problem) {
	n := p.NumVars
	e.width = n + 2
	e.rows = e.rows[:0]
	e.order = e.order[:0]
	e.wide = e.wide[:0]
	for i := range p.Constraints {
		e.addRow(p, i)
	}
	sort.Sort(e)

	b := append(e.buf[:0], "clp2"...)
	b = binary.LittleEndian.AppendUint64(b, uint64(n))
	// The free-variable count and the objective tag are always zero. They
	// stay in the layout because stored verdicts (-verdict-db) are keyed
	// by hashes of it.
	b = binary.LittleEndian.AppendUint64(b, 0)
	b = append(b, 0)
	var prev []int64
	for _, k := range e.order {
		r := e.row(k)
		if slices.Equal(r, prev) {
			continue // duplicate constraints denote one half-space
		}
		prev = r
		for _, x := range r {
			b = binary.LittleEndian.AppendUint64(b, uint64(x))
		}
	}
	if len(e.wide) > 0 {
		slices.SortFunc(e.wide, cmpWide)
		for i, w := range e.wide {
			if i > 0 && cmpWide(w, e.wide[i-1]) == 0 {
				continue
			}
			b = binary.LittleEndian.AppendUint64(b, uint64(w.tag))
			for _, x := range w.a {
				b = appendBig(b, x)
			}
		}
	}
	e.buf = b
}

// addRow appends constraint i in canonical form: as a narrow row when
// every entry fits int64, otherwise to the wide rows.
func (e *lpEncoder) addRow(p *simplex.Problem, i int) {
	rel := p.Constraints[i].Rel
	tag := int64(tagLE)
	if rel == simplex.EQ {
		tag = tagEQ
	}
	a, _, ok := p.IntRow(i)
	if !ok {
		ba, _ := p.BigIntRow(i)
		if a, ok = int64Entries(ba); !ok {
			w := wideCanon{tag: tag + tagWide, a: ba}
			if canonNegate(rel, len(ba), func(j int) int { return ba[j].Sign() }) {
				w.a = make([]*big.Int, len(ba))
				for j, x := range ba {
					w.a[j] = new(big.Int).Neg(x)
				}
			}
			e.wide = append(e.wide, w)
			return
		}
	}
	neg := canonNegate(rel, len(a), func(j int) int { return sign64(a[j]) })
	k := len(e.order)
	e.rows = append(e.rows, tag)
	e.rows = append(e.rows, a...)
	if neg {
		for j := k*e.width + 1; j < len(e.rows); j++ {
			e.rows[j] = -e.rows[j] // no MinInt64 entries
		}
	}
	e.order = append(e.order, int32(k))
}

// int64Entries converts a wide row's entries when each fits int64 (and is
// not MinInt64): a row whose scale alone is wide is narrow by value.
func int64Entries(ba []*big.Int) ([]int64, bool) {
	a := make([]int64, len(ba))
	for j, x := range ba {
		if !x.IsInt64() || x.Int64() == math.MinInt64 {
			return nil, false
		}
		a[j] = x.Int64()
	}
	return a, true
}

// canonNegate reports whether a row of n entries with relation rel is
// negated in canonical form: GE rows always (onto LE), EQ rows when their
// first non-zero entry is negative.
func canonNegate(rel simplex.Rel, n int, sign func(j int) int) bool {
	switch rel {
	case simplex.GE:
		return true
	case simplex.EQ:
		for j := 0; j < n; j++ {
			if s := sign(j); s != 0 {
				return s < 0
			}
		}
	}
	return false
}

func sign64(x int64) int {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	}
	return 0
}

// cmpWide orders wide canonical rows by tag, then entries.
func cmpWide(a, b wideCanon) int {
	if a.tag != b.tag {
		if a.tag < b.tag {
			return -1
		}
		return 1
	}
	for j := range a.a {
		if c := a.a[j].Cmp(b.a[j]); c != 0 {
			return c
		}
	}
	return 0
}

// appendBig appends x as a big integer of the encoding.
func appendBig(b []byte, x *big.Int) []byte {
	var sign byte
	if x.Sign() < 0 {
		sign = 1
	}
	size := (x.BitLen() + 7) / 8
	b = append(b, sign)
	b = binary.LittleEndian.AppendUint32(b, uint32(size))
	b = slices.Grow(b, size)[:len(b)+size]
	x.FillBytes(b[len(b)-size:])
	return b
}
