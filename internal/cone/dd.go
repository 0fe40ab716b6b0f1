package cone

import (
	"fmt"

	"math/big"
	"math/bits"

	"repro/internal/exact"
)

// bitset is a fixed-width bit vector over processed inequality indices.
// Replacing the former map[int]bool tight sets, it makes the adjacency
// pre-test one AND+popcount sweep and set union one OR sweep.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i>>6] |= 1 << uint(i&63) }
func (b bitset) has(i int) bool { return b[i>>6]&(1<<uint(i&63)) != 0 }

// empty reports whether no bit is set.
func (b bitset) empty() bool {
	for _, w := range b {
		if w != 0 {
			return false
		}
	}
	return true
}

// subsetOf reports whether every bit of b is set in c.
func (b bitset) subsetOf(c bitset) bool {
	for i, w := range b {
		if w&^c[i] != 0 {
			return false
		}
	}
	return true
}

func (b bitset) or(c bitset) {
	for i := range b {
		b[i] |= c[i]
	}
}

// andCount returns |b ∩ c|.
func andCount(b, c bitset) int {
	n := 0
	for i := range b {
		n += bits.OnesCount64(b[i] & c[i])
	}
	return n
}

// appendAnd appends the indices of b ∩ c to out.
func appendAnd(b, c bitset, out []int) []int {
	for w := range b {
		word := b[w] & c[w]
		base := w << 6
		for word != 0 {
			out = append(out, base+bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
	return out
}

// ddRay is one ray in the double-description state: a GCD-normalised
// integer vector carried in the int64 kernel representation (iv) whenever
// it fits, with a per-ray *big.Rat fallback (bv) otherwise. tight records
// which processed inequality indices are tight (=0) at the ray, driving
// the combinatorial adjacency test. Lineality directions use the same
// representation with no tight set.
type ddRay struct {
	iv    []int64   // normalised integer entries; nil when the ray is wide
	bv    exact.Vec // big fallback (normalised integral); nil when iv != nil
	tight bitset
}

// vec materialises the ray as a big.Rat vector.
func (r *ddRay) vec() exact.Vec {
	if r.iv != nil {
		return exact.Vec64{Num: r.iv, Den: 1}.Vec()
	}
	return r.bv
}

// neg returns the opposite direction.
func (r *ddRay) neg() ddRay {
	if r.iv != nil {
		iv := make([]int64, len(r.iv))
		for i, x := range r.iv {
			iv[i] = -x
		}
		return ddRay{iv: iv, tight: r.tight}
	}
	return ddRay{bv: r.bv.Scale(big.NewRat(-1, 1)), tight: r.tight}
}

// key returns the deduplication key; int64 and wide rays of equal value
// produce equal keys (both print normalised integers).
func (r *ddRay) key() string {
	if r.iv != nil {
		return exact.Vec64{Num: r.iv, Den: 1}.Key()
	}
	return r.bv.Key()
}

// rayFromVec normalises v and stores it in the kernel representation when
// every entry fits int64.
func rayFromVec(v exact.Vec, tight bitset) ddRay {
	n := v.NormalizeIntegral()
	if v64, ok := exact.Vec64FromVec(n); ok {
		return ddRay{iv: v64.Num, tight: tight}
	}
	return ddRay{bv: n, tight: tight}
}

// ddMaxRays bounds intermediate double-description growth.
const ddMaxRays = 200000

// ddY is one processed hyperplane normal y, held as a positive multiple:
// the int64 common-denominator form iv used for kernel arithmetic, and
// the big.Rat form v, built on first use when iv is set. Only signs and
// combinations whose direction is all that counts are consumed, so the
// positive scale never matters.
type ddY struct {
	v  exact.Vec
	iv []int64 // nil when wide
}

// newDDY wraps an exact normal, converting it to the kernel form when it
// fits.
func newDDY(y exact.Vec) ddY {
	out := ddY{v: y}
	if v64, ok := exact.Vec64FromVec(y); ok {
		out.iv = v64.Num
	}
	return out
}

// vec returns the big.Rat form, materialising it from iv on first use.
func (y *ddY) vec() exact.Vec {
	if y.v == nil {
		y.v = exact.Vec64{Num: y.iv, Den: 1}.Vec()
	}
	return y.v
}

// dotSign classifies ray r against y: the sign of r·y. The kernel path is
// an overflow-checked integer dot product (positive denominators cannot
// change the sign); any overflow or wide operand falls back to big.Rat.
func (y *ddY) dotSign(r *ddRay) int {
	if r.iv != nil && y.iv != nil {
		if s, ok := (exact.Vec64{Num: r.iv, Den: 1}).IntDotSign(y.iv); ok {
			return s
		}
	}
	return r.vec().Dot(y.vec()).Sign()
}

// intDot returns the integer dot product Σ r.iv[i]·y.iv[i], ok=false on
// overflow or wide operands. The true r·y is this over y's (positive)
// scale; combinations only need the numerator (a positive rescale of
// the combined ray, which GCD normalisation removes anyway).
func (y *ddY) intDot(r *ddRay) (int64, bool) {
	if r.iv == nil || y.iv == nil {
		return 0, false
	}
	return dot64(r.iv, y.iv)
}

// combineRays builds the ray w = (p·y)·n − (n·y)·p, GCD-normalised, on
// the hyperplane a·y = 0: for an adjacent (pos, neg) pair it is the new
// hyperplane ray, and with n a lineality direction strictly inside the
// half-space (n·y < 0) it is p projected onto the hyperplane, a positive
// multiple of p + (p·y)/|n·y|·n. The kernel path combines the integer
// forms with overflow-checked arithmetic (y's positive scale drops out
// under normalisation); overflow or wide operands fall back to exact
// big.Rat arithmetic for this pair only. ok is false when w is zero.
func combineRays(p, n *ddRay, y *ddY, tight bitset) (ddRay, bool) {
	if sp, ok := y.intDot(p); ok {
		if sn, ok := y.intDot(n); ok {
			if w, ok := exact.LinComb64(sp, n.iv, sn, p.iv); ok {
				if allZero(w) {
					return ddRay{}, false
				}
				return ddRay{iv: w, tight: tight}, true
			}
		}
	}
	// Big fallback for this pair.
	pv, nv := p.vec(), n.vec()
	pd := pv.Dot(y.vec())
	nd := nv.Dot(y.vec())
	w := nv.Scale(pd)
	negnd := new(big.Rat).Neg(nd)
	w.AddScaled(negnd, pv)
	w = w.NormalizeIntegral()
	if w.IsZero() {
		return ddRay{}, false
	}
	r := rayFromVec(w, tight)
	return r, true
}

func allZero(xs []int64) bool {
	for _, x := range xs {
		if x != 0 {
			return false
		}
	}
	return true
}

// dualExtremeRays computes the extreme rays of the dual cone
//
//	D = { a ∈ ℝ^d : a·y ≤ 0 for every y in ys }
//
// with the double description (Motzkin) method over exact rationals: int64
// kernel arithmetic on GCD-normalised integer rays and lineality
// directions, promoting to big.Rat per ray (and per combination) on
// overflow.
//
// Preconditions: the ys span ℝ^d (guaranteed by the caller, which works in
// row-space coordinates), so D is pointed and the final state carries no
// lineality. The returned rays are GCD-normalised and minimal (each verified
// non-redundant by an LP decided on h), and are exactly the facet normals
// of cone(ys).
func dualExtremeRays(h *hullSolver, ys []ddY, d int) ([]ddRay, error) {
	if d == 0 {
		return nil, nil
	}

	// State: lineality basis L and rays R, all satisfying the inequalities
	// processed so far.
	lineality := make([]ddRay, d)
	for i := range lineality {
		lineality[i].iv = make([]int64, d)
		lineality[i].iv[i] = 1
	}
	var rays []ddRay
	var adj adjScratch

	for mi := range ys {
		y := &ys[mi]
		// 1. If some lineality direction violates the hyperplane, pivot it
		// out: oriented so that l0·y < 0 it becomes the unique ray strictly
		// inside the half-space, and everything else is projected onto the
		// hyperplane a·y = 0.
		pivot, sign := -1, 0
		for li := range lineality {
			if sign = y.dotSign(&lineality[li]); sign != 0 {
				pivot = li
				break
			}
		}
		if pivot >= 0 {
			l0 := lineality[pivot]
			lineality = append(lineality[:pivot], lineality[pivot+1:]...)
			if sign > 0 {
				l0 = l0.neg()
			}
			lineality = projectRays(lineality, &l0, y, -1)
			rays = projectRays(rays, &l0, y, mi)
			// l0 came from the lineality space, so it satisfies every
			// previously processed constraint with equality and the new one
			// strictly.
			l0.tight = newBitset(len(ys))
			for k := 0; k < mi; k++ {
				l0.tight.set(k)
			}
			rays = append(rays, l0)
			continue
		}

		// 2. Lineality is entirely on the hyperplane; classify rays by sign
		// (one pass), then split into pre-sized groups.
		signs := make([]int8, len(rays))
		var nNeg, nZero, nPos int
		for i := range rays {
			switch y.dotSign(&rays[i]) {
			case -1:
				signs[i] = -1
				nNeg++
			case 0:
				signs[i] = 0
				nZero++
			case 1:
				signs[i] = 1
				nPos++
			}
		}
		if nPos == 0 {
			kept := make([]ddRay, 0, nNeg+nZero)
			for i := range rays {
				if signs[i] == 0 {
					rays[i].tight.set(mi)
				}
				kept = append(kept, rays[i])
			}
			rays = dedupeRays(kept)
			continue
		}
		neg := make([]ddRay, 0, nNeg)
		zero := make([]ddRay, 0, nZero)
		pos := make([]ddRay, 0, nPos)
		for i := range rays {
			switch signs[i] {
			case -1:
				neg = append(neg, rays[i])
			case 0:
				rays[i].tight.set(mi)
				zero = append(zero, rays[i])
			case 1:
				pos = append(pos, rays[i])
			}
		}
		next := make([]ddRay, 0, nNeg+nZero+nPos)
		next = append(next, neg...)
		next = append(next, zero...)
		// Combine adjacent (pos, neg) pairs into new hyperplane rays.
		for pi := range pos {
			for ni := range neg {
				if !adj.adjacent(&pos[pi], &neg[ni], ys, d, len(lineality)) {
					continue
				}
				// Tight at the new ray: indices tight at BOTH parents, plus mi.
				tight := newBitset(len(ys))
				for w := range tight {
					tight[w] = pos[pi].tight[w] & neg[ni].tight[w]
				}
				tight.set(mi)
				w, ok := combineRays(&pos[pi], &neg[ni], y, tight)
				if !ok {
					continue
				}
				next = append(next, w)
				if len(next) > ddMaxRays {
					return nil, fmt.Errorf("cone: double description exceeded %d rays", ddMaxRays)
				}
			}
		}
		rays = dedupeRays(next)
	}

	if len(lineality) != 0 {
		return nil, fmt.Errorf("cone: dual cone not pointed (generators do not span, internal error)")
	}

	// Final minimality pass: drop any ray in the conic hull of the others.
	vs := make([]hullVec, len(rays))
	for i := range rays {
		vs[i] = newHullVec(rays[i].iv, rays[i].bv)
	}
	keep := h.essential(vs)
	out := make([]ddRay, len(keep))
	for i, k := range keep {
		out[i] = rays[k]
	}
	return out, nil
}

// adjScratch is adjacent's reusable storage, one per double-description
// run: the common tight indices, the rows they select and the rank test's
// matrix.
type adjScratch struct {
	common []int
	rows   [][]int64
	rank   exact.RankScratch
}

// adjacent implements the algebraic (rank-based) adjacency test: extreme
// rays p and n of a cone with lineality dimension lin in ℝ^d are adjacent
// iff the constraints tight at both have rank ≥ d − lin − 2. The bitset
// AND+popcount pre-test rejects most pairs without touching any rational
// arithmetic; the rank test never rejects a truly adjacent pair even when
// the working set carries redundant rays, so no facet is ever lost —
// spurious combinations are removed by the final LP minimality pass.
func (s *adjScratch) adjacent(p, n *ddRay, ys []ddY, d, lin int) bool {
	need := d - lin - 2
	if need <= 0 {
		return true
	}
	if andCount(p.tight, n.tight) < need {
		return false
	}
	s.common = appendAnd(p.tight, n.tight, s.common[:0])
	s.rows = s.rows[:0]
	for _, k := range s.common {
		if ys[k].iv == nil {
			break
		}
		s.rows = append(s.rows, ys[k].iv)
	}
	if len(s.rows) == len(s.common) {
		if rank, ok := s.rank.Rank64(s.rows, d); ok {
			return rank >= need
		}
	}
	vs := make([]exact.Vec, len(s.common))
	for i, k := range s.common {
		vs[i] = ys[k].vec()
	}
	return len(exact.RowSpaceBasis(vs)) >= need
}

// projectRays projects each of xs onto the hyperplane a·y = 0 along l0
// (l0·y < 0; see combineRays), in place, marking constraint mi tight on
// each when mi ≥ 0. A direction that projects to zero is dropped.
func projectRays(xs []ddRay, l0 *ddRay, y *ddY, mi int) []ddRay {
	out := xs[:0]
	for i := range xs {
		tight := xs[i].tight
		if mi >= 0 {
			tight.set(mi)
		}
		if w, ok := combineRays(&xs[i], l0, y, tight); ok {
			out = append(out, w)
		}
	}
	return out
}

func dedupeRays(rs []ddRay) []ddRay {
	seen := make(map[string]int, len(rs))
	out := make([]ddRay, 0, len(rs))
	for i := range rs {
		k := rs[i].key()
		if j, dup := seen[k]; dup {
			// Merge tight sets (same geometric ray discovered twice).
			out[j].tight.or(rs[i].tight)
			continue
		}
		seen[k] = len(out)
		out = append(out, rs[i])
	}
	return out
}
