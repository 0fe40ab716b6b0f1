package cone

import (
	"fmt"

	"math/big"
	"math/bits"

	"repro/internal/exact"
)

// bitset is a fixed-width bit vector over processed inequality indices.
// Replacing the former map[int]bool tight sets, it makes the adjacency
// pre-test one AND+popcount sweep.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int) { b[i>>6] |= 1 << uint(i&63) }

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
// lineality. The returned rays are GCD-normalised and are exactly the
// facet normals of cone(ys), with no redundant ray among them, because
// every step keeps the ray set minimal (Fukuda–Prodon):
//
//   - Each ray's tight set is exact. A pivot keeps the tight sets of the
//     rays it projects (the lineality direction l0 is orthogonal to every
//     processed normal) and adds the new row. A combined ray
//     w = α·n + β·p (α, β > 0) is tight at row k exactly where both
//     parents are, since n·y_k and p·y_k are both ≤ 0; so its tight set is
//     their intersection plus the new row.
//   - With exact tight sets the algebraic adjacency test (adjacent) is
//     exact on a minimal ray set, so each combination is a new extreme ray
//     on a distinct face, and the kept rays stay extreme.
//
// No ray is ever emitted twice, so the state needs no deduplication:
//
//   - A combined ray α·n + β·p (α, β > 0) of an adjacent (pos, neg) pair
//     lies in the relative interior of the 2-face the pair spans. It is
//     not a kept ray: the neg rays are strictly inside the new half-space
//     and the zero rays are extreme, while it lies on the hyperplane
//     inside a 2-face. Nor is it another pair's ray: distinct pairs span
//     distinct 2-faces, whose relative interiors are disjoint.
//   - A pivot moves each ray r to r + t·l0. Two rays with one image would
//     differ by a multiple of l0, a lineality direction orthogonal to
//     every processed normal, so they would be one ray of a minimal set.
//     l0 itself is strictly inside the new half-space, off the hyperplane
//     every projected ray lies on.
func dualExtremeRays(ys []ddY, d int) ([]ddRay, error) {
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
			for i := range rays {
				if signs[i] == 0 {
					rays[i].tight.set(mi)
				}
			}
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
		rays = next
	}

	if len(lineality) != 0 {
		return nil, fmt.Errorf("cone: dual cone not pointed (generators do not span, internal error)")
	}

	return rays, nil
}

// adjScratch is the reusable storage of adjacent, one per
// double-description run: the tight indices under test, the rows they
// select and the rank test's matrix.
type adjScratch struct {
	common []int
	rows   [][]int64
	rank   exact.RankScratch
}

// adjacent implements the algebraic (rank-based) adjacency test: extreme
// rays p and n of a cone with lineality dimension lin in ℝ^d are adjacent
// iff the constraints tight at both have rank ≥ d − lin − 2. The bitset
// AND+popcount pre-test rejects most pairs without touching any rational
// arithmetic.
func (s *adjScratch) adjacent(p, n *ddRay, ys []ddY, d, lin int) bool {
	need := d - lin - 2
	if need <= 0 {
		return true
	}
	if andCount(p.tight, n.tight) < need {
		return false
	}
	s.common = appendAnd(p.tight, n.tight, s.common[:0])
	return s.rankAtLeast(ys, d, need)
}

// rankAtLeast reports whether the ys indexed by s.common have rank at
// least need: Rank64 on their int64 forms, with the big.Rat rows built
// only when a normal is wide or the elimination overflows.
func (s *adjScratch) rankAtLeast(ys []ddY, d, need int) bool {
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
