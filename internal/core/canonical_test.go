package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/exact"
	"repro/internal/simplex"
)

// randomProblem builds a random feasibility LP with small rational
// coefficients and a mix of relations, including degenerate zero rows and
// duplicate rows.
func randomProblem(rng *rand.Rand) *simplex.Problem {
	n := 1 + rng.Intn(5)
	p := simplex.NewProblem(n)
	rows := 1 + rng.Intn(7)
	for i := 0; i < rows; i++ {
		rel := simplex.LE
		switch rng.Intn(4) {
		case 0:
			rel = simplex.GE
		case 1:
			rel = simplex.EQ
		}
		coeffs, rhs := p.GrowConstraint(rel)
		den := int64(1) << uint(rng.Intn(6))
		for j := range coeffs {
			if rng.Intn(3) == 0 {
				continue // leave zero
			}
			coeffs[j].SetFrac64(int64(rng.Intn(41)-20), den)
		}
		rhs.SetFrac64(int64(rng.Intn(61)-20), 1+int64(rng.Intn(7)))
		if i > 0 && rng.Intn(5) == 0 {
			// Duplicate a prior row verbatim: must not change the hash.
			src := &p.Constraints[rng.Intn(i)]
			dup, drhs := p.GrowConstraint(src.Rel)
			for j := range dup {
				dup[j].Set(src.Coeffs[j])
			}
			drhs.Set(src.RHS)
		}
	}
	return p
}

// permuted returns a copy of p with its rows in a random order.
func permuted(p *simplex.Problem, rng *rand.Rand) *simplex.Problem {
	q := simplex.NewProblem(p.NumVars)
	order := rng.Perm(len(p.Constraints))
	for _, i := range order {
		src := &p.Constraints[i]
		coeffs, rhs := q.GrowConstraint(src.Rel)
		for j := range coeffs {
			coeffs[j].Set(src.Coeffs[j])
		}
		rhs.Set(src.RHS)
	}
	return q
}

// scaledRows returns a copy of p with every row multiplied by a positive
// rational (and LE/GE rows optionally rewritten as the negated opposite
// relation) — pure equivalence transformations of the feasible set.
func scaledRows(p *simplex.Problem, rng *rand.Rand) *simplex.Problem {
	q := simplex.NewProblem(p.NumVars)
	var m big.Rat
	for i := range p.Constraints {
		src := &p.Constraints[i]
		m.SetFrac64(1+int64(rng.Intn(9)), 1+int64(rng.Intn(9)))
		rel := src.Rel
		neg := false
		if rel != simplex.EQ && rng.Intn(2) == 0 {
			// a·x ≤ b  ⇔  −a·x ≥ −b and vice versa.
			neg = true
			if rel == simplex.LE {
				rel = simplex.GE
			} else {
				rel = simplex.LE
			}
		}
		coeffs, rhs := q.GrowConstraint(rel)
		for j := range coeffs {
			coeffs[j].Mul(src.Coeffs[j], &m)
			if neg {
				coeffs[j].Neg(coeffs[j])
			}
		}
		rhs.Mul(src.RHS, &m)
		if neg {
			rhs.Neg(rhs)
		}
	}
	return q
}

func TestCanonicalEncodeDecodeFixpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		p := randomProblem(rng)
		e1 := EncodeLP(p)
		q, err := decodeLP(e1)
		if err != nil {
			t.Fatalf("trial %d: decode: %v\nencoding:\n%x", trial, err, e1)
		}
		e2 := EncodeLP(q)
		if !bytes.Equal(e1, e2) {
			t.Fatalf("trial %d: encode∘decode not a fixpoint:\n--- first ---\n%x\n--- second ---\n%x",
				trial, e1, e2)
		}
		if HashLP(p) != HashLP(q) {
			t.Fatalf("trial %d: hash changed across decode round trip", trial)
		}
	}
}

func TestCanonicalHashInvariances(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 300; trial++ {
		p := randomProblem(rng)
		h := HashLP(p)
		if got := HashLP(permuted(p, rng)); got != h {
			t.Fatalf("trial %d: hash not invariant under row permutation", trial)
		}
		if got := HashLP(scaledRows(p, rng)); got != h {
			t.Fatalf("trial %d: hash not invariant under positive row scaling", trial)
		}
	}
}

func TestCanonicalDistinctLPsDistinctHashes(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	seen := map[LPHash]string{}
	for trial := 0; trial < 400; trial++ {
		p := randomProblem(rng)
		e := string(EncodeLP(p))
		h := HashLP(p)
		if prev, ok := seen[h]; ok && prev != e {
			t.Fatalf("hash collision between distinct canonical forms:\n%x\nvs\n%x", prev, e)
		}
		seen[h] = e
		// A genuine semantic perturbation must change the hash.
		q := permuted(p, rng)
		c := &q.Constraints[rng.Intn(len(q.Constraints))]
		c.RHS.Add(c.RHS, big.NewRat(1, 3))
		if HashLP(q) == h && !bytes.Equal(EncodeLP(q), EncodeLP(p)) {
			t.Fatalf("trial %d: rhs perturbation did not change hash", trial)
		}
	}
	if len(seen) < 100 {
		t.Fatalf("corpus too degenerate: only %d distinct canonical forms", len(seen))
	}
}

func TestCanonicalBigPathMatchesFast(t *testing.T) {
	// A row with a huge denominator takes the big-number path of the
	// integer form; the same half-space expressed in the int64 domain
	// takes the int64 path. Both must encode the identical canonical row,
	// so the hashes agree.
	huge := new(big.Int).Lsh(big.NewInt(1), 80)
	p := simplex.NewProblem(2)
	coeffs, rhs := p.GrowConstraint(simplex.LE)
	coeffs[0].SetFrac(big.NewInt(3), huge)
	coeffs[1].SetFrac(big.NewInt(-6), huge)
	rhs.SetFrac(big.NewInt(9), huge)

	q := simplex.NewProblem(2)
	qcoeffs, qrhs := q.GrowConstraint(simplex.LE)
	qcoeffs[0].SetInt64(1)
	qcoeffs[1].SetInt64(-2)
	qrhs.SetInt64(3)

	if HashLP(p) != HashLP(q) {
		t.Fatalf("big-path canonical form diverges from fast path:\n%x\nvs\n%x",
			EncodeLP(p), EncodeLP(q))
	}
}

func TestParseLPHashRoundTrip(t *testing.T) {
	p := simplex.NewProblem(1)
	coeffs, rhs := p.GrowConstraint(simplex.LE)
	coeffs[0].SetInt64(1)
	rhs.SetInt64(5)
	h := HashLP(p)
	got, err := ParseLPHash(h.String())
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("round trip: %v != %v", got, h)
	}
	if _, err := ParseLPHash("zz"); err == nil {
		t.Fatal("want error for bad hex")
	}
	if _, err := ParseLPHash("abcd"); err == nil {
		t.Fatal("want error for short hash")
	}
}

// floatRows is a feasibility LP given as exact float64 rows, built both
// ways the simplex package accepts: integer-native (AddFloatRow) and as
// big.Rat rows (AddConstraint).
type floatRows struct {
	n      int
	rels   []simplex.Rel
	coeffs [][]float64
	rhs    []float64
}

func (f *floatRows) native(t *testing.T) *simplex.Problem {
	t.Helper()
	p := simplex.NewProblem(f.n)
	for i, rel := range f.rels {
		if err := p.AddFloatRow(rel, f.coeffs[i], f.rhs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

func (f *floatRows) rational() *simplex.Problem {
	p := simplex.NewProblem(f.n)
	for i, rel := range f.rels {
		coeffs := exact.NewVec(f.n)
		for j, c := range f.coeffs[i] {
			coeffs[j].SetFloat64(c)
		}
		p.AddConstraint(coeffs, rel, new(big.Rat).SetFloat64(f.rhs[i]))
	}
	return p
}

// randomFloatRows draws dyadic rows; wide spreads the exponents so some
// rows leave the int64 range.
func randomFloatRows(rng *rand.Rand, n, rows int, wide bool) *floatRows {
	val := func() float64 {
		if rng.Intn(3) == 0 {
			return 0
		}
		e := rng.Intn(20) - 16
		if wide && rng.Intn(4) == 0 {
			e = rng.Intn(160) - 80
		}
		return math.Ldexp(float64(rng.Intn(2001)-1000), e)
	}
	f := &floatRows{n: n}
	for i := 0; i < rows; i++ {
		f.rels = append(f.rels, simplex.Rel(rng.Intn(3)))
		c := make([]float64, n)
		for j := range c {
			c[j] = val()
		}
		f.coeffs = append(f.coeffs, c)
		f.rhs = append(f.rhs, val())
	}
	return f
}

// FuzzCanonicalLP drives the canonical encoder with fuzz-chosen LP
// shapes: encode→decode→encode must be a fixpoint, and the hash must not
// change under row permutation, positive row scaling, duplicated rows, a
// GE row rewritten as its negated LE row, or building the same exact
// rows integer-natively instead of through big.Rat.
func FuzzCanonicalLP(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(4))
	f.Add(int64(99), uint8(1), uint8(1))
	f.Add(int64(-7), uint8(6), uint8(8))
	f.Add(int64(2026), uint8(5), uint8(7))
	f.Add(int64(40), uint8(2), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, nvars, nrows uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nvars)%6
		rows := 1 + int(nrows)%8
		p := simplex.NewProblem(n)
		for i := 0; i < rows; i++ {
			rel := simplex.LE
			switch rng.Intn(3) {
			case 0:
				rel = simplex.GE
			case 1:
				rel = simplex.EQ
			}
			coeffs, rhs := p.GrowConstraint(rel)
			for j := range coeffs {
				num := int64(rng.Intn(2001) - 1000)
				den := int64(1 + rng.Intn(999))
				coeffs[j].SetFrac64(num, den)
			}
			rhs.SetFrac64(int64(rng.Intn(2001)-1000), int64(1+rng.Intn(999)))
		}
		e1 := EncodeLP(p)
		q, err := decodeLP(e1)
		if err != nil {
			t.Fatalf("decode: %v\n%x", err, e1)
		}
		e2 := EncodeLP(q)
		if !bytes.Equal(e1, e2) {
			t.Fatalf("not a fixpoint:\n%x\nvs\n%x", e1, e2)
		}
		h := HashLP(p)
		if HashLP(permuted(p, rng)) != h {
			t.Fatal("hash not invariant under row permutation")
		}
		if HashLP(scaledRows(p, rng)) != h {
			t.Fatal("hash not invariant under positive row scaling or GE/LE negation")
		}
		if HashLP(duplicated(p, rng)) != h {
			t.Fatal("hash not invariant under duplicate rows")
		}

		fr := randomFloatRows(rng, n, rows, seed%2 == 0)
		nat := fr.native(t)
		h = HashLP(nat)
		if HashLP(fr.rational()) != h {
			t.Fatalf("integer-native build and big.Rat build hash apart:\n%x\nvs\n%x",
				EncodeLP(nat), EncodeLP(fr.rational()))
		}
		// A GE row and its negated LE row are one half-space.
		for i, rel := range fr.rels {
			if rel != simplex.GE {
				continue
			}
			fr.rels[i] = simplex.LE
			for j := range fr.coeffs[i] {
				fr.coeffs[i][j] = -fr.coeffs[i][j]
			}
			fr.rhs[i] = -fr.rhs[i]
		}
		if HashLP(fr.native(t)) != h {
			t.Fatal("hash not invariant under rewriting GE rows as negated LE rows")
		}
	})
}

// duplicated returns a copy of p with random rows repeated.
func duplicated(p *simplex.Problem, rng *rand.Rand) *simplex.Problem {
	q := permuted(p, rng)
	for i, m := 0, len(q.Constraints); i < m; i++ {
		if rng.Intn(2) == 0 {
			continue
		}
		src := &q.Constraints[i]
		coeffs, rhs := q.GrowConstraint(src.Rel)
		for j := range coeffs {
			coeffs[j].Set(src.Coeffs[j])
		}
		rhs.Set(src.RHS)
	}
	return q
}

// decodeLP reconstructs a Problem from a clp2 encoding. Its rows are the
// canonical ones as big.Rat rows, so EncodeLP(decodeLP(e)) == e for any e
// produced by EncodeLP. Only hashes are ever persisted; the decoder
// exists to pin the encoding.
func decodeLP(data []byte) (*simplex.Problem, error) {
	r := bytes.NewReader(data)
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil || string(magic[:]) != "clp2" {
		return nil, fmt.Errorf("core: not a clp2 encoding")
	}
	var n, free uint64
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	p := simplex.NewProblem(int(n))
	if err := binary.Read(r, binary.LittleEndian, &free); err != nil {
		return nil, err
	}
	if free != 0 {
		return nil, fmt.Errorf("core: free-variable count %d, want 0", free)
	}
	obj, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	if obj != 0 {
		return nil, fmt.Errorf("core: objective tag %d, want 0", obj)
	}
	for r.Len() > 0 {
		var tag int64
		if err := binary.Read(r, binary.LittleEndian, &tag); err != nil {
			return nil, err
		}
		if tag < tagLE || tag > tagEQ+tagWide {
			return nil, fmt.Errorf("core: bad row tag %d", tag)
		}
		rel := simplex.LE
		if tag%tagWide == tagEQ {
			rel = simplex.EQ
		}
		coeffs, rhs := p.GrowConstraint(rel)
		for j := 0; j <= int(n); j++ {
			v := new(big.Int)
			if tag < tagWide {
				var x int64
				if err := binary.Read(r, binary.LittleEndian, &x); err != nil {
					return nil, err
				}
				v.SetInt64(x)
			} else if v, err = readBig(r); err != nil {
				return nil, err
			}
			if j < int(n) {
				coeffs[j].SetInt(v)
			} else {
				rhs.SetInt(v)
			}
		}
	}
	return p, nil
}

// readBig reads one big integer of the encoding.
func readBig(r *bytes.Reader) (*big.Int, error) {
	sign, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	var size uint32
	if err := binary.Read(r, binary.LittleEndian, &size); err != nil {
		return nil, err
	}
	if int(size) > r.Len() || sign > 1 {
		return nil, fmt.Errorf("core: bad big integer")
	}
	mag := make([]byte, size)
	if _, err := io.ReadFull(r, mag); err != nil {
		return nil, err
	}
	v := new(big.Int).SetBytes(mag)
	if sign == 1 {
		v.Neg(v)
	}
	return v, nil
}
