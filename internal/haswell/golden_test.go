package haswell

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/counters"
)

// corpusDigest is a SHA-256 over every observation's label, its set's key
// and the bits of every sample value, each string length-prefixed.
func corpusDigest(obs []*counters.Observation) string {
	h := sha256.New()
	var b [8]byte
	str := func(s string) {
		binary.LittleEndian.PutUint64(b[:], uint64(len(s)))
		h.Write(b[:])
		h.Write([]byte(s))
	}
	for _, o := range obs {
		str(o.Label)
		str(o.Set.Key())
		binary.LittleEndian.PutUint64(b[:], uint64(len(o.Samples)))
		h.Write(b[:])
		for _, row := range o.Samples {
			for _, v := range row {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestQuickCorpusGolden pins the quick corpus bit for bit: any change to
// the simulator, its caches or the corpus fan-out that moves a single
// sample changes the digest.
func TestQuickCorpusGolden(t *testing.T) {
	obs, err := BuildCorpus(QuickCorpusSpec())
	if err != nil {
		t.Fatal(err)
	}
	const want = "1ceefa8aa7d5c18699b97556835afa9f54e020e49b8a43d4be5fbbc6ebd6c0e8"
	if got := corpusDigest(obs); got != want {
		t.Fatalf("quick corpus digest %s, want %s", got, want)
	}
}
