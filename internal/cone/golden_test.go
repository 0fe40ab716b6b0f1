package cone_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/haswell"
)

// shortModels are the catalogue models -short deduces: the three the
// benchmark's test-fresh workload serves. The whole catalogue takes
// about 10 s (t16 alone a sixth of it), and under the race detector more
// than ten times that.
var shortModels = map[string]bool{"m0": true, "a3": true, "discovered": true}

// TestCatalogueDeductionGolden pins the deduction of every catalogue model
// over its own counters, as counterpointd compiles it from source: one
// SHA-256 over each model's name, the text of every constraint of its
// H-representation (equalities, then inequalities) and the key of every
// essential generator, each string length-prefixed. Any solver change that moves a single essential
// generator or facet changes the digest. -short checks a digest over
// shortModels only.
func TestCatalogueDeductionGolden(t *testing.T) {
	const (
		wantAll   = "b6eb4504d2901e349329e26b7c9b3545812dd84dd5cd8c1163fb9b0a07413cc2"
		wantShort = "91bb0650746a303db1750dfe7acd411ae6c2a8579e45dcb09aa827fd122a5513"
	)
	h := sha256.New()
	for _, cm := range haswell.Catalog() {
		if testing.Short() && !shortModels[cm.Name] {
			continue
		}
		start := time.Now()
		m, err := core.ModelFromDSL(cm.Name, cm.Source, nil)
		if err != nil {
			t.Fatalf("%s: %v", cm.Name, err)
		}
		hr, err := m.Constraints()
		if err != nil {
			t.Fatalf("%s: %v", cm.Name, err)
		}
		ess := m.Cone().EssentialGenerators()
		writeString(h, cm.Name)
		writeLen(h, len(hr.All()))
		for _, k := range hr.All() {
			writeString(h, k.String())
		}
		writeLen(h, len(ess))
		for _, g := range ess {
			writeString(h, g.Key())
		}
		t.Logf("%s: %d constraints, %d essential generators (%v)", cm.Name, len(hr.All()), len(ess), time.Since(start).Round(time.Millisecond))
	}
	want := wantAll
	if testing.Short() {
		want = wantShort
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("catalogue deduction digest %s, want %s", got, want)
	}
}

func writeLen(h hash.Hash, n int) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(n))
	h.Write(b[:])
}

func writeString(h hash.Hash, s string) {
	writeLen(h, len(s))
	h.Write([]byte(s))
}
