package sweep

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
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

// TestBaseCorpusGolden pins the default-spec base corpus bit for bit for
// three seeds: resumed sweep jobs rebuild it and expect the same samples,
// so no simulator or fan-out change may move a single bit.
func TestBaseCorpusGolden(t *testing.T) {
	want := map[int64]string{
		1: "4f13aa671f7a9ab5d574477629c8387f736de6bc73499d200d5ba55996149b50",
		4: "3101b24bde8601b4f1fe7efa6777ca79c85c52394f2f5f59b4ba3d55723e46bb",
		7: "fe31874ebbb78d0f2c53248aada3d9a4e91584b3965d33a341af24e93356cff5",
	}
	for _, seed := range []int64{1, 4, 7} {
		obs, err := BuildBaseCorpus(context.Background(), BaseSpec{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if got := corpusDigest(obs); got != want[seed] {
			t.Errorf("seed %d: base corpus digest %s, want %s", seed, got, want[seed])
		}
	}
}

// TestBaseCorpusCancel checks that a cancelled context stops the build
// with the context's error and no corpus.
func TestBaseCorpusCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	obs, err := BuildBaseCorpus(ctx, BaseSpec{Seed: 1})
	if !errors.Is(err, context.Canceled) || err != ctx.Err() {
		t.Fatalf("err = %v, want %v", err, ctx.Err())
	}
	if obs != nil {
		t.Fatalf("cancelled build returned %d observations", len(obs))
	}
}

// BenchmarkBaseCorpus times the default-spec base corpus a sweep job
// simulates before it plans a single cell (seed 4).
func BenchmarkBaseCorpus(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BuildBaseCorpus(context.Background(), BaseSpec{Seed: 4}); err != nil {
			b.Fatal(err)
		}
	}
}
