package sweep

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/counters"
	"repro/internal/haswell"
)

// memoDecoder is the memoised reference decoder: aliasing configs get
// the same *Derived back, observation pointers included. DecodeClass is
// checked against it.
type memoDecoder struct {
	*Decoder
	memo map[string]*Derived
}

func newMemoDecoder(seed int64, base []*counters.Observation, target *counters.Set) (*memoDecoder, error) {
	d, err := NewDecoder(seed, base, target)
	if err != nil {
		return nil, err
	}
	return &memoDecoder{Decoder: d, memo: map[string]*Derived{}}, nil
}

// Decode returns the derived corpus for cfg, memoised by behaviour.
func (m *memoDecoder) Decode(cfg RawConfig) *Derived {
	cols, threshold := m.selection(cfg)
	sig := signature(cols, threshold)
	if dv, ok := m.memo[sig]; ok {
		return dv
	}
	dv := m.newDerived()
	m.fill(dv, cols, threshold, sig)
	m.memo[sig] = dv
	return dv
}

// UniqueBehaviours counts the distinct behaviours decoded so far.
func (m *memoDecoder) UniqueBehaviours() int { return len(m.memo) }

// makeBase hand-builds a tiny deterministic base corpus (no simulation):
// two observations over the ground-truth set, values below 256, extended
// with the walk_ref aggregate like the real corpus.
func makeBase(t *testing.T) []*counters.Observation {
	t.Helper()
	gt := haswell.GroundTruthSet()
	var out []*counters.Observation
	for k := 0; k < 2; k++ {
		o := counters.NewObservation("synthetic", gt)
		for s := 0; s < 3; s++ {
			row := make([]float64, gt.Len())
			for j := range row {
				row[j] = float64((k*97 + s*31 + j*7) % 200)
			}
			o.Append(row)
		}
		out = append(out, haswell.WithAggregateWalkRef(o))
	}
	return out
}

func TestGridCellsOrderAndSize(t *testing.T) {
	g := Grid{Events: []uint8{0x10, 0x20}, Umasks: []uint8{0x01, 0x03}, Cmasks: []uint8{0x00}}
	if g.Size() != 4 {
		t.Fatalf("size: %d", g.Size())
	}
	cells := g.Cells()
	want := []RawConfig{
		{0x10, 0x01, 0x00}, {0x10, 0x03, 0x00},
		{0x20, 0x01, 0x00}, {0x20, 0x03, 0x00},
	}
	if !reflect.DeepEqual(cells, want) {
		t.Fatalf("cells: %v", cells)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Grid{Events: []uint8{1}}).Validate(); err == nil {
		t.Fatal("empty axes should be rejected")
	}
}

func TestDefaultGridDwarfsCatalogue(t *testing.T) {
	g := DefaultGrid()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	cat := len(haswell.Catalog())
	if g.Size() < 10*cat {
		t.Fatalf("default grid has %d cells, want >= 10x the %d-model catalogue", g.Size(), cat)
	}
	// The architectural selector must be part of the stock scan.
	found := false
	for _, e := range g.Events {
		if e == EventPageWalkerLoads {
			found = true
		}
	}
	if !found {
		t.Fatalf("default grid omits event %#x", EventPageWalkerLoads)
	}
}

func TestRawConfigCode(t *testing.T) {
	c := RawConfig{Event: 0x0D, Umask: 0x03, Cmask: 0x01}
	if c.Code() != 0x100030D {
		t.Fatalf("code: %#x", c.Code())
	}
	if c.String() != "0x100030d" {
		t.Fatalf("string: %q", c)
	}
}

func TestDecoderDeterministicAcrossInstances(t *testing.T) {
	base := makeBase(t)
	target := haswell.AnalysisSet()
	d1, err := newMemoDecoder(7, base, target)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := newMemoDecoder(7, base, target)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range DefaultGrid().Cells() {
		a, b := d1.Decode(cfg), d2.Decode(cfg)
		if a.Sig != b.Sig {
			t.Fatalf("%s: signatures diverge: %q vs %q", cfg, a.Sig, b.Sig)
		}
		for i := range a.Corpus {
			if !reflect.DeepEqual(a.Corpus[i].Samples, b.Corpus[i].Samples) {
				t.Fatalf("%s: derived samples diverge at obs %d", cfg, i)
			}
		}
	}
	if d1.UniqueBehaviours() != d2.UniqueBehaviours() {
		t.Fatalf("behaviour counts diverge: %d vs %d", d1.UniqueBehaviours(), d2.UniqueBehaviours())
	}
	if d1.UniqueBehaviours() >= DefaultGrid().Size() {
		t.Fatalf("no aliasing across %d cells (%d behaviours)", DefaultGrid().Size(), d1.UniqueBehaviours())
	}
}

func TestDecoderUmaskAliasing(t *testing.T) {
	d, err := newMemoDecoder(1, makeBase(t), haswell.AnalysisSet())
	if err != nil {
		t.Fatal(err)
	}
	// Umask bits at or above BankSlots are ignored: 0x1F and 0x0F alias,
	// 0x11 and 0x01 alias — and aliasing means the SAME derivation back,
	// pointer for pointer (that is what feeds the engine's region cache).
	pairs := [][2]RawConfig{
		{{Event: 0x42, Umask: 0x0F}, {Event: 0x42, Umask: 0x1F}},
		{{Event: 0x42, Umask: 0x01}, {Event: 0x42, Umask: 0x11}},
		{{Event: 0x42, Umask: 0xFF}, {Event: 0x42, Umask: 0x0F}},
	}
	for _, p := range pairs {
		a, b := d.Decode(p[0]), d.Decode(p[1])
		if a != b {
			t.Fatalf("%s and %s should alias to one *Derived", p[0], p[1])
		}
		for i := range a.Corpus {
			if a.Corpus[i] != b.Corpus[i] {
				t.Fatalf("aliased derivations must share observation pointers")
			}
		}
	}
	if a, b := d.Decode(RawConfig{Event: 0x42, Umask: 0x01}), d.Decode(RawConfig{Event: 0x42, Umask: 0x03}); a == b {
		t.Fatalf("distinct umasks should not alias")
	}
}

func TestDecoderCmaskGatesToZero(t *testing.T) {
	d, err := newMemoDecoder(1, makeBase(t), haswell.AnalysisSet())
	if err != nil {
		t.Fatal(err)
	}
	zero := d.Decode(RawConfig{Event: 0x42, Umask: 0x00})
	if zero.Sig != "zero" {
		t.Fatalf("umask 0 signature: %q", zero.Sig)
	}
	// Synthetic base values stay under 200 per column, so a threshold of
	// 0x10<<8 = 4096 gates every sample: different signature, identical
	// derived content (content-level aliasing the LP-hash memo must catch).
	gated := d.Decode(RawConfig{Event: 0x42, Umask: 0x0F, Cmask: 0x10})
	if gated == zero {
		t.Fatal("distinct signatures should not share a derivation")
	}
	agg, _ := haswell.AnalysisSet().Index(haswell.AggregateWalkRef)
	for i := range gated.Corpus {
		for s, row := range gated.Corpus[i].Samples {
			if row[agg] != 0 {
				t.Fatalf("obs %d sample %d: gated value %g, want 0", i, s, row[agg])
			}
			if !reflect.DeepEqual(row, zero.Corpus[i].Samples[s]) {
				t.Fatalf("obs %d sample %d: gated row differs from zero row", i, s)
			}
		}
	}
}

// TestDecoderArchitecturalEvent pins the feasible alias: event 0xBC with
// umask 0x0F at cmask 0 must reproduce the walk_ref aggregate exactly, so
// its derived corpus is the base corpus projected onto the analysis set.
func TestDecoderArchitecturalEvent(t *testing.T) {
	base := makeBase(t)
	target := haswell.AnalysisSet()
	d, err := newMemoDecoder(99, base, target)
	if err != nil {
		t.Fatal(err)
	}
	dv := d.Decode(RawConfig{Event: EventPageWalkerLoads, Umask: 0x0F})
	for i, o := range dv.Corpus {
		want := base[i].Project(target)
		if !reflect.DeepEqual(o.Samples, want.Samples) {
			t.Fatalf("obs %d: architectural derivation differs from base projection", i)
		}
	}
}

func TestDecoderRejectsBadInputs(t *testing.T) {
	base := makeBase(t)
	if _, err := NewDecoder(1, nil, haswell.AnalysisSet()); err == nil {
		t.Fatal("empty base should be rejected")
	}
	// Target without the walk_ref aggregate has nothing to synthesise into.
	if _, err := NewDecoder(1, base, haswell.GroundTruthSet()); err == nil {
		t.Fatal("target without the aggregate should be rejected")
	}
	// Mixed base sets.
	mixed := append([]*counters.Observation{}, base...)
	mixed = append(mixed, counters.NewObservation("odd", counters.NewSet("a", "b")))
	if _, err := NewDecoder(1, mixed, haswell.AnalysisSet()); err == nil {
		t.Fatal("mixed base sets should be rejected")
	}
}

func TestPlanGroupsCellsBySignature(t *testing.T) {
	d, err := NewDecoder(7, makeBase(t), haswell.AnalysisSet())
	if err != nil {
		t.Fatal(err)
	}
	cells := DefaultGrid().Cells()
	plan := d.Plan(cells)
	if len(plan) == 0 || len(plan) >= len(cells) {
		t.Fatalf("%d classes for %d cells", len(plan), len(cells))
	}
	// The plan partitions the cell list: every index exactly once, class
	// members ascending, representatives in first-occurrence order.
	seen := make([]bool, len(cells))
	lastRep := -1
	for k, cl := range plan {
		if len(cl.Cells) == 0 {
			t.Fatalf("class %d is empty", k)
		}
		if cl.Cells[0] <= lastRep {
			t.Fatalf("class %d representative %d out of order (prev %d)", k, cl.Cells[0], lastRep)
		}
		lastRep = cl.Cells[0]
		prev := -1
		for _, i := range cl.Cells {
			if i <= prev {
				t.Fatalf("class %d cells not ascending: %v", k, cl.Cells)
			}
			prev = i
			if seen[i] {
				t.Fatalf("cell %d in two classes", i)
			}
			seen[i] = true
			// Membership is exactly signature equality.
			if got := d.Signature(cells[i]); got != cl.Sig {
				t.Fatalf("cell %d signature %q in class %q", i, got, cl.Sig)
			}
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("cell %d missing from the plan", i)
		}
	}
}

// TestDecodeClassMatchesDecode pins the pooled path: DecodeClass must
// produce content bit-identical to the memoised Decode for every cell,
// including when its buffers are recycled across classes in arbitrary
// order.
func TestDecodeClassMatchesDecode(t *testing.T) {
	base := makeBase(t)
	target := haswell.AnalysisSet()
	ref, err := newMemoDecoder(7, base, target)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDecoder(7, base, target)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range DefaultGrid().Cells() {
		want := ref.Decode(cfg)
		dv := d.DecodeClass(cfg)
		if dv.Sig != want.Sig {
			t.Fatalf("%s: signature %q, want %q", cfg, dv.Sig, want.Sig)
		}
		for i := range dv.Corpus {
			if dv.Corpus[i].Label != want.Corpus[i].Label {
				t.Fatalf("%s obs %d: label %q, want %q", cfg, i, dv.Corpus[i].Label, want.Corpus[i].Label)
			}
			if !reflect.DeepEqual(dv.Corpus[i].Samples, want.Corpus[i].Samples) {
				t.Fatalf("%s obs %d: pooled derivation diverges from memoised", cfg, i)
			}
		}
		// Releasing hands the same buffers to the next decode; the fill
		// must leave no residue (every column overwritten).
		d.Release(dv)
	}
}

func TestDecodeClassIsConcurrencySafe(t *testing.T) {
	base := makeBase(t)
	target := haswell.AnalysisSet()
	d, err := NewDecoder(3, base, target)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewDecoder(3, base, target)
	if err != nil {
		t.Fatal(err)
	}
	cells := DefaultGrid().Cells()
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(w int) {
			for i := w; i < len(cells); i += 8 {
				dv := d.DecodeClass(cells[i])
				sig := dv.Sig
				d.Release(dv)
				if want := ref.Signature(cells[i]); sig != want {
					errs <- fmt.Errorf("cell %d: %q want %q", i, sig, want)
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < 8; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestLargeGridReachesHundredFold(t *testing.T) {
	g := LargeGrid()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	cat := len(haswell.Catalog())
	if g.Size() < 100*cat {
		t.Fatalf("large grid has %d cells, want >= 100x the %d-model catalogue", g.Size(), cat)
	}
	found := false
	for _, e := range g.Events {
		if e == EventPageWalkerLoads {
			found = true
		}
	}
	if !found {
		t.Fatalf("large grid omits event %#x", EventPageWalkerLoads)
	}
	// The aliased umask axis must collapse a meaningful share of the grid.
	d, err := NewDecoder(1, makeBase(t), haswell.AnalysisSet())
	if err != nil {
		t.Fatal(err)
	}
	if plan := d.Plan(g.Cells()); len(plan)*3 > 2*g.Size() {
		t.Fatalf("large grid barely aliases: %d classes for %d cells", len(plan), g.Size())
	}
}

func TestBuildBaseCorpusDeterministic(t *testing.T) {
	spec := BaseSpec{Samples: 2, UopsPerSample: 400, Seed: 5}
	a, err := BuildBaseCorpus(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildBaseCorpus(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(baseEntries(spec.Seed)) {
		t.Fatalf("corpus size: %d", len(a))
	}
	seen := map[string]bool{}
	for i := range a {
		if a[i].Label != b[i].Label {
			t.Fatalf("labels diverge: %q vs %q", a[i].Label, b[i].Label)
		}
		if seen[a[i].Label] {
			t.Fatalf("duplicate label %q", a[i].Label)
		}
		seen[a[i].Label] = true
		if !reflect.DeepEqual(a[i].Samples, b[i].Samples) {
			t.Fatalf("corpus %q not bit-identical across builds", a[i].Label)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := BuildBaseCorpus(ctx, spec); err == nil {
		t.Fatal("cancelled context should abort the build")
	}
}
