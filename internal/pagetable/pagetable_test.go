package pagetable

import (
	"testing"
	"testing/quick"
)

func TestPageSizeLevels(t *testing.T) {
	if Page4K.Levels() != 4 || Page2M.Levels() != 3 || Page1G.Levels() != 2 {
		t.Fatal("levels wrong")
	}
	if Page4K.String() != "4K" || Page2M.String() != "2M" || Page1G.String() != "1G" {
		t.Fatal("strings wrong")
	}
}

func TestMapAndTranslate(t *testing.T) {
	pt := New(1 << 40)
	va := uint64(0x10_0000_0000)
	if _, ok := pt.Translate(va); ok {
		t.Fatal("unmapped VA should not translate")
	}
	if err := pt.Map(va, Page4K); err != nil {
		t.Fatal(err)
	}
	ps, ok := pt.Translate(va)
	if !ok || ps != Page4K {
		t.Fatalf("translate: %v %v", ps, ok)
	}
	if pt.MappedPages() != 1 {
		t.Fatalf("pages: %d", pt.MappedPages())
	}
	// Idempotent remap.
	if err := pt.Map(va, Page4K); err != nil {
		t.Fatal(err)
	}
	if pt.MappedPages() != 1 {
		t.Fatal("remap should not add pages")
	}
}

func TestMapSizeConflict(t *testing.T) {
	pt := New(1 << 40)
	va := uint64(0x10_0000_0000)
	if err := pt.Map(va, Page4K); err != nil {
		t.Fatal(err)
	}
	// Same region as 2M leaf conflicts with existing PT table.
	if err := pt.Map(va&^Page2M.Mask(), Page2M); err == nil {
		t.Fatal("expected size conflict")
	}
	// And mapping 4K under an existing 1G leaf conflicts too.
	pt2 := New(1 << 40)
	if err := pt2.Map(va&^Page1G.Mask(), Page1G); err != nil {
		t.Fatal(err)
	}
	if err := pt2.Map(va, Page4K); err == nil {
		t.Fatal("expected leaf conflict")
	}
}

func TestWalkFull4K(t *testing.T) {
	pt := New(1 << 40)
	va := uint64(0x10_0000_0000)
	pt.EnsureMapped(va, Page4K)
	steps, ok := pt.Walk(nil, va, 0, true, false)
	if !ok {
		t.Fatal("walk should complete")
	}
	if len(steps) != 4 {
		t.Fatalf("4K full walk: %d steps, want 4", len(steps))
	}
	for i, st := range steps {
		if st.Level != i {
			t.Fatalf("step %d at level %d", i, st.Level)
		}
		if st.AccessedWas {
			t.Fatalf("fresh entry %d should have unset accessed bit", i)
		}
	}
	if !steps[3].Leaf {
		t.Fatal("last step should be leaf")
	}
	// Second walk sees accessed bits set.
	steps2, _ := pt.Walk(nil, va, 0, false, false)
	for i, st := range steps2 {
		if !st.AccessedWas {
			t.Fatalf("step %d accessed bit should be set", i)
		}
	}
}

func TestWalkStartLevelSkips(t *testing.T) {
	pt := New(1 << 40)
	va := uint64(0x10_0000_0000)
	pt.EnsureMapped(va, Page4K)
	steps, ok := pt.Walk(nil, va, 3, true, false)
	if !ok || len(steps) != 1 {
		t.Fatalf("PDE-hit walk: ok=%v steps=%d", ok, len(steps))
	}
	if steps[0].Level != 3 || !steps[0].Leaf {
		t.Fatalf("step: %+v", steps[0])
	}
}

func TestWalkHugePages(t *testing.T) {
	pt := New(1 << 40)
	va := uint64(0x40_0000_0000)
	pt.EnsureMapped(va, Page1G)
	steps, ok := pt.Walk(nil, va, 0, true, false)
	if !ok || len(steps) != 2 {
		t.Fatalf("1G walk: ok=%v steps=%d, want 2", ok, len(steps))
	}
	pt2 := New(1 << 40)
	pt2.EnsureMapped(va, Page2M)
	steps, ok = pt2.Walk(nil, va, 0, true, false)
	if !ok || len(steps) != 3 {
		t.Fatalf("2M walk: ok=%v steps=%d, want 3", ok, len(steps))
	}
}

func TestWalkAbortOnUnaccessed(t *testing.T) {
	pt := New(1 << 40)
	va := uint64(0x10_0000_0000)
	pt.EnsureMapped(va, Page4K)
	// Prefetch-style walk on a never-demand-walked page: the first entry's
	// accessed bit is unset → abort after one read.
	steps, ok := pt.Walk(nil, va, 0, false, true)
	if ok {
		t.Fatal("prefetch walk over unaccessed entries must abort")
	}
	if len(steps) != 1 {
		t.Fatalf("abort after %d steps, want 1", len(steps))
	}
	// Demand-walk it (sets accessed bits), then prefetch completes.
	if _, ok := pt.Walk(nil, va, 0, true, false); !ok {
		t.Fatal("demand walk failed")
	}
	if _, ok := pt.Walk(nil, va, 0, false, true); !ok {
		t.Fatal("prefetch over accessed entries should complete")
	}
	// Neighbour page: shared upper levels accessed, fresh PT leaf unset.
	va2 := va + uint64(Page4K)
	pt.EnsureMapped(va2, Page4K)
	steps, ok = pt.Walk(nil, va2, 0, false, true)
	if ok {
		t.Fatal("prefetch of fresh neighbour page must abort at leaf")
	}
	if len(steps) != 4 {
		t.Fatalf("abort at leaf after %d steps, want 4", len(steps))
	}
}

func TestClearAccessed(t *testing.T) {
	pt := New(1 << 40)
	va := uint64(0x10_0000_0000)
	pt.EnsureMapped(va, Page4K)
	pt.Walk(nil, va, 0, true, false)
	pt.ClearAccessed()
	steps, _ := pt.Walk(nil, va, 0, false, false)
	for _, st := range steps {
		if st.AccessedWas {
			t.Fatal("accessed bits should be cleared")
		}
	}
}

func TestWalkUnmappedFaults(t *testing.T) {
	pt := New(1 << 40)
	va := uint64(0x10_0000_0000)
	pt.EnsureMapped(va, Page4K)
	// A different PML4 region entirely: the very first entry read faults.
	steps, ok := pt.Walk(nil, 0x7f_0000_0000_00, 0, true, false)
	if ok {
		t.Fatal("unmapped walk should fail")
	}
	if len(steps) != 1 {
		t.Fatalf("fault after %d steps, want 1", len(steps))
	}
}

func TestEntryPhysDistinct(t *testing.T) {
	// Property: distinct mapped pages have distinct leaf entry addresses,
	// and all entry addresses fall in the table allocator's range.
	pt := New(1 << 40)
	seen := map[uint64]bool{}
	f := func(page uint16) bool {
		va := uint64(0x10_0000_0000) + uint64(page)*uint64(Page4K)
		pt.EnsureMapped(va, Page4K)
		steps, ok := pt.Walk(nil, va, 0, false, false)
		if !ok || len(steps) != 4 {
			return false
		}
		leaf := steps[3].EntryPhys
		if prev := seen[leaf]; prev {
			// Same page revisited is fine; different page colliding is not.
			return true
		}
		seen[leaf] = true
		return leaf >= 1<<40 && leaf < pt.TableBytes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMappedPagesAndTableBytes(t *testing.T) {
	pt := New(1 << 40)
	base := uint64(0x10_0000_0000)
	for i := uint64(0); i < 10; i++ {
		pt.EnsureMapped(base+i*uint64(Page4K), Page4K)
	}
	if pt.MappedPages() != 10 {
		t.Fatalf("pages: %d", pt.MappedPages())
	}
	if pt.TableBytes() <= 1<<40 {
		t.Fatal("table bytes should grow past the base")
	}
}
