package memsim

import (
	"testing"
	"testing/quick"
)

func TestCacheHitAfterFill(t *testing.T) {
	c, err := NewCache(1024, 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	if c.Access(0x1000) {
		t.Fatal("cold access should miss")
	}
	if !c.Access(0x1000) {
		t.Fatal("second access should hit")
	}
	if !c.Access(0x1030) {
		t.Fatal("same-line access should hit")
	}
	if c.Access(0x1040) {
		t.Fatal("next line should miss")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2 ways, 64B lines, 2 sets (256B total).
	c, err := NewCache(256, 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	// Three lines mapping to set 0: line numbers 0, 2, 4 (even → set 0).
	c.Access(0 * 64)
	c.Access(2 * 64)
	c.Access(0 * 64) // touch line 0: line 2 is now LRU
	c.Access(4 * 64) // evicts line 2
	if !c.Access(0 * 64) {
		t.Fatal("line 0 should survive")
	}
	if c.Access(2 * 64) {
		t.Fatal("line 2 should have been evicted")
	}
}

func TestCacheGeometryErrors(t *testing.T) {
	if _, err := NewCache(0, 2, 64); err == nil {
		t.Fatal("zero size should error")
	}
	if _, err := NewCache(1000, 2, 60); err == nil {
		t.Fatal("non-power-of-two line should error")
	}
	if _, err := NewCache(100, 3, 64); err == nil {
		t.Fatal("non-tiling geometry should error")
	}
}

func TestHierarchyLevels(t *testing.T) {
	h := MustHierarchy(HierarchyConfig{
		L1Bytes: 128, L1Ways: 2,
		L2Bytes: 512, L2Ways: 2,
		L3Bytes: 2048, L3Ways: 2,
		LineBytes: 64,
	})
	if lvl := h.Access(0x100); lvl != Mem {
		t.Fatalf("cold access: %v, want Mem", lvl)
	}
	if lvl := h.Access(0x100); lvl != L1 {
		t.Fatalf("warm access: %v, want L1", lvl)
	}
	// Evict from tiny L1 (2 lines total mapping... 128B/2way/64B = 1 set).
	h.Access(0x1000)
	h.Access(0x2000)
	if lvl := h.Access(0x100); lvl == L1 {
		t.Fatal("L1 should have evicted 0x100")
	}
}

func TestHierarchyInclusionOrdering(t *testing.T) {
	// Property: repeated immediate access always hits L1.
	h := MustHierarchy(HaswellConfig())
	f := func(addr uint32) bool {
		a := uint64(addr)
		h.Access(a)
		return h.Access(a) == L1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBadHierarchyConfig(t *testing.T) {
	if _, err := NewHierarchy(HierarchyConfig{L1Bytes: 0}); err == nil {
		t.Fatal("bad config should error")
	}
}

func TestLevelString(t *testing.T) {
	for lvl, want := range map[Level]string{L1: "L1", L2: "L2", L3: "L3", Mem: "Mem"} {
		if lvl.String() != want {
			t.Fatalf("%d: %s", lvl, lvl)
		}
	}
}
