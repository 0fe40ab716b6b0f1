package counters

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestHaswellRegistryGroups(t *testing.T) {
	r := NewHaswellRegistry(false)
	if got := len(r.GroupEvents(GroupRet)); got != 4 {
		t.Errorf("Ret group: got %d events, want 4", got)
	}
	if got := len(r.GroupEvents(GroupSTLB)); got != 6 {
		t.Errorf("STLB group: got %d events, want 6", got)
	}
	if got := len(r.GroupEvents(GroupWalk)); got != 12 {
		t.Errorf("Walk group: got %d events, want 12", got)
	}
	if got := len(r.GroupEvents(GroupRefs)); got != 4 {
		t.Errorf("Refs group: got %d events, want 4", got)
	}
	if got := len(r.Events()); got != 26 {
		t.Errorf("total: got %d events, want 26", got)
	}
	if r.Group("load.causes_walk") != GroupWalk {
		t.Error("load.causes_walk should be in Walk group")
	}
	if r.Group("nonsense") != GroupOther {
		t.Error("unknown event should be GroupOther")
	}
}

func TestHaswellRegistryMMUCache(t *testing.T) {
	r := NewHaswellRegistry(true)
	if got := len(r.GroupEvents(GroupMMUC)); got != 6 {
		t.Errorf("MMU$ group: got %d events, want 6", got)
	}
}

func TestCumulativeGroups(t *testing.T) {
	r := NewHaswellRegistry(false)
	steps := r.CumulativeGroups(false)
	if len(steps) != 4 {
		t.Fatalf("got %d steps, want 4", len(steps))
	}
	wantSizes := []int{4, 10, 22, 26}
	for i, st := range steps {
		if st.Set.Len() != wantSizes[i] {
			t.Errorf("step %s: got %d counters, want %d", st.Group, st.Set.Len(), wantSizes[i])
		}
	}
	// Steps are cumulative.
	for i := 1; i < len(steps); i++ {
		if !steps[i-1].Set.Subset(steps[i].Set) {
			t.Errorf("step %d not cumulative", i)
		}
	}
}

func TestEventTypeAndE(t *testing.T) {
	e := E(Load, CausesWalk)
	if e != "load.causes_walk" {
		t.Fatalf("E: got %q", e)
	}
	typ, ok := e.Type()
	if !ok || typ != Load {
		t.Fatalf("Type: got %v %v", typ, ok)
	}
	if _, ok := WalkRefL1.Type(); ok {
		t.Fatal("walk_ref.l1 has no access type")
	}
}

func TestSetBasics(t *testing.T) {
	s := NewSet("b", "a", "b", "c")
	if s.Len() != 3 {
		t.Fatalf("len: got %d want 3", s.Len())
	}
	if i, ok := s.Index("a"); !ok || i != 1 {
		t.Fatalf("Index(a): got %d,%v", i, ok)
	}
	if s.At(0) != "b" {
		t.Fatalf("At(0): got %q", s.At(0))
	}
	if !s.Contains("c") || s.Contains("z") {
		t.Fatal("Contains wrong")
	}
}

func TestNewSortedSet(t *testing.T) {
	s := NewSortedSet("c", "a", "b")
	if s.At(0) != "a" || s.At(2) != "c" {
		t.Fatalf("not sorted: %v", s.Events())
	}
}

func TestSetOps(t *testing.T) {
	s := NewSet("a", "b")
	u := s.Union(NewSet("b", "c"))
	if u.Len() != 3 || !u.Contains("c") {
		t.Fatalf("union wrong: %v", u.Events())
	}
	if !s.Subset(u) || u.Subset(s) {
		t.Fatal("subset wrong")
	}
	r := u.Restrict(NewSet("c", "a"))
	if r.Len() != 2 || r.At(0) != "a" {
		t.Fatalf("restrict wrong: %v", r.Events())
	}
	if !s.Equal(NewSet("a", "b")) || s.Equal(NewSet("b", "a")) {
		t.Fatal("equal wrong")
	}
}

func TestVectorOps(t *testing.T) {
	s := NewSet("a", "b")
	v := NewVector(s)
	v.Add("a", 2)
	v.Add("a", 1)
	v.Add("zz", 100) // ignored: not programmed
	if v.Get("a") != 3 || v.Get("zz") != 0 {
		t.Fatalf("get: %v", v.Values)
	}
	v.Values[1] = 7
	w := v.Clone()
	w.Add("b", 1)
	if v.Get("b") != 7 {
		t.Fatal("clone aliases")
	}
	sum := v.Plus(w)
	if sum.Get("b") != 15 {
		t.Fatalf("plus: %v", sum.Values)
	}
	p := v.Project(NewSet("b", "c"))
	if p.Get("b") != 7 || p.Get("c") != 0 {
		t.Fatalf("project: %v", p.Values)
	}
	if !strings.Contains(v.String(), "a=3") {
		t.Fatalf("string: %q", v.String())
	}
	if NewVector(s).String() != "(zero)" {
		t.Fatal("zero string")
	}
}

func TestObservationMeanTotal(t *testing.T) {
	s := NewSet("a", "b")
	o := NewObservation("w", s)
	o.Append([]float64{1, 2})
	o.Append([]float64{3, 4})
	m := o.Mean()
	if m[0] != 2 || m[1] != 3 {
		t.Fatalf("mean: %v", m)
	}
	tot := o.Total()
	if tot[0] != 4 || tot[1] != 6 {
		t.Fatalf("total: %v", tot)
	}
	if o.Len() != 2 {
		t.Fatalf("len: %d", o.Len())
	}
}

func TestObservationProject(t *testing.T) {
	s := NewSet("a", "b")
	o := NewObservation("w", s)
	o.Append([]float64{1, 2})
	p := o.Project(NewSet("b", "c"))
	if p.Samples[0][0] != 2 || p.Samples[0][1] != 0 {
		t.Fatalf("project: %v", p.Samples)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	s := NewSet("a", "b")
	o := NewObservation("w", s)
	o.Append([]float64{1.5, 2})
	o.Append([]float64{3, 4.25})
	var buf bytes.Buffer
	if err := WriteCSV(&buf, o); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, "w")
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 || !back.Set.Equal(s) {
		t.Fatalf("roundtrip: %+v", back)
	}
	if back.Samples[1][1] != 4.25 {
		t.Fatalf("value: %v", back.Samples)
	}
}

func TestCSVBadInput(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("a,b\n1,notanumber\n"), "w"); err == nil {
		t.Fatal("expected parse error")
	}
	if _, err := ReadCSV(strings.NewReader("a,a\n1,2\n"), "w"); err == nil {
		t.Fatal("expected duplicate header error")
	}
	if _, err := ReadCSV(strings.NewReader(""), "w"); err == nil {
		t.Fatal("expected header error")
	}
}

func TestVectorProjectProperty(t *testing.T) {
	// Property: projecting onto the same set is the identity.
	f := func(a, b, c float64) bool {
		s := NewSet("x", "y", "z")
		v := NewVector(s)
		v.Values[0], v.Values[1], v.Values[2] = a, b, c
		p := v.Project(s)
		return p.Get("x") == a && p.Get("y") == b && p.Get("z") == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
