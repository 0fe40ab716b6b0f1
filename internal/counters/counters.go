// Package counters defines hardware event counter (HEC) names, the logical
// counter groups used throughout the paper (Table 2), ordered counter sets,
// dense value vectors, and observations (time series of counter samples).
//
// CounterPoint reasons about vectors of HEC values. A CounterSet fixes an
// ordering of event names so that every component of the system — μpath
// counter signatures, model cones, confidence regions, and the feasibility
// LP — indexes counters consistently.
package counters

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Event is the name of a single hardware event counter, e.g.
// "load.causes_walk" or "walk_ref.l2". Event names follow the paper's
// shorthand (Table 2) rather than the raw perf event strings.
type Event string

// AccessType distinguishes the two fundamental micro-op types the paper
// models (Appendix C: "we assume there are two fundamental micro-op types").
type AccessType string

// The two access types. Most Haswell MMU events are parameterised by one.
const (
	Load  AccessType = "load"
	Store AccessType = "store"
)

// AccessTypes lists both access types in canonical order.
func AccessTypes() []AccessType { return []AccessType{Load, Store} }

// Group names the logical counter groups of Table 2 plus the hypothetical
// MMU$ group from Figure 1b.
type Group string

// Counter groups, in the order Figure 1b and Figure 9 sweep them.
const (
	GroupRet   Group = "Ret"   // retired micro-op events (4)
	GroupSTLB  Group = "L2TLB" // second-level TLB hit events (6; paper's axis label "L2TLB | 10" counts Ret∪STLB)
	GroupWalk  Group = "Walk"  // page-walk events (12)
	GroupRefs  Group = "Refs"  // page-walker memory reference events (4)
	GroupMMUC  Group = "MMU$"  // hypothetical per-level MMU cache events (Figure 1b, green)
	GroupOther Group = "Other"
)

// Walk-group events (parameterised by access type).
const (
	CausesWalk  = "causes_walk"  // stlb_misses.miss_causes_a_walk
	WalkDone4K  = "walk_done_4k" // walk_completed_4k
	WalkDone2M  = "walk_done_2m" // walk_completed_2m_4m
	WalkDone1G  = "walk_done_1g" // walk_completed_1g
	WalkDone    = "walk_done"    // walk_completed
	PDECacheMis = "pde$_miss"    // pde_cache_miss
)

// Ret-group events.
const (
	RetSTLBMiss = "ret_stlb_miss" // mem_uops_retired.stlb_miss_Ts
	Ret         = "ret"           // mem_uops_retired.all_Ts
)

// STLB-group events.
const (
	STLBHit4K = "stlb_hit_4k"
	STLBHit2M = "stlb_hit_2m"
	STLBHit   = "stlb_hit"
)

// Refs-group events (not parameterised by access type).
const (
	WalkRefL1  Event = "walk_ref.l1"  // page_walker_loads.dtlb_l1
	WalkRefL2  Event = "walk_ref.l2"  // page_walker_loads.dtlb_l2
	WalkRefL3  Event = "walk_ref.l3"  // page_walker_loads.dtlb_l3
	WalkRefMem Event = "walk_ref.mem" // page_walker_loads.memory
)

// E builds a typed event name such as "load.causes_walk".
func E(t AccessType, suffix string) Event {
	return Event(string(t) + "." + suffix)
}

// Type reports the access type prefix of e and whether it has one.
func (e Event) Type() (AccessType, bool) {
	s := string(e)
	if strings.HasPrefix(s, "load.") {
		return Load, true
	}
	if strings.HasPrefix(s, "store.") {
		return Store, true
	}
	return "", false
}

// Registry describes the documented events and their group classification.
type Registry struct {
	groups map[Event]Group
	order  []Event
}

// NewHaswellRegistry returns the registry for the Intel Haswell MMU events
// used in the paper (Table 2), in the paper's group order, optionally
// extended with the hypothetical MMU$ group of Figure 1b.
func NewHaswellRegistry(includeMMUCache bool) *Registry {
	r := &Registry{groups: make(map[Event]Group)}
	add := func(g Group, evs ...Event) {
		for _, e := range evs {
			if _, dup := r.groups[e]; dup {
				panic(fmt.Sprintf("counters: duplicate event %q", e))
			}
			r.groups[e] = g
			r.order = append(r.order, e)
		}
	}
	for _, t := range AccessTypes() {
		add(GroupRet, E(t, RetSTLBMiss), E(t, Ret))
	}
	for _, t := range AccessTypes() {
		add(GroupSTLB, E(t, STLBHit4K), E(t, STLBHit2M), E(t, STLBHit))
	}
	for _, t := range AccessTypes() {
		add(GroupWalk,
			E(t, CausesWalk), E(t, WalkDone4K), E(t, WalkDone2M),
			E(t, WalkDone1G), E(t, WalkDone), E(t, PDECacheMis))
	}
	add(GroupRefs, WalkRefL1, WalkRefL2, WalkRefL3, WalkRefMem)
	if includeMMUCache {
		for _, t := range AccessTypes() {
			add(GroupMMUC,
				E(t, "pdpte$_miss"), E(t, "pml4e$_miss"), E(t, "pdpte$_hit"))
		}
	}
	return r
}

// Events returns all events in registry order.
func (r *Registry) Events() []Event {
	out := make([]Event, len(r.order))
	copy(out, r.order)
	return out
}

// Group returns the group of e, or GroupOther if unknown.
func (r *Registry) Group(e Event) Group {
	if g, ok := r.groups[e]; ok {
		return g
	}
	return GroupOther
}

// GroupEvents returns the events of group g in registry order.
func (r *Registry) GroupEvents(g Group) []Event {
	var out []Event
	for _, e := range r.order {
		if r.groups[e] == g {
			out = append(out, e)
		}
	}
	return out
}

// CumulativeGroups returns the cumulative counter sets used on the x-axes of
// Figures 1b and 9: Ret | 4, L2TLB | 10, Walk | 22, Refs | 26 (the paper
// labels the Refs step "23" because it drops the redundant T.walk_done
// aggregates; we keep both variants available via dropAggregates).
func (r *Registry) CumulativeGroups(dropAggregates bool) []GroupStep {
	groupsInOrder := []Group{GroupRet, GroupSTLB, GroupWalk, GroupRefs}
	if len(r.GroupEvents(GroupMMUC)) > 0 {
		groupsInOrder = append(groupsInOrder, GroupMMUC)
	}
	var steps []GroupStep
	var acc []Event
	for _, g := range groupsInOrder {
		for _, e := range r.GroupEvents(g) {
			if dropAggregates && g == GroupRefs {
				// Drop the per-type walk_done aggregate when the Refs step is
				// reached, mirroring the paper's 23-counter "Refs" step.
				acc = removeEvent(acc, E(Load, WalkDone))
				dropAggregates = false
			}
			acc = append(acc, e)
		}
		set := NewSet(acc...)
		steps = append(steps, GroupStep{Group: g, Set: set})
	}
	return steps
}

func removeEvent(evs []Event, e Event) []Event {
	out := evs[:0]
	for _, x := range evs {
		if x != e {
			out = append(out, x)
		}
	}
	return out
}

// GroupStep is one point on the cumulative counter-group axis.
type GroupStep struct {
	Group Group
	Set   *Set
}

// Set is an ordered, indexable set of events. The ordering defines vector
// component positions for every numeric structure in CounterPoint. Sets
// are immutable once built.
type Set struct {
	events []Event
	index  map[Event]int

	keyOnce sync.Once
	key     string
}

// NewSet builds a Set from events, preserving first-occurrence order and
// dropping duplicates.
func NewSet(events ...Event) *Set {
	s := &Set{index: make(map[Event]int, len(events)), events: make([]Event, 0, len(events))}
	for _, e := range events {
		if _, dup := s.index[e]; dup {
			continue
		}
		s.index[e] = len(s.events)
		s.events = append(s.events, e)
	}
	return s
}

// NewSortedSet builds a Set with events in lexicographic order.
func NewSortedSet(events ...Event) *Set {
	sorted := make([]Event, len(events))
	copy(sorted, events)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return NewSet(sorted...)
}

// Len returns the number of events in the set.
func (s *Set) Len() int { return len(s.events) }

// Events returns the events in set order.
func (s *Set) Events() []Event {
	out := make([]Event, len(s.events))
	copy(out, s.events)
	return out
}

// Index returns the vector index of e and whether e is in the set.
func (s *Set) Index(e Event) (int, bool) {
	i, ok := s.index[e]
	return i, ok
}

// Contains reports whether e is in the set.
func (s *Set) Contains(e Event) bool {
	_, ok := s.index[e]
	return ok
}

// At returns the event at index i.
func (s *Set) At(i int) Event { return s.events[i] }

// Union returns a new set containing the events of s followed by any events
// of t not already present.
func (s *Set) Union(t *Set) *Set {
	return NewSet(append(s.Events(), t.Events()...)...)
}

// Subset reports whether every event of s is contained in t.
func (s *Set) Subset(t *Set) bool {
	for _, e := range s.events {
		if !t.Contains(e) {
			return false
		}
	}
	return true
}

// Restrict returns the events of s that are also in keep, preserving order.
func (s *Set) Restrict(keep *Set) *Set {
	var evs []Event
	for _, e := range s.events {
		if keep.Contains(e) {
			evs = append(evs, e)
		}
	}
	return NewSet(evs...)
}

// Equal reports whether s and t contain the same events in the same order.
func (s *Set) Equal(t *Set) bool {
	if s.Len() != t.Len() {
		return false
	}
	for i, e := range s.events {
		if t.events[i] != e {
			return false
		}
	}
	return true
}

// String renders the set as a comma-separated list.
func (s *Set) String() string {
	parts := make([]string, len(s.events))
	for i, e := range s.events {
		parts[i] = string(e)
	}
	return strings.Join(parts, ",")
}

// Key returns the set's canonical identity string (equal to String),
// memoised so cache lookups keyed by counter set do not re-render it.
func (s *Set) Key() string {
	s.keyOnce.Do(func() { s.key = s.String() })
	return s.key
}

// Vector is a dense vector of counter values aligned with a Set.
type Vector struct {
	Set    *Set
	Values []float64
}

// NewVector returns a zero vector over set.
func NewVector(set *Set) Vector {
	return Vector{Set: set, Values: make([]float64, set.Len())}
}

// Get returns the value of event e (0 if absent).
func (v Vector) Get(e Event) float64 {
	if i, ok := v.Set.Index(e); ok {
		return v.Values[i]
	}
	return 0
}

// Add increments event e by delta; events outside the set are ignored,
// matching hardware where unprogrammed counters simply do not count.
func (v Vector) Add(e Event, delta float64) {
	if i, ok := v.Set.Index(e); ok {
		v.Values[i] += delta
	}
}

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	out := Vector{Set: v.Set, Values: make([]float64, len(v.Values))}
	copy(out.Values, v.Values)
	return out
}

// Plus returns v + w; both must share the same Set.
func (v Vector) Plus(w Vector) Vector {
	if !v.Set.Equal(w.Set) {
		panic("counters: vector set mismatch")
	}
	out := v.Clone()
	for i := range out.Values {
		out.Values[i] += w.Values[i]
	}
	return out
}

// Project re-expresses v over target, dropping events not in target and
// zero-filling events of target absent from v.
func (v Vector) Project(target *Set) Vector {
	out := NewVector(target)
	for i, e := range v.Set.events {
		out.Add(e, v.Values[i])
	}
	return out
}

// String renders non-zero entries as "event=value" pairs.
func (v Vector) String() string {
	var b strings.Builder
	first := true
	for i, e := range v.Set.events {
		if v.Values[i] == 0 {
			continue
		}
		if !first {
			b.WriteString(" ")
		}
		first = false
		fmt.Fprintf(&b, "%s=%g", e, v.Values[i])
	}
	if first {
		return "(zero)"
	}
	return b.String()
}

// Observation is a labelled time series of counter sample vectors for one
// program execution, as recorded at regular intervals (paper §4).
type Observation struct {
	// Label identifies the workload/configuration that produced the samples.
	Label string
	// Set is the counter set shared by all samples.
	Set *Set
	// Samples holds one vector of per-interval counter values per row.
	Samples [][]float64
}

// NewObservation creates an empty observation over set.
func NewObservation(label string, set *Set) *Observation {
	return &Observation{Label: label, Set: set}
}

// Append adds one sample row (copied) to the observation.
func (o *Observation) Append(sample []float64) {
	if len(sample) != o.Set.Len() {
		panic(fmt.Sprintf("counters: sample width %d != set width %d", len(sample), o.Set.Len()))
	}
	row := make([]float64, len(sample))
	copy(row, sample)
	o.Samples = append(o.Samples, row)
}

// Len returns the number of samples.
func (o *Observation) Len() int { return len(o.Samples) }

// Mean returns the per-counter sample mean Ȳ.
func (o *Observation) Mean() []float64 {
	n := o.Set.Len()
	mean := make([]float64, n)
	if len(o.Samples) == 0 {
		return mean
	}
	for _, row := range o.Samples {
		for i, x := range row {
			mean[i] += x
		}
	}
	inv := 1.0 / float64(len(o.Samples))
	for i := range mean {
		mean[i] *= inv
	}
	return mean
}

// Total returns the per-counter sums over all samples.
func (o *Observation) Total() []float64 {
	n := o.Set.Len()
	tot := make([]float64, n)
	for _, row := range o.Samples {
		for i, x := range row {
			tot[i] += x
		}
	}
	return tot
}

// Project returns a copy of the observation restricted to target's events.
func (o *Observation) Project(target *Set) *Observation {
	out := NewObservation(o.Label, target)
	idx := make([]int, target.Len())
	for j := 0; j < target.Len(); j++ {
		if i, ok := o.Set.Index(target.At(j)); ok {
			idx[j] = i
		} else {
			idx[j] = -1
		}
	}
	for _, row := range o.Samples {
		proj := make([]float64, target.Len())
		for j, i := range idx {
			if i >= 0 {
				proj[j] = row[i]
			}
		}
		out.Samples = append(out.Samples, proj)
	}
	return out
}
