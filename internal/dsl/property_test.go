package dsl

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/counters"
)

// randomProgram emits a random syntactically valid DSL program. Each
// switch gets a globally unique property name so arm sets never conflict.
func randomProgram(rng *rand.Rand, depth int) string {
	var b strings.Builder
	next := 0
	emitStmts(rng, &b, depth, &next)
	return b.String()
}

func emitStmts(rng *rand.Rand, b *strings.Builder, depth int, next *int) {
	n := rng.Intn(3) + 1
	for i := 0; i < n; i++ {
		switch rng.Intn(4) {
		case 0:
			fmt.Fprintf(b, "incr c%d;\n", rng.Intn(4))
		case 1:
			fmt.Fprintf(b, "do ev%d;\n", rng.Intn(4))
		case 2:
			b.WriteString("pass;\n")
		default:
			if depth <= 0 {
				fmt.Fprintf(b, "incr c%d;\n", rng.Intn(4))
				continue
			}
			// A fresh property per switch keeps the generator simple and
			// the program trivially consistent.
			fmt.Fprintf(b, "switch Q%d {\n", *next)
			*next++
			arms := rng.Intn(2) + 2
			for a := 0; a < arms; a++ {
				fmt.Fprintf(b, "V%d => {\n", a)
				emitStmts(rng, b, depth-1, next)
				if rng.Intn(4) == 0 {
					b.WriteString("done;\n")
				}
				b.WriteString("};\n")
			}
			b.WriteString("};\n")
		}
	}
}

// TestRandomProgramsCompileAndRoundTrip: random programs compile to valid
// μDDs, and formatting preserves the compiled signature multiset.
func TestRandomProgramsCompileAndRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	set := counters.NewSet("c0", "c1", "c2", "c3")
	for trial := 0; trial < 120; trial++ {
		src := randomProgram(rng, 2)
		d, err := Compile(fmt.Sprintf("rand%d", trial), src)
		if err != nil {
			t.Fatalf("trial %d: compile: %v\n%s", trial, err, src)
		}
		paths, err := d.Paths()
		if err != nil {
			t.Fatalf("trial %d: paths: %v", trial, err)
		}
		if len(paths) == 0 {
			t.Fatalf("trial %d: no μpaths", trial)
		}
		formatted, err := FormatSource(src)
		if err != nil {
			t.Fatalf("trial %d: format: %v", trial, err)
		}
		d2, err := Compile("fmt", formatted)
		if err != nil {
			t.Fatalf("trial %d: recompile formatted: %v\n%s", trial, err, formatted)
		}
		s1, err := d.Signatures(set)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := d2.Signatures(set)
		if err != nil {
			t.Fatal(err)
		}
		m1 := map[string]int{}
		for _, s := range s1 {
			m1[s.Vec().Key()]++
		}
		m2 := map[string]int{}
		for _, s := range s2 {
			m2[s.Vec().Key()]++
		}
		if len(m1) != len(m2) {
			t.Fatalf("trial %d: signature sets differ after formatting", trial)
		}
		for k, v := range m1 {
			if m2[k] != v {
				t.Fatalf("trial %d: signature multiset differs at %s", trial, k)
			}
		}
	}
}
