package dsl

import (
	"strings"
	"testing"

	"repro/internal/counters"
)

const messySrc = `
incr load.causes_walk; do LookupPde$;
switch Pde$Status { Hit => pass;
    Miss => { incr load.pde$_miss; switch Abort { Yes => done; No => pass; }; };
};
done;
`

func TestFormatFixpoint(t *testing.T) {
	once, err := FormatSource(messySrc)
	if err != nil {
		t.Fatal(err)
	}
	twice, err := FormatSource(once)
	if err != nil {
		t.Fatal(err)
	}
	if once != twice {
		t.Fatalf("formatting is not a fixpoint:\n--- once ---\n%s--- twice ---\n%s", once, twice)
	}
}

func TestFormatPreservesSemantics(t *testing.T) {
	// The formatted source must compile to a μDD with identical μpath
	// counter signatures.
	formatted, err := FormatSource(messySrc)
	if err != nil {
		t.Fatal(err)
	}
	set := counters.NewSet("load.causes_walk", "load.pde$_miss")
	orig, err := Compile("orig", messySrc)
	if err != nil {
		t.Fatal(err)
	}
	fmted, err := Compile("fmt", formatted)
	if err != nil {
		t.Fatal(err)
	}
	os, err := orig.Signatures(set)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := fmted.Signatures(set)
	if err != nil {
		t.Fatal(err)
	}
	a := map[string]int{}
	for _, s := range os {
		a[s.Vec().Key()]++
	}
	b := map[string]int{}
	for _, s := range fs {
		b[s.Vec().Key()]++
	}
	if len(a) != len(b) {
		t.Fatalf("signature sets differ: %v vs %v", a, b)
	}
	for k, v := range a {
		if b[k] != v {
			t.Fatalf("signature multiset differs at %s: %d vs %d", k, v, b[k])
		}
	}
}

func TestFormatUopBlocks(t *testing.T) {
	src := "uop Load { incr load.ret; }\nuop Store { incr store.ret; }\n"
	out, err := FormatSource(src)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "uop Load {") || !strings.Contains(out, "uop Store {") {
		t.Fatalf("uop blocks missing:\n%s", out)
	}
	if _, err := Parse(out); err != nil {
		t.Fatalf("formatted uop source does not parse: %v", err)
	}
}

func TestFormatInlineCases(t *testing.T) {
	out, err := FormatSource("switch P { A => incr x; B => done; };")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "A => incr x;") {
		t.Fatalf("single statements should stay inline:\n%s", out)
	}
}

func TestFormatBadSource(t *testing.T) {
	if _, err := FormatSource("bogus;"); err == nil {
		t.Fatal("bad source should error")
	}
}
