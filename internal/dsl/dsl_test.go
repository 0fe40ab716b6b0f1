package dsl

import (
	"strings"
	"testing"

	"repro/internal/counters"
)

// figure2Src is the model specification from Figure 2 of the paper.
const figure2Src = `
incr load.causes_walk;
do LookupPde$;
switch Pde$Status {
    Hit  => pass;
    Miss => incr load.pde$_miss
};
done;
`

func TestCompileFigure2(t *testing.T) {
	d, err := Compile("fig2", figure2Src)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := d.Paths()
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("got %d μpaths, want 2", len(paths))
	}
	set := d.Counters()
	if !set.Equal(counters.NewSet("load.causes_walk", "load.pde$_miss")) {
		t.Fatalf("counters: %v", set.Events())
	}
	sigs := map[string]bool{}
	for _, p := range paths {
		sigs[d.Signature(p, set).Key()] = true
	}
	if !sigs["1|0"] || !sigs["1|1"] {
		t.Fatalf("signatures: %v", sigs)
	}
}

func TestCompileFigure6c(t *testing.T) {
	// The refined model of Figure 6c: PDE$ looked up first, walks can
	// abort after a PDE cache miss.
	src := `
do LookupPde$;
switch Pde$Status {
    Hit  => pass;
    Miss => {
        incr load.pde$_miss;
        switch Abort {
            Yes => done;
            No  => pass;
        };
    };
};
do StartWalk;
incr load.causes_walk;
done;
`
	d, err := Compile("fig6c", src)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := d.Paths()
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 {
		t.Fatalf("got %d μpaths, want 3", len(paths))
	}
	set := counters.NewSet("load.causes_walk", "load.pde$_miss")
	sigs := map[string]bool{}
	for _, p := range paths {
		sigs[d.Signature(p, set).Key()] = true
	}
	// Hit path: (1,0); Miss+NoAbort: (1,1); Miss+Abort: (0,1) — the μpath
	// whose signature violates constraint C (Figure 6d).
	for _, want := range []string{"1|0", "1|1", "0|1"} {
		if !sigs[want] {
			t.Fatalf("missing signature %s: %v", want, sigs)
		}
	}
}

func TestCompileUopBlocks(t *testing.T) {
	src := `
uop Load {
    incr load.ret;
}
uop Store {
    incr store.ret;
}
`
	d, err := Compile("uops", src)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := d.Paths()
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("got %d paths, want 2", len(paths))
	}
	set := counters.NewSet("load.ret", "store.ret")
	sigs := map[string]bool{}
	for _, p := range paths {
		sigs[d.Signature(p, set).Key()] = true
	}
	if !sigs["1|0"] || !sigs["0|1"] {
		t.Fatalf("signatures: %v", sigs)
	}
}

func TestPropertyConsistencyAcrossSwitches(t *testing.T) {
	src := `
switch P {
    A => incr x;
    B => pass;
};
switch P {
    A => incr y;
    B => pass;
};
`
	d, err := Compile("consistent", src)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := d.Paths()
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("got %d paths, want 2 (property consistency)", len(paths))
	}
}

func TestImplicitDone(t *testing.T) {
	d, err := Compile("implicit", "incr a;")
	if err != nil {
		t.Fatal(err)
	}
	paths, err := d.Paths()
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 {
		t.Fatalf("paths: %d", len(paths))
	}
}

func TestEmptyProgram(t *testing.T) {
	d, err := Compile("empty", "")
	if err != nil {
		t.Fatal(err)
	}
	paths, err := d.Paths()
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 {
		t.Fatalf("empty program should have exactly the trivial path, got %d", len(paths))
	}
}

func TestAllPathsDone(t *testing.T) {
	// Every arm ends in done: no implicit END needed, no dangling nodes.
	src := `
switch P {
    A => done;
    B => done;
};
`
	d, err := Compile("alldone", src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Paths(); err != nil {
		t.Fatal(err)
	}
}

func TestSyntaxErrors(t *testing.T) {
	cases := []struct {
		src     string
		wantSub string
	}{
		{"incr;", "expected identifier"},
		{"bogus x;", "unknown statement"},
		{"switch P { };", "no cases"},
		{"switch P { A => pass; A => pass; };", "duplicate case"},
		{"done; incr x;", "unreachable statement after done"},
		{"incr x = 3;", "did you mean"},
		{"@", "unexpected character"},
		{"switch P { A -> pass; };", "unexpected character"},
		{"switch P { A pass; };", "expected '=>'"},
		{"incr a incr b;", "expected ';'"},
	}
	for i, tc := range cases {
		_, err := Compile("bad", tc.src)
		if err == nil {
			t.Errorf("case %d (%q): expected error", i, tc.src)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("case %d (%q): error %q does not contain %q", i, tc.src, err, tc.wantSub)
		}
	}
}

func TestErrorPosition(t *testing.T) {
	_, err := Compile("pos", "incr a;\nbogus;")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "line 2:1") {
		t.Fatalf("error %q lacks position", err)
	}
}

func TestComments(t *testing.T) {
	src := `
// leading comment
incr a; # trailing comment
done;
`
	if _, err := Compile("comments", src); err != nil {
		t.Fatal(err)
	}
}

func TestSharedMergePoint(t *testing.T) {
	// Both switch arms fall through; the remainder must be compiled once
	// (shared merge node), not duplicated.
	src := `
switch P {
    A => incr x;
    B => incr y;
};
incr z;
`
	d, err := Compile("merge", src)
	if err != nil {
		t.Fatal(err)
	}
	zCount := 0
	for _, n := range d.Nodes() {
		if n.Label == "z" {
			zCount++
		}
	}
	if zCount != 1 {
		t.Fatalf("merge point duplicated: %d z nodes", zCount)
	}
}

func TestMustCompilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustCompile("bad", "bogus;")
}
