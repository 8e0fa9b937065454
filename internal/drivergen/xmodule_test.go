package drivergen

import "testing"

// TestXStackShape checks the stack's structure: one header, two
// helper libraries, N leaves, with XB units strictly rarer than XA so
// the summary pass wins every aggregate column (the analysis-level
// assertions live in internal/modgraph).
func TestXStackShape(t *testing.T) {
	const leaves = 7
	mods := XStack(leaves)
	if len(mods) != 3+leaves {
		t.Fatalf("len = %d, want %d", len(mods), 3+leaves)
	}
	byName := map[string]XModule{}
	for _, m := range mods {
		byName[m.Name] = m
		if m.Source == "" {
			t.Errorf("%s: empty source", m.Name)
		}
	}
	for _, want := range []string{"xhdr", "xio", "xqueue"} {
		if _, ok := byName[want]; !ok {
			t.Fatalf("missing %s", want)
		}
	}
	for _, m := range mods[3:] {
		if len(m.Deps) != 2 {
			t.Errorf("%s: deps = %v, want xio+xqueue", m.Name, m.Deps)
		}
	}

	havoc, summary := XStackExpected(mods)
	for col, pair := range [][2]int{
		{summary.NoConfine, havoc.NoConfine},
		{summary.Confine, havoc.Confine},
		{summary.AllStrong, havoc.AllStrong},
	} {
		if pair[0] >= pair[1] {
			t.Errorf("column %d: summary expectation %d not strictly below havoc %d",
				col, pair[0], pair[1])
		}
	}
}

// TestXStackDeterministic checks the generator is a pure function of
// its input (the -xmodule table and the modgraph tests rerun it and
// compare outcomes).
func TestXStackDeterministic(t *testing.T) {
	a, b := XStack(4), XStack(4)
	for i := range a {
		if a[i].Source != b[i].Source || a[i].Name != b[i].Name {
			t.Fatalf("module %d differs across generations", i)
		}
	}
}
