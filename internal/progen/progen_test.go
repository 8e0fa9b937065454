package progen

import (
	"strings"
	"testing"

	"localalias/internal/parser"
	"localalias/internal/source"
	"localalias/internal/types"
)

func TestGenerateDeterministic(t *testing.T) {
	if Generate(42) != Generate(42) {
		t.Error("same seed must generate the same program")
	}
	if Generate(1) == Generate(2) {
		t.Error("different seeds should generate different programs")
	}
}

func TestGenerateWellTyped(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		src := Generate(seed)
		var diags source.Diagnostics
		prog := parser.Parse("gen.mc", src, &diags)
		if diags.HasErrors() {
			t.Fatalf("seed %d: parse errors:\n%s\n%s", seed, diags.String(), src)
		}
		types.Check(prog, &diags)
		if diags.HasErrors() {
			t.Fatalf("seed %d: type errors:\n%s\n%s", seed, diags.String(), src)
		}
	}
}

func TestGenerateUsesTheInterestingForms(t *testing.T) {
	// Across a seed range, the generator must exercise restrict
	// scopes, aliases, stores and conditionals.
	var all strings.Builder
	for seed := int64(0); seed < 50; seed++ {
		all.WriteString(Generate(seed))
	}
	s := all.String()
	for _, form := range []string{"restrict ", "new ", "if (", "} else {", "*x"} {
		if !strings.Contains(s, form) {
			t.Errorf("generator never produced %q", form)
		}
	}
}

func TestLockingDeterministicAndWellTyped(t *testing.T) {
	if Locking(42) != Locking(42) {
		t.Error("same seed must generate the same program")
	}
	var all strings.Builder
	for seed := int64(0); seed < 500; seed++ {
		src := Locking(seed)
		all.WriteString(src)
		var diags source.Diagnostics
		prog := parser.Parse("lock.mc", src, &diags)
		types.Check(prog, &diags)
		if diags.HasErrors() {
			t.Fatalf("seed %d: %s\n%s", seed, diags.String(), src)
		}
	}
	// The scoping shapes: a let between a pair used after it, a lock
	// call on a name bound inside a branch, and a bound name.
	s := all.String()
	for _, form := range []string{"print(t", "    let p = ", "    let q = ", "spin_lock(p);", "spin_unlock(q);"} {
		if !strings.Contains(s, form) {
			t.Errorf("generator never produced %q", form)
		}
	}
}
