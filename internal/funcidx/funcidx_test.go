package funcidx

import (
	"reflect"
	"testing"
)

const base = `
struct pair { a: int; b: int; }

global counter: ref int;
global l: lock;

fun leaf(x: int): int {
    return x;
}

fun helper(y: int): int {
    let p = new pair;
    return leaf(y);
}

fun touches_lock(): unit {
    let c = counter;
}

fun main(): int {
    return helper(1);
}
`

func TestBuildIndexesDecls(t *testing.T) {
	ix := Build("m.mc", base)
	if got := ix.NumFuncs(); got != 4 {
		t.Fatalf("indexed %d functions, want 4", got)
	}
	for _, want := range []struct {
		kind DeclKind
		name string
	}{
		{KindStruct, "pair"}, {KindGlobal, "counter"}, {KindGlobal, "l"},
		{KindFunc, "leaf"}, {KindFunc, "helper"}, {KindFunc, "touches_lock"}, {KindFunc, "main"},
	} {
		if ix.Lookup(want.kind, want.name) == nil {
			t.Errorf("missing %s %s", want.kind, want.name)
		}
	}
	if got := ix.Func("helper").Calls; !reflect.DeepEqual(got, []string{"leaf"}) {
		t.Errorf("helper calls %v, want [leaf]", got)
	}
	if got := ix.Func("helper").Refs; !reflect.DeepEqual(got, []string{"pair"}) {
		t.Errorf("helper refs %v, want [pair]", got)
	}
	if got := ix.Func("touches_lock").Refs; !reflect.DeepEqual(got, []string{"counter"}) {
		t.Errorf("touches_lock refs %v, want [counter]", got)
	}
	if got := ix.Func("main").Calls; !reflect.DeepEqual(got, []string{"helper"}) {
		t.Errorf("main calls %v, want [helper]", got)
	}
}

// TestCommentWhitespaceEditInvisible pins the incremental design's
// comment/whitespace rule: a trivia-only edit produces an empty delta,
// so zero functions are invalidated.
func TestCommentWhitespaceEditInvisible(t *testing.T) {
	edited := "// leading comment\n\n/* block\n   comment */\n" + base + "\n\n   // trailing\n"
	d := Diff(Build("m.mc", base), Build("m.mc", edited))
	if !d.Empty() {
		t.Fatalf("trivia-only edit produced a delta: %+v", d)
	}
	if inv := Invalidated(Build("m.mc", base), Build("m.mc", edited), d); len(inv) != 0 {
		t.Fatalf("trivia-only edit invalidated %v", inv)
	}
}

// TestBodyEditInvalidatesCallers: editing leaf's body dirties leaf and
// its transitive callers (helper via the direct call, main via
// helper), but not the unrelated touches_lock.
func TestBodyEditInvalidatesCallers(t *testing.T) {
	edited := replace(t, base, "return x;", "return x + 1;")
	old, new := Build("m.mc", base), Build("m.mc", edited)
	d := Diff(old, new)
	if !reflect.DeepEqual(d.Changed, []string{"fun leaf"}) || len(d.Added)+len(d.Removed) != 0 {
		t.Fatalf("unexpected delta: %+v", d)
	}
	if got := Invalidated(old, new, d); !reflect.DeepEqual(got, []string{"helper", "leaf", "main"}) {
		t.Fatalf("invalidated %v, want [helper leaf main]", got)
	}
}

// TestSignatureChangeInvalidatesCallers: a signature-only edit (the
// body untouched) must still dirty the function and its callers.
func TestSignatureChangeInvalidatesCallers(t *testing.T) {
	edited := replace(t, base, "fun leaf(x: int): int", "fun leaf(x: int, z: int): int")
	old, new := Build("m.mc", base), Build("m.mc", edited)
	d := Diff(old, new)
	if !reflect.DeepEqual(d.Changed, []string{"fun leaf"}) {
		t.Fatalf("unexpected delta: %+v", d)
	}
	if got := Invalidated(old, new, d); !reflect.DeepEqual(got, []string{"helper", "leaf", "main"}) {
		t.Fatalf("invalidated %v, want [helper leaf main]", got)
	}
}

// TestRenameIsRemovePlusAdd: renaming a function is a removal plus an
// addition; the new name is dirty, and the old name's callers are
// dirty because they now dangle (here: helper, and main above it).
func TestRenameIsRemovePlusAdd(t *testing.T) {
	edited := replace(t, base, "fun leaf(", "fun frond(")
	old, new := Build("m.mc", base), Build("m.mc", edited)
	d := Diff(old, new)
	if !reflect.DeepEqual(d.Added, []string{"fun frond"}) || !reflect.DeepEqual(d.Removed, []string{"fun leaf"}) {
		t.Fatalf("unexpected delta: %+v", d)
	}
	got := Invalidated(old, new, d)
	if !reflect.DeepEqual(got, []string{"frond", "helper", "main"}) {
		t.Fatalf("invalidated %v, want [frond helper main]", got)
	}
}

// TestLockHeaderEditInvalidatesAllDependents: editing a shared
// global's declaration (a lock or a plain cell) dirties every function
// that mentions it, plus their callers.
func TestLockHeaderEditInvalidatesAllDependents(t *testing.T) {
	edited := replace(t, base, "global counter: ref int;", "global counter: int;")
	old, new := Build("m.mc", base), Build("m.mc", edited)
	d := Diff(old, new)
	if !reflect.DeepEqual(d.Changed, []string{"global counter"}) {
		t.Fatalf("unexpected delta: %+v", d)
	}
	if got := Invalidated(old, new, d); !reflect.DeepEqual(got, []string{"touches_lock"}) {
		t.Fatalf("invalidated %v, want [touches_lock]", got)
	}
}

// TestStructEditInvalidatesUsers: a struct edit dirties the functions
// mentioning the type and their transitive callers.
func TestStructEditInvalidatesUsers(t *testing.T) {
	edited := replace(t, base, "struct pair { a: int; b: int; }", "struct pair { a: int; b: int; c: int; }")
	old, new := Build("m.mc", base), Build("m.mc", edited)
	d := Diff(old, new)
	if !reflect.DeepEqual(d.Changed, []string{"struct pair"}) {
		t.Fatalf("unexpected delta: %+v", d)
	}
	// helper uses pair; main calls helper.
	if got := Invalidated(old, new, d); !reflect.DeepEqual(got, []string{"helper", "main"}) {
		t.Fatalf("invalidated %v, want [helper main]", got)
	}
}

// TestHashesArePositionFree: the same declaration at different offsets
// hashes identically.
func TestHashesArePositionFree(t *testing.T) {
	a := Build("m.mc", base)
	b := Build("m.mc", "\n\n// shift everything\n"+base)
	for _, d := range a.Decls {
		od := b.Lookup(d.Kind, d.Name)
		if od == nil {
			t.Fatalf("%s %s missing after shift", d.Kind, d.Name)
		}
		if od.Hash != d.Hash {
			t.Errorf("%s %s hash changed under a pure position shift", d.Kind, d.Name)
		}
		if od.Span == d.Span {
			t.Errorf("%s %s span did not shift (test is vacuous)", d.Kind, d.Name)
		}
	}
}

// TestMalformedSourceDegrades: garbage input still builds an index of
// the recognizable declarations instead of failing.
func TestMalformedSourceDegrades(t *testing.T) {
	ix := Build("m.mc", "??? fun ok() { } @@@ global g: int; fun { }")
	if ix.Func("ok") == nil {
		t.Error("recognizable function not indexed")
	}
	if ix.Lookup(KindGlobal, "g") == nil {
		t.Error("recognizable global not indexed")
	}
}

func replace(t *testing.T, src, old, new string) string {
	t.Helper()
	i := index(src, old)
	if i < 0 {
		t.Fatalf("edit target %q not found", old)
	}
	return src[:i] + new + src[i+len(old):]
}

func index(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
