package types

import (
	"strings"
	"testing"

	"localalias/internal/ast"
	"localalias/internal/parser"
	"localalias/internal/source"
)

func checkOK(t *testing.T, src string) *Info {
	t.Helper()
	var diags source.Diagnostics
	prog := parser.Parse("test.mc", src, &diags)
	if diags.HasErrors() {
		t.Fatalf("parse errors:\n%s", diags.String())
	}
	info := Check(prog, &diags)
	if diags.HasErrors() {
		t.Fatalf("type errors:\n%s", diags.String())
	}
	return info
}

func checkBad(t *testing.T, src, wantSubstr string) {
	t.Helper()
	var diags source.Diagnostics
	prog := parser.Parse("test.mc", src, &diags)
	if diags.HasErrors() {
		t.Fatalf("parse errors:\n%s", diags.String())
	}
	Check(prog, &diags)
	if !diags.HasErrors() {
		t.Fatalf("expected type error containing %q, got none", wantSubstr)
	}
	if wantSubstr != "" && !strings.Contains(diags.String(), wantSubstr) {
		t.Fatalf("expected error containing %q, got:\n%s", wantSubstr, diags.String())
	}
}

func TestCheckFigure1(t *testing.T) {
	info := checkOK(t, `
global locks: lock[8];
fun foo(i: int) {
    do_with_lock(&locks[i]);
}
fun do_with_lock(l: ref lock) {
    spin_lock(l);
    work();
    spin_unlock(l);
}
`)
	sig := info.Funs["do_with_lock"]
	if sig == nil || len(sig.Params) != 1 {
		t.Fatal("missing signature")
	}
	if sig.Params[0].String() != "ref lock" {
		t.Errorf("param: %s", sig.Params[0])
	}
}

func TestCheckLocksSecondClass(t *testing.T) {
	checkBad(t, `
global l: lock;
fun f() {
    let x = l;
}
`, "let initializer must be a scalar")
	checkBad(t, `
global a: lock; global b: lock;
fun f() {
    a = b;
}
`, "lock")
}

func TestCheckAggregatesSecondClass(t *testing.T) {
	checkBad(t, `
global a: int[4];
fun f() {
    let x = a;
}
`, "")
	checkBad(t, `
struct s { x: int; }
global a: s; global b: s;
fun f() {
    a = b;
}
`, "")
	checkBad(t, `
global a: int[4];
fun f(): ref int {
    return &a;
}
`, "address of whole array")
}

func TestCheckLocalsNotAddressable(t *testing.T) {
	checkBad(t, `
fun f() {
    let x = 1;
    let p = &x;
}
`, "bound value")
	checkBad(t, `
fun f(x: int) {
    x = 2;
}
`, "bound value")
}

func TestCheckDerefAndNew(t *testing.T) {
	info := checkOK(t, `
fun f(): int {
    let p = new 41;
    *p = *p + 1;
    return *p;
}
`)
	_ = info
	checkBad(t, `fun f() { let x = 1; let y = *x; }`, "cannot dereference int")
	checkBad(t, `fun f() { let p = new work(); }`, "scalar")
}

func TestCheckStructAlloc(t *testing.T) {
	info := checkOK(t, `
struct dev { l: lock; n: int; }
fun f(): int {
    let d = new dev;
    spin_lock(&d->l);
    d->n = 3;
    spin_unlock(&d->l);
    return d->n;
}
`)
	found := false
	ast.Inspect(info.Prog, func(n ast.Node) bool {
		if e, ok := n.(*ast.NewExpr); ok {
			if sd := info.StructAllocOf(e); sd != nil && sd.Name == "dev" {
				found = true
			}
		}
		return true
	})
	if !found {
		t.Error("struct allocation not recorded")
	}
}

func TestCheckFieldErrors(t *testing.T) {
	checkBad(t, `
struct dev { l: lock; }
fun f(d: ref dev) {
    d->missing = 1;
}
`, "no field")
	checkBad(t, `
fun f(x: int) {
    let y = x.f;
}
`, "field access on non-struct")
}

func TestCheckStructContainmentCycle(t *testing.T) {
	checkBad(t, `
struct a { x: b; }
struct b { y: a; }
fun f() { return; }
`, "contains itself by value")
	// Via ref is fine.
	checkOK(t, `
struct node { next: ref node; v: int; }
fun f(n: ref node): int { return n->v; }
`)
}

func TestCheckCalls(t *testing.T) {
	checkBad(t, `fun f() { g(); }`, "undefined function")
	checkBad(t, `
fun g(x: int): int { return x; }
fun f() { g(); }
`, "expects 1 argument")
	checkBad(t, `
fun g(x: int): int { return x; }
fun f(p: ref int) { g(p); }
`, "cannot use ref int as int")
	checkBad(t, `
fun g(): int { return 1; }
fun g(): int { return 2; }
`, "redeclared")
	checkBad(t, `fun spin_lock(l: ref lock) { work(); }`, "builtin")
}

func TestCheckReturns(t *testing.T) {
	checkBad(t, `fun f(): int { return; }`, "missing return value")
	checkBad(t, `fun f() { return 3; }`, "unexpected return value")
	checkBad(t, `fun f(): int { return new 1; }`, "cannot return ref int")
}

func TestCheckRestrictRequiresPointer(t *testing.T) {
	checkBad(t, `
fun f() {
    restrict p = 3 {
        work();
    }
}
`, "restrict initializer must be a pointer")
	checkOK(t, `
fun f(q: ref int) {
    restrict p = q {
        *p = 1;
    }
}
`)
	checkBad(t, `
fun f() {
    restrict p = 3;
}
`, "restrict initializer must be a pointer")
	checkOK(t, `
fun f(q: ref int) {
    restrict p = q;
    *p = 1;
}
`)
}

func TestCheckConfineRequiresPointer(t *testing.T) {
	checkBad(t, `
fun f() {
    confine 3 {
        work();
    }
}
`, "confined expression must be a pointer")
	checkOK(t, `
global locks: lock[4];
fun f(i: int) {
    confine &locks[i] {
        spin_lock(&locks[i]);
        spin_unlock(&locks[i]);
    }
}
`)
}

func TestCheckScopes(t *testing.T) {
	checkBad(t, `
fun f() {
    let x = 1;
    let x = 2;
}
`, "redeclared in this scope")
	// Shadowing in a nested scope is allowed.
	checkOK(t, `
fun f(q: ref int) {
    let x = 1;
    restrict x = q {
        *x = 2;
    }
    let y = x + 1;
}
`)
	// A let bound in an inner block is not visible outside.
	checkBad(t, `
fun f() {
    if (1) {
        let x = 1;
    }
    let y = x;
}
`, "undefined name")
}

func TestCheckGlobalScalar(t *testing.T) {
	info := checkOK(t, `
global counter: int;
fun f(): int {
    counter = counter + 1;
    return counter;
}
`)
	sym := info.Globals["counter"]
	if sym == nil || !Equal(sym.Type, IntType) {
		t.Fatalf("counter symbol: %+v", sym)
	}
}

func TestCheckCondMustBeInt(t *testing.T) {
	checkBad(t, `fun f(p: ref int) { if (p) { work(); } }`, "condition must be int")
	checkBad(t, `fun f(p: ref int) { while (p) { work(); } }`, "condition must be int")
	checkOK(t, `fun f(p: ref int, q: ref int) { if (p == q) { work(); } }`)
}

func TestCheckComparisonTypes(t *testing.T) {
	checkBad(t, `fun f(p: ref int, x: int) { if (p == x) { work(); } }`, "mismatched comparison")
	checkBad(t, `fun f(p: ref int, x: int) { let y = p + x; }`, "requires int")
}

func TestCheckUsesResolved(t *testing.T) {
	info := checkOK(t, `
global g: int;
fun f(x: int): int {
    let y = x + g;
    return y;
}
`)
	var kinds []SymKind
	ast.Inspect(info.Prog, func(n ast.Node) bool {
		if v, ok := n.(*ast.VarExpr); ok {
			if sym := info.UseOf(v); sym != nil {
				kinds = append(kinds, sym.Kind)
			}
		}
		return true
	})
	// x (param), g (global), y (let) in return.
	if len(kinds) != 3 {
		t.Fatalf("resolved %d uses, want 3", len(kinds))
	}
}

func TestCheckNestedArrays(t *testing.T) {
	checkOK(t, `
global grid: int[3][4];
fun f(): int {
    grid[1][2] = 7;
    return grid[1][2];
}
`)
}

func TestCheckArrayOfStructs(t *testing.T) {
	checkOK(t, `
struct dev { l: lock; n: int; }
global devs: dev[4];
fun f(i: int) {
    spin_lock(&devs[i].l);
    devs[i].n = 1;
    spin_unlock(&devs[i].l);
}
`)
}

func TestEqualIgnoresArraySize(t *testing.T) {
	a := &Array{Elem: IntType, Size: 3}
	b := &Array{Elem: IntType, Size: 5}
	if !Equal(a, b) {
		t.Error("array sizes must be ignored by Equal")
	}
	if Equal(&Ref{Elem: IntType}, &Ref{Elem: LockType}) {
		t.Error("ref elem types must match")
	}
}
