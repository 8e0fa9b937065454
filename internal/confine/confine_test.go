package confine

import (
	"strings"
	"testing"

	"localalias/internal/ast"
	"localalias/internal/parser"
	"localalias/internal/source"
)

func parse(t *testing.T, src string) *ast.Program {
	t.Helper()
	var diags source.Diagnostics
	prog := parser.Parse("t.mc", src, &diags)
	if diags.HasErrors() {
		t.Fatalf("parse: %s", diags.String())
	}
	return prog
}

func runInfer(t *testing.T, src string, opts Options) (*ast.Program, *Result) {
	t.Helper()
	prog := parse(t, src)
	var diags source.Diagnostics
	res, err := InferAndApply(prog, &diags, opts)
	if err != nil {
		t.Fatalf("InferAndApply: %v\n%s", err, diags.String())
	}
	return prog, res
}

func countConfines(prog *ast.Program) int {
	n := 0
	ast.Inspect(prog, func(x ast.Node) bool {
		if _, ok := x.(*ast.ConfineStmt); ok {
			n++
		}
		return true
	})
	return n
}

func TestPlantPairsSameBlock(t *testing.T) {
	prog, res := runInfer(t, `
global locks: lock[4];
fun f(i: int) {
    spin_lock(&locks[i]);
    work();
    spin_unlock(&locks[i]);
}
`, Options{})
	if res.Planted != 1 {
		t.Errorf("planted: %d", res.Planted)
	}
	if len(res.Kept) != 1 {
		t.Errorf("kept: %d", len(res.Kept))
	}
	cs := findConfine(prog)
	if cs == nil || !cs.Inferred {
		t.Fatal("kept confine must be marked Inferred")
	}
	if len(cs.Body.Stmts) != 3 {
		t.Errorf("smallest sub-block must cover lock..unlock inclusive: %d stmts", len(cs.Body.Stmts))
	}
}

func findConfine(prog *ast.Program) *ast.ConfineStmt {
	var out *ast.ConfineStmt
	ast.Inspect(prog, func(x ast.Node) bool {
		if cs, ok := x.(*ast.ConfineStmt); ok && out == nil {
			out = cs
		}
		return true
	})
	return out
}

func TestPlantSmallestRange(t *testing.T) {
	// Statements before/after the pair must stay outside the confine.
	prog, _ := runInfer(t, `
global locks: lock[4];
global c: int;
fun f(i: int) {
    c = 1;
    spin_lock(&locks[i]);
    spin_unlock(&locks[i]);
    c = 2;
}
`, Options{})
	f := prog.Funs[0]
	if len(f.Body.Stmts) != 3 {
		t.Fatalf("outer block must keep 3 stmts (assign, confine, assign): %d\n%s",
			len(f.Body.Stmts), ast.String(prog))
	}
	if _, ok := f.Body.Stmts[1].(*ast.ConfineStmt); !ok {
		t.Errorf("middle stmt must be the confine")
	}
}

func TestPlantDistinctExprsNested(t *testing.T) {
	// Two interleaved pairs of different locks: the inner pair
	// confines within the outer one.
	prog, res := runInfer(t, `
global a: lock[4];
global b: lock[4];
fun f(i: int) {
    spin_lock(&a[i]);
    spin_lock(&b[i]);
    spin_unlock(&b[i]);
    spin_unlock(&a[i]);
}
`, Options{})
	if len(res.Kept) != 2 {
		t.Fatalf("both pairs must confine:\n%s", ast.String(prog))
	}
	if countConfines(prog) != 2 {
		t.Errorf("confines in tree: %d", countConfines(prog))
	}
	outer := findConfine(prog)
	innerFound := false
	ast.Inspect(outer.Body, func(x ast.Node) bool {
		if cs, ok := x.(*ast.ConfineStmt); ok && cs != outer {
			innerFound = true
		}
		return true
	})
	if !innerFound {
		t.Errorf("inner confine must nest inside the outer:\n%s", ast.String(prog))
	}
}

func TestPlantAcrossBranches(t *testing.T) {
	// Lock inside a branch, unlock after the join: both statements
	// "contain" a change_type of the same expression, so the outer
	// block pairs them.
	prog, res := runInfer(t, `
global locks: lock[4];
fun f(i: int, c: int) {
    if (c > 0) {
        spin_lock(&locks[i]);
    } else {
        spin_lock(&locks[i]);
    }
    spin_unlock(&locks[i]);
}
`, Options{})
	if len(res.Kept) != 1 {
		t.Fatalf("cross-branch pair must confine:\n%s", ast.String(prog))
	}
	cs := findConfine(prog)
	if len(cs.Body.Stmts) != 2 {
		t.Errorf("confine must cover the if and the unlock:\n%s", ast.String(prog))
	}
}

func TestFailedCandidateUnwrapped(t *testing.T) {
	// The index is written inside the would-be scope: candidate fails
	// and the AST is restored to its original shape.
	src := `
global locks: lock[4];
global idx: int;
fun f() {
    spin_lock(&locks[idx]);
    idx = idx + 1;
    spin_unlock(&locks[idx]);
}
`
	orig := ast.String(parse(t, src))
	prog, res := runInfer(t, src, Options{})
	if res.Planted != 1 || len(res.Kept) != 0 {
		t.Fatalf("planted=%d kept=%d", res.Planted, len(res.Kept))
	}
	if got := ast.String(prog); got != orig {
		t.Errorf("failed candidate must restore the tree:\n--- orig ---\n%s--- got ---\n%s", orig, got)
	}
}

func TestConfinableRejectsCalls(t *testing.T) {
	if confinable(mustExpr(t, "f(x)")) {
		t.Error("calls are not confinable")
	}
	if confinable(mustExpr(t, "&locks[g(i)]")) {
		t.Error("nested calls are not confinable")
	}
	if confinable(mustExpr(t, "new 3")) {
		t.Error("allocation is not confinable")
	}
	for _, ok := range []string{"&locks[i]", "p", "&d->l", "*pp", "&devs[i].l"} {
		if !confinable(mustExpr(t, ok)) {
			t.Errorf("%q must be confinable", ok)
		}
	}
}

func mustExpr(t *testing.T, src string) ast.Expr {
	t.Helper()
	var diags source.Diagnostics
	e := parser.ParseExpr(src, &diags)
	if diags.HasErrors() {
		t.Fatalf("expr %q: %s", src, diags.String())
	}
	return e
}

func TestSingleOpNotPlanted(t *testing.T) {
	// A lone lock op cannot pair: nothing planted.
	_, res := runInfer(t, `
global locks: lock[4];
fun f(i: int) {
    spin_lock(&locks[i]);
}
`, Options{})
	if res.Planted != 0 {
		t.Errorf("planted: %d", res.Planted)
	}
}

func TestOpaqueSubBlocks(t *testing.T) {
	// Once a pair is wrapped, the heuristic treats the new sub-block
	// as containing no change_type: a third op of the same lock later
	// in the block cannot pair with the buried ones.
	prog, res := runInfer(t, `
global locks: lock[4];
fun f(i: int) {
    spin_lock(&locks[i]);
    spin_unlock(&locks[i]);
    work();
    work();
    spin_lock(&locks[i]);
}
`, Options{})
	// The first two wrap; the trailing lone lock stays outside. It
	// cannot pair with the opaque confine, so exactly one candidate.
	if res.Planted != 1 {
		t.Errorf("planted: %d\n%s", res.Planted, ast.String(prog))
	}
}

func TestExplicitConfineRespected(t *testing.T) {
	// A hand-written confine is not a candidate: it is checked, not
	// inferred, and never unwrapped.
	prog, res := runInfer(t, `
global locks: lock[4];
fun f(i: int) {
    confine &locks[i] {
        spin_lock(&locks[i]);
        spin_unlock(&locks[i]);
    }
}
`, Options{})
	if res.Planted != 0 {
		t.Errorf("explicit confine must not be re-planted: %d", res.Planted)
	}
	if len(res.Violations) != 0 {
		t.Errorf("violations: %v", res.Violations)
	}
	cs := findConfine(prog)
	if cs == nil || cs.Inferred {
		t.Error("explicit confine must survive, unmarked")
	}
}

func TestExplicitConfineViolationReported(t *testing.T) {
	prog := parse(t, `
global locks: lock[4];
global idx: int;
fun f() {
    confine &locks[idx] {
        spin_lock(&locks[idx]);
        idx = idx + 1;
        spin_unlock(&locks[idx]);
    }
}
`)
	var diags source.Diagnostics
	res, err := InferAndApply(prog, &diags, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) == 0 {
		t.Fatal("explicit confine over a mutated index must be reported")
	}
	if !strings.Contains(diags.String(), "confine") {
		t.Errorf("diags: %s", diags.String())
	}
}

func TestPlantedScopesAreOpaque(t *testing.T) {
	// A planted confine hides its change_types from the enclosing
	// block (the paper's heuristic), so a pair inside an if and a
	// following pair on the same lock get a confine each; no confine
	// is tried around both.
	prog, res := runInfer(t, `
global locks: lock[4];
fun f(i: int, c: int) {
    if (c > 0) {
        spin_lock(&locks[i]);
        spin_unlock(&locks[i]);
    }
    spin_lock(&locks[i]);
    spin_unlock(&locks[i]);
}
`, Options{})
	if res.Planted != 2 || len(res.Kept) != 2 || countConfines(prog) != 2 {
		t.Errorf("planted %d, kept %d, %d confine(s) in the program; want 2 of each:\n%s",
			res.Planted, len(res.Kept), countConfines(prog), ast.String(prog))
	}
	if _, outer := prog.Funs[0].Body.Stmts[0].(*ast.ConfineStmt); outer {
		t.Errorf("a confine encloses the if:\n%s", ast.String(prog))
	}
}

func TestNestedConfinesPruneToOutermost(t *testing.T) {
	// The inner pair is wrapped first; the lock left over in the outer
	// if pairs with the unlock after it, so the second wrap encloses
	// the first. Both succeed, and the nested one is redundant.
	prog, res := runInfer(t, `
global locks: lock[4];
fun f(i: int, c: int) {
    if (c > 0) {
        if (c > 1) {
            spin_lock(&locks[i]);
            spin_unlock(&locks[i]);
        }
        spin_lock(&locks[i]);
    }
    spin_unlock(&locks[i]);
}
`, Options{})
	if res.Planted != 2 || len(res.Kept) != 2 {
		t.Fatalf("planted %d, kept %d; want 2 and 2:\n%s", res.Planted, len(res.Kept), ast.String(prog))
	}
	if countConfines(prog) != 1 {
		t.Errorf("nested same-expression confines must prune to the outermost:\n%s",
			ast.String(prog))
	}
}

func TestLetsOptionThroughConfine(t *testing.T) {
	// Lets: let-or-restrict inference runs in the same pass and marks
	// the binding.
	prog, res := runInfer(t, `
global locks: lock[4];
fun f(i: int) {
    let l = &locks[i];
    spin_lock(l);
    spin_unlock(l);
}
`, Options{Lets: true})
	marked := false
	ast.Inspect(prog, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeclStmt); ok && d.Restrict {
			marked = true
		}
		return true
	})
	if !marked {
		t.Errorf("let must be marked restrict:\n%s", ast.String(prog))
	}
	// And it shows up among the candidates.
	foundLet := false
	for _, c := range res.Infer.Candidates {
		if c.Kind.String() == "let" {
			foundLet = true
		}
	}
	if !foundLet {
		t.Error("let candidate missing")
	}
}
