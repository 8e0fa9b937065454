package restrict

import (
	"fmt"
	"strings"
	"testing"

	"localalias/internal/ast"
	"localalias/internal/infer"
	"localalias/internal/parser"
	"localalias/internal/source"
	"localalias/internal/types"
)

func compile(t *testing.T, src string) (*types.Info, *source.Diagnostics) {
	t.Helper()
	var diags source.Diagnostics
	prog := parser.Parse("test.mc", src, &diags)
	if diags.HasErrors() {
		t.Fatalf("parse errors:\n%s", diags.String())
	}
	tinfo := types.Check(prog, &diags)
	if diags.HasErrors() {
		t.Fatalf("type errors:\n%s", diags.String())
	}
	return tinfo, &diags
}

// checkSrc runs restrict checking and returns the result.
func checkSrc(t *testing.T, src string) (*CheckResult, *source.Diagnostics) {
	t.Helper()
	tinfo, diags := compile(t, src)
	return Check(tinfo, diags), diags
}

func wantOK(t *testing.T, src string) *CheckResult {
	t.Helper()
	r, diags := checkSrc(t, src)
	if !r.OK() {
		t.Fatalf("expected annotations to check, got:\n%s", diags.String())
	}
	return r
}

func wantViolation(t *testing.T, src, substr string) *CheckResult {
	t.Helper()
	r, diags := checkSrc(t, src)
	if r.OK() {
		t.Fatalf("expected a restrict violation containing %q, got none", substr)
	}
	if substr != "" && !strings.Contains(diags.String(), substr) {
		t.Fatalf("expected violation containing %q, got:\n%s", substr, diags.String())
	}
	return r
}

// --- Section 2: the basic examples ---

func TestCheckValidDeref(t *testing.T) {
	// { int *restrict p = q; *p; }  — valid
	r := wantOK(t, `
fun f(q: ref int): int {
    restrict p = q {
        return *p;
    }
    return 0;
}
`)
	if !r.UsedFigure5 {
		t.Error("restrict-only program must use the Figure 5 checker")
	}
}

func TestCheckInvalidDerefOfOriginal(t *testing.T) {
	// *q inside the restrict of p=q is invalid.
	wantViolation(t, `
fun f(q: ref int): int {
    restrict p = q {
        return *q;
    }
    return 0;
}
`, "alias of the restricted location is used")
}

func TestCheckInvalidDerefOfAlias(t *testing.T) {
	// a aliases q (both flowed into the same cell), so *a is invalid
	// inside the restrict of q.
	wantViolation(t, `
global slot: ref int;
fun f(q: ref int, a: ref int): int {
    slot = q;
    slot = a; // a and q now share an abstract location
    restrict p = q {
        return *a;
    }
    return 0;
}
`, "alias of the restricted location is used")
}

func TestCheckUnaliasedOtherPointerOK(t *testing.T) {
	// A pointer that does NOT alias q may be dereferenced freely.
	wantOK(t, `
fun f(q: ref int, b: ref int): int {
    restrict p = q {
        return *p + *b;
    }
    return 0;
}
`)
}

func TestCheckRebindInInnerScope(t *testing.T) {
	// restrict r = p inside restrict p: *r valid, *p invalid.
	wantOK(t, `
fun f(q: ref int): int {
    restrict p = q {
        restrict r = p {
            return *r;
        }
        return *p;
    }
    return 0;
}
`)
	wantViolation(t, `
fun f(q: ref int): int {
    restrict p = q {
        restrict r = p {
            return *p;
        }
        return 0;
    }
    return 0;
}
`, "alias of the restricted location is used")
}

func TestCheckLocalCopyOK(t *testing.T) {
	// int *r = p; *r;  — a copy made inside the scope is usable.
	wantOK(t, `
fun f(q: ref int): int {
    restrict p = q {
        let r = p;
        return *r;
    }
    return 0;
}
`)
}

func TestCheckEscapeViaGlobal(t *testing.T) {
	// x = p: the restricted pointer escapes into a global.
	wantViolation(t, `
global x: ref int;
fun f(q: ref int) {
    restrict p = q {
        x = p;
    }
}
`, "escapes its scope")
}

func TestCheckEscapeViaHeap(t *testing.T) {
	wantViolation(t, `
fun f(q: ref int, cellp: ref ref int) {
    restrict p = q {
        *cellp = p;
    }
}
`, "escapes its scope")
}

func TestCheckEscapeViaReturn(t *testing.T) {
	wantViolation(t, `
fun f(q: ref int): ref int {
    restrict p = q {
        return p;
    }
    return q;
}
`, "escapes its scope")
}

func TestCheckDoubleRestrictSneaky(t *testing.T) {
	// restrict y = x in restrict z = x in ... *y ... *z — the
	// "restricting is itself an effect" rule must reject this.
	wantViolation(t, `
fun f(x: ref int): int {
    restrict y = x {
        restrict z = x {
            return *y + *z;
        }
        return 0;
    }
    return 0;
}
`, "")
}

func TestCheckSequentialRestrictsOK(t *testing.T) {
	// Non-overlapping scopes may restrict the same location twice.
	wantOK(t, `
fun f(x: ref int): int {
    restrict y = x {
        *y = 1;
    }
    restrict z = x {
        *z = 2;
    }
    return 0;
}
`)
}

// --- Section 3's example: p := q would leak the restricted location ---

func TestCheckSection3EscapeExample(t *testing.T) {
	// let x = new 0 in let p = ... in
	//   (restrict q = x in p := q; restrict r = x in **p)
	wantViolation(t, `
fun f(): int {
    let x = new 0;
    let p = new x;
    restrict q = x {
        *p = q;
    }
    restrict r = x {
        return **p;
    }
    return 0;
}
`, "escapes its scope")
}

// --- Effects through function calls ---

func TestCheckCalleeEffectViolates(t *testing.T) {
	// The callee dereferences the global alias of the restricted
	// location; its latent effect must flow to the call site.
	wantViolation(t, `
global cell: int[1];
fun touch(): int {
    return cell[0];
}
fun f(): int {
    restrict p = &cell[0] {
        return touch();
    }
    return 0;
}
`, "alias of the restricted location is used")
}

func TestCheckCalleeEffectHarmless(t *testing.T) {
	wantOK(t, `
global cell: int[1];
global other: int[1];
fun touch(): int {
    return other[0];
}
fun f(): int {
    restrict p = &cell[0] {
        return touch();
    }
    return 0;
}
`)
}

func TestCheckDownRuleEnablesRestrict(t *testing.T) {
	// The callee allocates and uses temporary storage. With (Down)
	// its latent effect is clean; without (Down) the temporary's
	// effects leak. This is the Section 3.1 motivation.
	src := `
fun scratch(): int {
    let tmp = new 7;
    *tmp = *tmp + 1;
    return *tmp;
}
fun f(q: ref int): int {
    restrict p = q {
        return *p + scratch();
    }
    return 0;
}
`
	wantOK(t, src)

	// Ablation: NoDown keeps the temporary's effect in scratch's
	// latent effect. It still does not alias q, so the restrict
	// succeeds — but the latent effect must be visibly larger.
	tinfo, diags := compile(t, src)
	resDown := infer.Run(tinfo, diags, infer.Options{})
	resNo := infer.Run(tinfo, diags, infer.Options{NoDown: true})
	solDown := solveAll(resDown)
	solNo := solveAll(resNo)
	nDown := len(solDown.Atoms(resDown.FunEff["scratch"]))
	nNo := len(solNo.Atoms(resNo.FunEff["scratch"]))
	if nDown >= nNo {
		t.Errorf("(Down) must shrink scratch's latent effect: with=%d without=%d", nDown, nNo)
	}
	if nDown != 0 {
		t.Errorf("scratch's latent effect must be empty with (Down), got %d atoms", nDown)
	}
}

func TestCheckNoDownBreaksRecursiveRestrict(t *testing.T) {
	// With recursion, the missing (Down) leaks the temporary's
	// location into the recursive latent effect; since the recursive
	// call sits inside the restrict of a pointer unified with that
	// temporary's location, checking fails without (Down) but
	// succeeds with it.
	// The recursive call happens inside the restrict of a temporary.
	// With (Down), rec's latent effect is empty (the temporary is
	// dead at the boundary); without it, alloc/read/write effects on
	// the temporary's location leak into the latent effect and land
	// inside the restrict scope, defeating the check — exactly the
	// behaviour Section 3.1 describes.
	src := `
fun rec(n: int): int {
    if (n == 0) {
        return 0;
    }
    let tmp = new 3;
    restrict p = tmp {
        *p = rec(n - 1);
        return *p;
    }
    return 0;
}
`
	tinfo, diags := compile(t, src)
	r := Check(tinfo, diags)
	if !r.OK() {
		t.Fatalf("with (Down) the program must check:\n%s", diags.String())
	}

	tinfo2, diags2 := compile(t, src)
	res2 := infer.Run(tinfo2, diags2, infer.Options{NoDown: true})
	vs := solveAll(res2).Violations()
	if len(vs) == 0 {
		t.Error("without (Down) the recursive restrict must fail")
	}
}

// --- Inference (Section 5) ---

func inferSrc(t *testing.T, src string, params bool) (*InferResult, *types.Info) {
	t.Helper()
	tinfo, diags := compile(t, src)
	r := Infer(tinfo, diags, Options{Params: params})
	return r, tinfo
}

func TestInferSimpleLet(t *testing.T) {
	r, tinfo := inferSrc(t, `
fun f(q: ref int): int {
    let p = q;
    return *p;
}
`, false)
	if len(r.Restricted) != 1 {
		t.Fatalf("want 1 restricted, got %d (%s)", len(r.Restricted), r.Summary())
	}
	// The AST must be marked.
	marked := 0
	ast.Inspect(tinfo.Prog, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeclStmt); ok && d.Restrict {
			marked++
		}
		return true
	})
	if marked != 1 {
		t.Errorf("DeclStmt.Restrict marks: %d", marked)
	}
}

func TestInferRejectsAliasUse(t *testing.T) {
	r, _ := inferSrc(t, `
fun f(q: ref int): int {
    let p = q;
    return *p + *q;
}
`, false)
	if len(r.Restricted) != 0 {
		t.Fatalf("p aliases q which is used: must stay let\n%s", r.Summary())
	}
	if len(r.Rejected) != 1 {
		t.Fatalf("rejected: %d", len(r.Rejected))
	}
	if !strings.Contains(strings.Join(r.Rejected[0].Reasons, " "), "accessed within") {
		t.Errorf("reason: %v", r.Rejected[0].Reasons)
	}
}

func TestInferRejectsEscape(t *testing.T) {
	r, _ := inferSrc(t, `
global x: ref int;
fun f(q: ref int) {
    let p = q;
    x = p;
}
`, false)
	if len(r.Restricted) != 0 {
		t.Fatalf("escaping let must stay let\n%s", r.Summary())
	}
	// Escaping through a global and through the result fires both the
	// escape trigger and its Γ(globals) twin; the reason is listed once.
	r, _ = inferSrc(t, `
global x: ref int;
fun f(q: ref int): ref int {
    let p = q;
    x = p;
    return p;
}
`, false)
	if len(r.Rejected) != 1 {
		t.Fatalf("escaping let must stay let\n%s", r.Summary())
	}
	if got := r.Rejected[0].Reasons; len(got) != 1 || !strings.Contains(got[0], "escapes its scope") {
		t.Errorf("reasons: %q, want the escape reason once", got)
	}
}

func TestInferMixedCandidates(t *testing.T) {
	r, _ := inferSrc(t, `
fun f(q: ref int, w: ref int): int {
    let p = q;   // restrictable
    let b = w;   // NOT restrictable: w used below
    return *p + *b + *w;
}
`, false)
	if len(r.Restricted) != 1 || r.Restricted[0].Name != "p" {
		t.Fatalf("want only p restricted:\n%s", r.Summary())
	}
}

func TestInferOptimalityIsMaximal(t *testing.T) {
	// Every candidate that CAN be restricted IS: three independent
	// lets, all restrictable.
	r, _ := inferSrc(t, `
fun f(a: ref int, b: ref int, c: ref int): int {
    let x = a;
    let y = b;
    let z = c;
    return *x + *y + *z;
}
`, false)
	if len(r.Restricted) != 3 {
		t.Fatalf("maximality: want 3 restricted, got %d\n%s", len(r.Restricted), r.Summary())
	}
}

func TestInferChainedCopiesInsideScope(t *testing.T) {
	// let p = q; let r = p; *r — p restrictable (copy r is made and
	// used inside p's scope, which is legal), and r restrictable too.
	r, _ := inferSrc(t, `
fun f(q: ref int): int {
    let p = q;
    let r = p;
    return *r;
}
`, false)
	if len(r.Restricted) != 2 {
		t.Fatalf("want both restricted:\n%s", r.Summary())
	}
}

func TestInferParamFigure1(t *testing.T) {
	// The paper's Figure 1: do_with_lock's parameter is restrictable.
	r, _ := inferSrc(t, `
global locks: lock[8];
fun foo(i: int) {
    do_with_lock(&locks[i]);
}
fun do_with_lock(l: ref lock) {
    spin_lock(l);
    work();
    spin_unlock(l);
}
`, true)
	foundParam := false
	for _, c := range r.Restricted {
		if c.Kind == infer.CandParam && c.Name == "l" {
			foundParam = true
		}
	}
	if !foundParam {
		t.Fatalf("do_with_lock's parameter must be restrictable:\n%s", r.Summary())
	}
}

func TestInferParamRejectedWhenGlobalAliasUsed(t *testing.T) {
	// The body uses the global array the parameter aliases: the
	// parameter cannot be restricted.
	r, _ := inferSrc(t, `
global locks: lock[8];
fun bad(l: ref lock) {
    spin_lock(l);
    spin_unlock(&locks[0]); // touches the aliased array directly
}
fun foo() {
    bad(&locks[1]);
}
`, true)
	for _, c := range r.Restricted {
		if c.Kind == infer.CandParam && c.Name == "l" {
			t.Fatalf("parameter aliased to a used global must stay unrestricted:\n%s", r.Summary())
		}
	}
}

func TestInferExplicitRestrictStillChecked(t *testing.T) {
	// Inference mode must still verify explicit annotations.
	tinfo, diags := compile(t, `
fun f(q: ref int): int {
    restrict p = q {
        return *q;
    }
    return 0;
}
`)
	r := Infer(tinfo, diags, Options{})
	if len(r.Violations) == 0 {
		t.Fatal("explicit violation must be reported in inference mode")
	}
}

func TestInferUniqueness(t *testing.T) {
	// Running inference twice yields the same verdicts (least
	// solution is unique).
	src := `
global x: ref int;
fun f(q: ref int, w: ref int): int {
    let p = q;
    let b = w;
    x = b;
    return *p;
}
`
	r1, _ := inferSrc(t, src, false)
	r2, _ := inferSrc(t, src, false)
	if len(r1.Restricted) != len(r2.Restricted) {
		t.Fatalf("nondeterministic inference: %d vs %d", len(r1.Restricted), len(r2.Restricted))
	}
}

// TestEscapeViaGlobalMessages pins the diagnostics of explicit
// restricts whose pointer escapes only through a global, in both the
// Figure 5 checker and the solver that inference runs. An explicit
// binder's escape set holds Γ(globals) itself, so the messages name
// it, as they did when every escape set held a copy of the globals.
func TestEscapeViaGlobalMessages(t *testing.T) {
	const src = `
global x: ref int;

fun f(q: ref int) {
    restrict p = q {
        x = p;
    }
}

fun g(q: restrict ref int) {
    x = q;
}

fun h(r: ref int) {
    restrict s = r;
    x = s;
}
`
	want := []string{
		`restrict "p": the restricted pointer escapes its scope (ρ5 (p') %s esc(p))`,
		`restrict parameter "q": the restricted pointer escapes the function (ρ6 (p') %s esc(q))`,
		`restrict "s": the restricted pointer escapes its scope (ρ7 (p') %s esc(s))`,
	}
	for _, path := range []struct {
		name, verb string
		run        func(*types.Info, *source.Diagnostics)
	}{
		{"check", "reaches", func(ti *types.Info, ds *source.Diagnostics) { Check(ti, ds) }},
		{"infer", "is in", func(ti *types.Info, ds *source.Diagnostics) { Infer(ti, ds, Options{}) }},
	} {
		tinfo, diags := compile(t, src)
		path.run(tinfo, diags)
		var got []string
		for _, d := range diags.List {
			got = append(got, d.Message)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d diagnostics, want %d:\n%s", path.name, len(got), len(want), diags.String())
		}
		for i, w := range want {
			if w = fmt.Sprintf(w, path.verb); got[i] != w {
				t.Errorf("%s: diagnostic %d:\n got %s\nwant %s", path.name, i, got[i], w)
			}
		}
	}
}
