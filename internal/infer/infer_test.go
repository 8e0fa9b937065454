package infer

import (
	"fmt"
	"strings"
	"testing"

	"localalias/internal/ast"
	"localalias/internal/effects"
	"localalias/internal/parser"
	"localalias/internal/solve"
	"localalias/internal/source"
	"localalias/internal/types"
)

func run(t *testing.T, src string, opts Options) (*Result, *solve.Result) {
	t.Helper()
	var diags source.Diagnostics
	prog := parser.Parse("t.mc", src, &diags)
	if diags.HasErrors() {
		t.Fatalf("parse: %s", diags.String())
	}
	tinfo := types.Check(prog, &diags)
	if diags.HasErrors() {
		t.Fatalf("types: %s", diags.String())
	}
	res := Run(tinfo, &diags, opts)
	return res, solve.Solve(res.Sys)
}

// findCallArg returns the argument expression of the first call to fn.
func findCallArg(prog *ast.Program, fn string) ast.Expr {
	var out ast.Expr
	ast.Inspect(prog, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok && c.Fun == fn && out == nil && len(c.Args) > 0 {
			out = c.Args[0]
		}
		return true
	})
	return out
}

func TestTargetOfLockArg(t *testing.T) {
	res, _ := run(t, `
global locks: lock[4];
global big: lock;
fun f(i: int) {
    spin_lock(&locks[i]);
    spin_unlock(&big);
}
`, Options{})
	lockArg := findCallArg(res.Prog, "spin_lock")
	unlockArg := findCallArg(res.Prog, "spin_unlock")
	lt, ok1 := res.TargetOf(lockArg)
	bt, ok2 := res.TargetOf(unlockArg)
	if !ok1 || !ok2 {
		t.Fatal("targets must resolve")
	}
	if res.Locs.Same(lt, bt) {
		t.Error("array elements and the scalar global must have distinct locations")
	}
	if res.Locs.Linear(lt) {
		t.Error("array element location is not linear")
	}
	if !res.Locs.Linear(bt) {
		t.Error("scalar global location is linear")
	}
}

func TestAliasUnificationThroughAssignment(t *testing.T) {
	// Storing both q and a into the same cell unifies their targets.
	res, _ := run(t, `
global slot: ref int;
fun f(q: ref int, a: ref int) {
    slot = q;
    slot = a;
}
`, Options{})
	f := res.Prog.Fun("f")
	qSym := res.TInfo.BinderOf(f.Params[0])
	aSym := res.TInfo.BinderOf(f.Params[1])
	qT := res.SymLTypes[qSym]
	aT := res.SymLTypes[aSym]
	if !res.Locs.Same(qT.Cell(), aT.Cell()) {
		t.Error("q and a must alias after flowing into one cell")
	}
}

func TestNoSpuriousUnification(t *testing.T) {
	res, _ := run(t, `
fun f(q: ref int, a: ref int): int {
    return *q + *a;
}
`, Options{})
	f := res.Prog.Fun("f")
	qT := res.SymLTypes[res.TInfo.BinderOf(f.Params[0])]
	aT := res.SymLTypes[res.TInfo.BinderOf(f.Params[1])]
	if res.Locs.Same(qT.Cell(), aT.Cell()) {
		t.Error("mere reads must not unify distinct pointers")
	}
}

func TestLatentEffects(t *testing.T) {
	res, sol := run(t, `
global g: int;
fun reader(): int {
    return g;
}
fun writer() {
    g = 1;
}
`, Options{})
	gCell := res.SymLTypes[res.TInfo.Globals["g"]]
	_ = gCell
	// The global's cell: find it via the writer's effect.
	wAtoms := sol.Atoms(res.FunEff["writer"])
	rAtoms := sol.Atoms(res.FunEff["reader"])
	hasKind := func(atoms []effects.Atom, k effects.Kind) bool {
		for _, a := range atoms {
			if a.Kind == k {
				return true
			}
		}
		return false
	}
	if !hasKind(wAtoms, effects.Write) {
		t.Errorf("writer latent effect lacks a write: %v", wAtoms)
	}
	if !hasKind(rAtoms, effects.Read) {
		t.Errorf("reader latent effect lacks a read: %v", rAtoms)
	}
	if hasKind(rAtoms, effects.Write) {
		t.Errorf("reader must not write: %v", rAtoms)
	}
}

func TestDownRemovesDeadLocals(t *testing.T) {
	res, sol := run(t, `
fun scratch(): int {
    let tmp = new 7;
    *tmp = *tmp + 1;
    return *tmp;
}
`, Options{})
	if atoms := sol.Atoms(res.FunEff["scratch"]); len(atoms) != 0 {
		t.Errorf("(Down) must empty scratch's latent effect, got %v", atoms)
	}
	// The pre-Down body effect is not empty.
	if atoms := sol.Atoms(res.FunBody["scratch"]); len(atoms) == 0 {
		t.Error("body effect must record the temporary's alloc/read/write")
	}
}

func TestDownKeepsParamEffects(t *testing.T) {
	res, sol := run(t, `
fun bump(p: ref int) {
    *p = *p + 1;
}
`, Options{})
	atoms := sol.Atoms(res.FunEff["bump"])
	var kinds []effects.Kind
	for _, a := range atoms {
		kinds = append(kinds, a.Kind)
	}
	if len(atoms) != 2 {
		t.Fatalf("bump's latent effect must keep the parameter's read+write, got %v", atoms)
	}
}

func TestCallPropagatesLatentEffect(t *testing.T) {
	res, sol := run(t, `
global g: int;
fun leaf() {
    g = 1;
}
fun caller() {
    leaf();
}
`, Options{})
	atoms := sol.Atoms(res.FunEff["caller"])
	found := false
	for _, a := range atoms {
		if a.Kind == effects.Write {
			found = true
		}
	}
	if !found {
		t.Errorf("caller must inherit leaf's write on the global: %v", atoms)
	}
}

func TestRecursiveStructTypesTerminate(t *testing.T) {
	res, sol := run(t, `
struct node {
    next: ref node;
    v: int;
}
global head: node;
fun sum(n: ref node): int {
    if (n == n) {
        return n->v + sum(n->next);
    }
    return 0;
}
fun entry(): int {
    return sum(&head);
}
`, Options{})
	// Must terminate; the recursive effect must mention the field
	// cells (reads of v/next).
	atoms := sol.Atoms(res.FunEff["sum"])
	if len(atoms) == 0 {
		t.Error("sum must have read effects on node fields")
	}
}

func TestAllocEffects(t *testing.T) {
	res, sol := run(t, `
struct dev { l: lock; n: int; }
fun f(): int {
    let c = new 3;
    let d = new dev;
    d->n = *c;
    return d->n;
}
`, Options{})
	atoms := sol.Atoms(res.FunBody["f"])
	allocs := 0
	for _, a := range atoms {
		if a.Kind == effects.Alloc {
			allocs++
		}
	}
	// new 3 → one cell; new dev → two field cells.
	if allocs != 3 {
		t.Errorf("alloc atoms = %d, want 3 (%v)", allocs, atoms)
	}
}

func TestSpinLockIsWrite(t *testing.T) {
	res, sol := run(t, `
global big: lock;
fun f() {
    spin_lock(&big);
}
`, Options{})
	atoms := sol.Atoms(res.FunEff["f"])
	if len(atoms) != 1 || atoms[0].Kind != effects.Write {
		t.Errorf("spin_lock must be a write on the lock cell: %v", atoms)
	}
}

func TestCandidateGeneration(t *testing.T) {
	res, _ := run(t, `
fun f(q: ref int, n: int): int {
    let p = q;     // ref: candidate
    let k = n + 1; // int: not a candidate
    return *p + k;
}
`, Options{InferRestrictLets: true})
	if len(res.Candidates) != 1 || res.Candidates[0].Kind != CandLet || res.Candidates[0].Name != "p" {
		t.Fatalf("candidates: %+v", res.Candidates)
	}
	// Each let-or-restrict candidate generates 6 conditionals: two
	// failure conditions, the twin of the escape failure that watches
	// Γ(globals), and three relays.
	if got := len(res.Sys.Conds); got != 6 {
		t.Errorf("conds = %d, want 6", got)
	}
}

func TestParamCandidates(t *testing.T) {
	res, _ := run(t, `
fun f(q: ref int, n: int): int {
    return *q + n;
}
`, Options{InferRestrictParams: true})
	if len(res.Candidates) != 1 || res.Candidates[0].Kind != CandParam {
		t.Fatalf("candidates: %+v", res.Candidates)
	}
	if res.BindingOf(res.Prog.Fun("f").Params[0]) == nil {
		t.Error("param binding must be recorded for qual")
	}
}

func TestConfineOccurrenceResolution(t *testing.T) {
	// Within the confine, occurrences of &locks[i] must resolve to
	// the fresh location, and shadowed lookalikes must not.
	res, sol := run(t, `
global locks: lock[4];
fun f(i: int) {
    confine &locks[i] {
        spin_lock(&locks[i]);
        let j = i + 0;
        spin_unlock(&locks[i]);
    }
}
`, Options{})
	b := res.BindingOf(firstConfine(res.Prog))
	if b == nil {
		t.Fatal("confine binding missing")
	}
	if res.Locs.Same(b.Rho, b.RhoP) {
		t.Fatal("explicit confine must keep ρ and ρ' distinct")
	}
	// The lock op arguments resolve to ρ'.
	arg := findCallArg(res.Prog, "spin_lock")
	target, ok := res.TargetOf(arg)
	if !ok || !res.Locs.Same(target, b.RhoP) {
		t.Errorf("occurrence target = %v, want ρ' = %v", target, b.RhoP)
	}
	if vs := sol.Violations(); len(vs) != 0 {
		t.Errorf("clean confine must verify: %v", vs)
	}
}

func firstConfine(prog *ast.Program) *ast.ConfineStmt {
	var out *ast.ConfineStmt
	ast.Inspect(prog, func(n ast.Node) bool {
		if c, ok := n.(*ast.ConfineStmt); ok && out == nil {
			out = c
		}
		return true
	})
	return out
}

func TestConfineShadowedIndexNotMatched(t *testing.T) {
	// Inside the scope, a NEW i shadows the outer one; &locks[i]
	// written with the inner i is a different expression and must NOT
	// be treated as an occurrence — accessing ρ directly, which makes
	// the explicit confine fail.
	res, sol := run(t, `
global locks: lock[4];
fun f(i: int) {
    confine &locks[i] {
        spin_lock(&locks[i]);
        let i = 0;
        spin_unlock(&locks[i]);
    }
}
`, Options{})
	_ = res
	if vs := sol.Violations(); len(vs) == 0 {
		t.Error("shadowed index must defeat the confine (symbol-resolved matching)")
	}
}

func TestConfineWithCallRejected(t *testing.T) {
	var diags source.Diagnostics
	prog := parser.Parse("t.mc", `
global locks: lock[4];
fun pick(): int { return 2; }
fun f() {
    confine &locks[pick()] {
        spin_lock(&locks[pick()]);
        spin_unlock(&locks[pick()]);
    }
}
`, &diags)
	tinfo := types.Check(prog, &diags)
	if diags.HasErrors() {
		t.Fatal(diags.String())
	}
	Run(tinfo, &diags, Options{})
	if !diags.HasErrors() {
		t.Error("a call inside a confined expression must be diagnosed (§6.1)")
	}
}

func TestPlaceCells(t *testing.T) {
	// The cell a place denotes is the target of its address: a struct
	// field's and an array element's must differ.
	res, _ := run(t, `
struct dev { l: lock; n: int; }
global d: dev;
global tbl: int[4];
fun f(i: int) {
    let p = &d.n;
    let q = &tbl[i];
    *p = *q;
}
`, Options{})
	var fieldCell, elemCell = -1, -1
	ast.Inspect(res.Prog, func(n ast.Node) bool {
		if a, ok := n.(*ast.AddrExpr); ok {
			c, ok := res.TargetOf(a)
			if !ok {
				t.Fatalf("no target for %s", ast.ExprString(a))
			}
			switch a.X.(type) {
			case *ast.FieldExpr:
				fieldCell = int(c)
			case *ast.IndexExpr:
				elemCell = int(c)
			}
		}
		return true
	})
	if fieldCell < 0 || elemCell < 0 {
		t.Fatal("place cells not recorded")
	}
	if fieldCell == elemCell {
		t.Error("field and array element must have distinct cells")
	}
}

func TestSucceededReflectsUnification(t *testing.T) {
	res, _ := run(t, `
fun f(q: ref int): int {
    let p = q;
    return *p + *q;
}
`, Options{InferRestrictLets: true})
	cand := res.Candidates[0]
	if res.Succeeded(cand) {
		t.Error("candidate must fail after solving (q used in scope)")
	}
}

func TestLTypeString(t *testing.T) {
	res, _ := run(t, `
struct node { next: ref node; v: int; }
fun f(n: ref node, a: ref int): int {
    return n->v + *a;
}
`, Options{})
	f := res.Prog.Fun("f")
	nT := res.SymLTypes[res.TInfo.BinderOf(f.Params[0])]
	s := nT.String()
	// Cyclic struct types must render without hanging.
	if !strings.Contains(s, "ref") || !strings.Contains(s, "node") {
		t.Errorf("render: %q", s)
	}
	aT := res.SymLTypes[res.TInfo.BinderOf(f.Params[1])]
	if !strings.HasPrefix(aT.String(), "ref ρ") {
		t.Errorf("render: %q", aT.String())
	}
}

func TestCandKindStrings(t *testing.T) {
	if CandLet.String() != "let" || CandParam.String() != "param" || CandConfine.String() != "confine" {
		t.Error("cand kind strings")
	}
}

// TestRunOverReusesAndReleases runs inference in the storage of an
// earlier run with other options, as confine inference does with a
// module's baseline run: the system and verdicts must equal a fresh
// run's, the storage must be the earlier run's, and the earlier
// Result must panic on use.
func TestRunOverReusesAndReleases(t *testing.T) {
	src := `
global g: lock;
global cell: ref int;
fun helper(l: ref lock, q: ref int): int {
    spin_lock(l);
    let p = q;
    *p = *p + 1;
    spin_unlock(l);
    return *q;
}
fun f(q: ref int): int {
    let a = q;
    let b = new 3;
    cell = a;
    confine q {
        *q = *b;
    }
    return helper(&g, b);
}
`
	var diags source.Diagnostics
	prog := parser.Parse("t.mc", src, &diags)
	tinfo := types.Check(prog, &diags)
	if diags.HasErrors() {
		t.Fatalf("front end: %s", diags.String())
	}
	opts := Options{InferRestrictLets: true, InferRestrictParams: true, LiberalRestrictEffect: true}
	fresh := Run(tinfo, &diags, opts)
	prev := Run(tinfo, &diags, Options{})
	sys, ls := prev.Sys, prev.Locs
	cand := fresh.Candidates[0]
	over := RunOver(prev, tinfo, &diags, opts)
	if over.Sys != sys || over.Locs != ls {
		t.Error("RunOver did not take over the earlier run's system and store")
	}

	shape := func(r *Result) [7]int {
		s := r.Sys
		return [7]int{s.NumVars(), len(s.InterIncls), len(s.VarIncls), len(s.AtomIncls), len(s.NotIns), len(s.Conds), r.Locs.Len()}
	}
	if shape(over) != shape(fresh) {
		t.Fatalf("system shape: RunOver %v, Run %v", shape(over), shape(fresh))
	}
	freshSol, overSol := solve.Solve(fresh.Sys), solve.Solve(over.Sys)
	if len(fresh.Candidates) == 0 || len(over.Candidates) != len(fresh.Candidates) {
		t.Fatalf("candidates: RunOver %d, Run %d", len(over.Candidates), len(fresh.Candidates))
	}
	for i, c := range fresh.Candidates {
		if fresh.Succeeded(c) != over.Succeeded(over.Candidates[i]) {
			t.Errorf("candidate %s: verdicts differ", c.Name)
		}
	}
	for name, v := range fresh.FunEff {
		if got, want := fmt.Sprint(overSol.Atoms(over.FunEff[name])), fmt.Sprint(freshSol.Atoms(v)); got != want {
			t.Errorf("eff(%s): RunOver %s, Run %s", name, got, want)
		}
	}

	e := findCallArg(prog, "spin_lock")
	for what, use := range map[string]func(){
		"LTypeOf":    func() { prev.LTypeOf(e) },
		"TargetOf":   func() { prev.TargetOf(e) },
		"BindingOf":  func() { prev.BindingOf(prog.Funs[0].Params[0]) },
		"Succeeded":  func() { prev.Succeeded(cand) },
		"ParamCells": func() { prev.ParamCells(prog.Funs[0], 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a Result RunOver took did not panic", what)
				}
			}()
			use()
		}()
	}
}

// TestGlobalEscapeRejectsCandidates: a let, a parameter and a confine?
// candidate whose pointer escapes only through a global are rejected
// by the twin trigger that watches Γ(globals) (escape sets no longer
// hold the globals), and each is accepted without that escape.
func TestGlobalEscapeRejectsCandidates(t *testing.T) {
	cases := []struct {
		name     string
		src      string
		escape   string // the statement through which the pointer escapes
		opts     Options
		optional bool // mark the confine as confine?
	}{
		{"let", `
global x: ref int;
fun f(q: ref int): int {
    let p = q;
    ESCAPE
    return *p;
}
`, "x = p;", Options{InferRestrictLets: true}, false},
		{"param", `
global x: ref int;
fun f(q: ref int): int {
    ESCAPE
    return *q;
}
`, "x = q;", Options{InferRestrictParams: true}, false},
		{"confine", `
global locks: lock[4];
global held: ref lock;
fun f(i: int) {
    confine &locks[i] {
        spin_lock(&locks[i]);
        ESCAPE
        spin_unlock(&locks[i]);
    }
}
`, "held = &locks[i];", Options{}, true},
	}
	for _, c := range cases {
		for _, escapes := range []bool{true, false} {
			stmt := ""
			if escapes {
				stmt = c.escape
			}
			var diags source.Diagnostics
			prog := parser.Parse("t.mc", strings.Replace(c.src, "ESCAPE", stmt, 1), &diags)
			tinfo := types.Check(prog, &diags)
			if diags.HasErrors() {
				t.Fatalf("%s: %s", c.name, diags.String())
			}
			if c.optional {
				firstConfine(prog).Optional = true
			}
			res := Run(tinfo, &diags, c.opts)
			sol := solve.Solve(res.Sys)
			if len(res.Candidates) != 1 {
				t.Fatalf("%s: %d candidates, want 1", c.name, len(res.Candidates))
			}
			if got := res.Succeeded(res.Candidates[0]); got == escapes {
				t.Errorf("%s (escape %v): succeeded = %v", c.name, escapes, got)
			}
			twin := false
			for _, f := range sol.Fired {
				if tr, ok := f.Trigger.(effects.LocIn); ok && tr.V == res.Sys.Shared {
					twin = true
				}
			}
			if twin != escapes {
				t.Errorf("%s (escape %v): the Γ(globals) trigger fired = %v", c.name, escapes, twin)
			}
		}
	}
}
