package parser

import (
	"strings"
	"testing"

	"localalias/internal/ast"
	"localalias/internal/source"
)

func parseOK(t *testing.T, src string) *ast.Program {
	t.Helper()
	var diags source.Diagnostics
	prog := Parse("test.mc", src, &diags)
	if diags.HasErrors() {
		t.Fatalf("unexpected parse errors:\n%s", diags.String())
	}
	return prog
}

func parseBad(t *testing.T, src string) *source.Diagnostics {
	t.Helper()
	var diags source.Diagnostics
	Parse("test.mc", src, &diags)
	if !diags.HasErrors() {
		t.Fatalf("expected parse errors for %q", src)
	}
	return &diags
}

func TestParseFigure1(t *testing.T) {
	// The paper's Figure 1 example, transcribed to MiniC.
	src := `
global locks: lock[8];

fun foo(i: int) {
    do_with_lock(&locks[i]);
}

fun do_with_lock(l: ref lock) {
    spin_lock(l);
    work();
    spin_unlock(l);
}
`
	prog := parseOK(t, src)
	if len(prog.Globals) != 1 || prog.Globals[0].Name != "locks" {
		t.Fatalf("globals: %+v", prog.Globals)
	}
	at, ok := prog.Globals[0].Type.(*ast.ArrayType)
	if !ok || at.Size != 8 {
		t.Fatalf("locks type: %s", ast.TypeString(prog.Globals[0].Type))
	}
	if len(prog.Funs) != 2 {
		t.Fatalf("funs: %d", len(prog.Funs))
	}
	dwl := prog.Fun("do_with_lock")
	if dwl == nil || len(dwl.Params) != 1 {
		t.Fatalf("do_with_lock: %+v", dwl)
	}
	if ast.TypeString(dwl.Params[0].Type) != "ref lock" {
		t.Errorf("param type: %s", ast.TypeString(dwl.Params[0].Type))
	}
	if len(dwl.Body.Stmts) != 3 {
		t.Errorf("body stmts: %d", len(dwl.Body.Stmts))
	}
}

func TestParseRestrictAndConfine(t *testing.T) {
	src := `
fun f(q: ref int) {
    restrict p = q in {
        *p = 1;
    }
    confine q in {
        *q = 2;
    }
    let r = q {
        *r = 3;
    }
    let s = q;
    *s = 4;
}
`
	prog := parseOK(t, src)
	body := prog.Funs[0].Body
	if len(body.Stmts) != 5 {
		t.Fatalf("stmts: %d", len(body.Stmts))
	}
	r, ok := body.Stmts[0].(*ast.BindStmt)
	if !ok || r.Kind != ast.BindRestrict || r.Name != "p" {
		t.Fatalf("stmt0: %T %+v", body.Stmts[0], body.Stmts[0])
	}
	c, ok := body.Stmts[1].(*ast.ConfineStmt)
	if !ok || ast.ExprString(c.Expr) != "q" {
		t.Fatalf("stmt1: %T", body.Stmts[1])
	}
	l, ok := body.Stmts[2].(*ast.BindStmt)
	if !ok || l.Kind != ast.BindLet {
		t.Fatalf("stmt2: %T", body.Stmts[2])
	}
	d, ok := body.Stmts[3].(*ast.DeclStmt)
	if !ok || d.Name != "s" {
		t.Fatalf("stmt3: %T", body.Stmts[3])
	}
}

// TestParseRestrictedLet pins the remainder-of-block form "restrict
// x = e;": a DeclStmt marked Restrict, which is how the printer writes
// a let that restrict inference kept.
func TestParseRestrictedLet(t *testing.T) {
	src := `
fun f(q: ref int) {
    restrict p = q;
    *p = 1;
}
`
	prog := parseOK(t, src)
	body := prog.Funs[0].Body
	if len(body.Stmts) != 2 {
		t.Fatalf("stmts: %d", len(body.Stmts))
	}
	d, ok := body.Stmts[0].(*ast.DeclStmt)
	if !ok || !d.Restrict || d.Name != "p" || ast.ExprString(d.Init) != "q" {
		t.Fatalf("stmt0: %T %+v", body.Stmts[0], body.Stmts[0])
	}
	if got := ast.String(prog); got != src[1:] {
		t.Fatalf("printed form:\n%s\nwant:\n%s", got, src[1:])
	}
	parseBad(t, `fun f(q: ref int) { restrict p = q }`)
}

// TestParseLexicalDiagnosticsFirst pins the diagnostic order of a
// file with both kinds of error: every lexical diagnostic precedes
// every syntax diagnostic, although the parser pulls tokens lazily.
func TestParseLexicalDiagnosticsFirst(t *testing.T) {
	diags := parseBad(t, "fun f() { 1 + ; @ }\nfun g( { # }\n/* open")
	var phases []string
	for _, d := range diags.List {
		phases = append(phases, d.Phase)
	}
	got := strings.Join(phases, ",")
	if want := "lex,lex,lex,parse"; !strings.HasPrefix(got, want) || strings.Contains(strings.TrimPrefix(got, "lex,lex,lex"), "lex") {
		t.Fatalf("phases = %s, want three lex then only parse", got)
	}

	// ParseExpr stops at the first token past the expression; the
	// rest is still lexed for its diagnostics.
	var ed source.Diagnostics
	ParseExpr("a + b ) @", &ed)
	if len(ed.List) != 2 || ed.List[0].Phase != "lex" || ed.List[1].Phase != "parse" {
		t.Fatalf("ParseExpr diagnostics:\n%s", ed.String())
	}
}

func TestParseOptionalIn(t *testing.T) {
	// "in" before the block is optional everywhere.
	parseOK(t, `fun f(q: ref int) { restrict p = q { *p = 1; } }`)
	parseOK(t, `fun f(q: ref int) { confine q { *q = 1; } }`)
}

func TestParseExpressions(t *testing.T) {
	cases := map[string]string{
		"1 + 2 * 3":        "1 + 2 * 3",
		"(1 + 2) * 3":      "(1 + 2) * 3",
		"*p + 1":           "*p + 1",
		"&locks[i]":        "&locks[i]",
		"d->l":             "d->l",
		"d.l":              "d.l",
		"a[i][j]":          "a[i][j]",
		"f(x, y + 1)":      "f(x, y + 1)",
		"!x && y || z":     "!x && y || z",
		"new 0":            "new 0",
		"new *p":           "new *p",
		"-x + y":           "-x + y",
		"a == b && c != d": "a == b && c != d",
		"x <= y":           "x <= y",
		"*&g":              "*&g",
		"dev.tbl[i].l":     "dev.tbl[i].l",
		"&(*d).l":          "&(*d).l", // prints with explicit deref
	}
	for in, want := range cases {
		var diags source.Diagnostics
		e := ParseExpr(in, &diags)
		if diags.HasErrors() {
			t.Errorf("%q: parse errors: %s", in, diags)
			continue
		}
		got := ast.ExprString(e)
		// &(*d).l parses with *d as a DerefExpr child of FieldExpr;
		// printing inserts no parens, so normalize.
		got = strings.ReplaceAll(got, "&*d.l", "&(*d).l")
		if got != want {
			t.Errorf("%q: got %q want %q", in, got, want)
		}
	}
}

func TestParsePrecedence(t *testing.T) {
	var diags source.Diagnostics
	e := ParseExpr("1 + 2 * 3", &diags)
	b, ok := e.(*ast.BinExpr)
	if !ok {
		t.Fatalf("not a BinExpr: %T", e)
	}
	// Must parse as 1 + (2*3): top node is +.
	if b.Op.String() != "+" {
		t.Fatalf("top op: %s", b.Op)
	}
	inner, ok := b.Y.(*ast.BinExpr)
	if !ok || inner.Op.String() != "*" {
		t.Fatalf("rhs: %s", ast.ExprString(b.Y))
	}
}

func TestParseIfElseChain(t *testing.T) {
	src := `
fun f(x: int): int {
    if (x == 0) {
        return 1;
    } else if (x == 1) {
        return 2;
    } else {
        return 3;
    }
}
`
	prog := parseOK(t, src)
	ifs, ok := prog.Funs[0].Body.Stmts[0].(*ast.IfStmt)
	if !ok || ifs.Else == nil {
		t.Fatalf("if: %+v", ifs)
	}
	inner, ok := ifs.Else.Stmts[0].(*ast.IfStmt)
	if !ok || inner.Else == nil {
		t.Fatalf("else-if chain not nested: %T", ifs.Else.Stmts[0])
	}
}

func TestParseWhileAndAssign(t *testing.T) {
	src := `
fun f(n: int): int {
    let i = new 0;
    while (*i < n) {
        *i = *i + 1;
    }
    return *i;
}
`
	prog := parseOK(t, src)
	body := prog.Funs[0].Body
	w, ok := body.Stmts[1].(*ast.WhileStmt)
	if !ok {
		t.Fatalf("stmt1: %T", body.Stmts[1])
	}
	a, ok := w.Body.Stmts[0].(*ast.AssignStmt)
	if !ok {
		t.Fatalf("loop body: %T", w.Body.Stmts[0])
	}
	if _, ok := a.LHS.(*ast.DerefExpr); !ok {
		t.Errorf("assign lhs: %T", a.LHS)
	}
}

func TestParseStructAndFields(t *testing.T) {
	src := `
struct dev {
    l: lock;
    next: ref dev;
    regs: int[4];
}
fun touch(d: ref dev) {
    spin_lock(&d->l);
    d->regs[0] = 1;
    spin_unlock(&d->l);
}
`
	prog := parseOK(t, src)
	sd := prog.Struct("dev")
	if sd == nil || len(sd.Fields) != 3 {
		t.Fatalf("struct: %+v", sd)
	}
	if ast.TypeString(sd.Fields[1].Type) != "ref dev" {
		t.Errorf("field type: %s", ast.TypeString(sd.Fields[1].Type))
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"fun f( {",
		"global x;",
		"fun f() { let = 3; }",
		"fun f() { if x { } }",
		"struct s { x int; }",
		"fun f() { return 1 }",
		"fun f() { 1 + ; }",
		"@",
	}
	for _, src := range cases {
		parseBad(t, src)
	}
}

func TestParseRecoverAcrossDecls(t *testing.T) {
	// An error in one function must not swallow the following one.
	src := `
fun broken() { let ; }
fun fine() { return; }
`
	var diags source.Diagnostics
	prog := Parse("test.mc", src, &diags)
	if !diags.HasErrors() {
		t.Fatal("want errors")
	}
	if prog.Fun("fine") == nil {
		t.Fatal("recovery lost the following function")
	}
}

func TestPrintRoundTrip(t *testing.T) {
	src := `
struct dev {
    l: lock;
}
global locks: lock[4];
global biglock: lock;

fun helper(d: ref dev, i: int): int {
    restrict p = &locks[i] in {
        spin_lock(p);
        spin_unlock(p);
    }
    confine &d->l in {
        spin_lock(&d->l);
        spin_unlock(&d->l);
    }
    let t = new 5;
    if (*t > 2) {
        *t = *t - 1;
    } else {
        *t = 0;
    }
    while (*t > 0) {
        *t = *t - 1;
    }
    return *t;
}
`
	prog := parseOK(t, src)
	printed := ast.String(prog)
	var diags source.Diagnostics
	prog2 := Parse("roundtrip.mc", printed, &diags)
	if diags.HasErrors() {
		t.Fatalf("printed program does not reparse:\n%s\n--- printed ---\n%s", diags.String(), printed)
	}
	printed2 := ast.String(prog2)
	if printed != printed2 {
		t.Errorf("print not a fixpoint:\n--- first ---\n%s\n--- second ---\n%s", printed, printed2)
	}
}

func TestCountNodes(t *testing.T) {
	prog := parseOK(t, `fun f(x: int): int { return x + 1; }`)
	n := ast.CountNodes(prog)
	if n < 8 {
		t.Errorf("CountNodes too small: %d", n)
	}
}
