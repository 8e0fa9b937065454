package ast_test

// External-package tests exercising the printer and walker over every
// construct at once (the parser is usable from here without an import
// cycle).

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"localalias/internal/ast"
	"localalias/internal/drivergen"
	"localalias/internal/parser"
	"localalias/internal/progen"
	"localalias/internal/source"
)

// kitchenSink exercises every syntactic construct.
const kitchenSink = `
struct dev {
    l: lock;
    next: ref dev;
    regs: int[4];
}

global locks: lock[8];
global grid: int[2][3];
global d: dev;
global count: int;

fun helper(p: restrict ref lock, n: int): int {
    spin_lock(p);
    spin_unlock(p);
    return n % 3;
}

fun main(i: int): int {
    let q = new 0;
    let alias = q;
    *alias = grid[1][2] + d.regs[0];
    restrict r = q in {
        *r = *r + 1;
        let inner = r;
        *inner = -*inner;
    }
    let s = q {
        *s = !(*s == 4) && 1 || 0;
    }
    confine &locks[i] in {
        spin_lock(&locks[i]);
        if (i <= 3) {
            work();
        } else if (i >= 6) {
            print(i);
        } else {
            count = count - 1;
        }
        spin_unlock(&locks[i]);
    }
    let node = new dev;
    node->next = node;
    node->regs[1] = 2;
    while (*q < 10) {
        *q = *q + helper(&d.l, *q);
    }
    if (node == node) {
        return *q / 2;
    }
    return 0;
}
`

func parseSink(t *testing.T) *ast.Program {
	t.Helper()
	var diags source.Diagnostics
	prog := parser.Parse("sink.mc", kitchenSink, &diags)
	if diags.HasErrors() {
		t.Fatalf("parse:\n%s", diags.String())
	}
	return prog
}

func TestPrintKitchenSinkRoundTrip(t *testing.T) {
	prog := parseSink(t)
	printed := ast.String(prog)
	var diags source.Diagnostics
	prog2 := parser.Parse("sink2.mc", printed, &diags)
	if diags.HasErrors() {
		t.Fatalf("reparse:\n%s\n--- printed ---\n%s", diags.String(), printed)
	}
	printed2 := ast.String(prog2)
	if printed != printed2 {
		t.Errorf("printing is not a fixpoint:\n--- 1 ---\n%s\n--- 2 ---\n%s", printed, printed2)
	}
	for _, frag := range []string{
		"restrict r = q {",
		"confine &locks[i] {",
		"p: restrict ref lock",
		"while (*q < 10) {",
		"} else {",
		"node->next = node;",
		"grid[1][2]",
	} {
		if !strings.Contains(printed, frag) {
			t.Errorf("printed output lacks %q:\n%s", frag, printed)
		}
	}
}

func TestWalkVisitsEverything(t *testing.T) {
	prog := parseSink(t)
	seen := map[string]int{}
	ast.Inspect(prog, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.StructDecl:
			seen["struct"]++
		case *ast.Field:
			seen["field"]++
		case *ast.GlobalDecl:
			seen["global"]++
		case *ast.FunDecl:
			seen["fun"]++
		case *ast.Param:
			seen["param"]++
		case *ast.DeclStmt:
			seen["decl"]++
		case *ast.BindStmt:
			seen["bind"]++
		case *ast.ConfineStmt:
			seen["confine"]++
		case *ast.AssignStmt:
			seen["assign"]++
		case *ast.IfStmt:
			seen["if"]++
		case *ast.WhileStmt:
			seen["while"]++
		case *ast.ReturnStmt:
			seen["return"]++
		case *ast.CallExpr:
			seen["call"]++
		case *ast.NewExpr:
			seen["new"]++
		case *ast.AddrExpr:
			seen["addr"]++
		case *ast.IndexExpr:
			seen["index"]++
		case *ast.FieldExpr:
			seen["fieldexpr"]++
		case *ast.DerefExpr:
			seen["deref"]++
		case *ast.UnExpr:
			seen["unary"]++
		case *ast.BinExpr:
			seen["binary"]++
		case *ast.RefType, *ast.ArrayType, *ast.NamedType, *ast.PrimType:
			seen["type"]++
		}
		return true
	})
	for _, k := range []string{
		"struct", "field", "global", "fun", "param", "decl", "bind",
		"confine", "assign", "if", "while", "return", "call", "new",
		"addr", "index", "fieldexpr", "deref", "unary", "binary", "type",
	} {
		if seen[k] == 0 {
			t.Errorf("walker never visited a %s node", k)
		}
	}
	if n := ast.CountNodes(prog); n < 100 {
		t.Errorf("kitchen sink too small: %d nodes", n)
	}
}

func TestPrintStandaloneNodes(t *testing.T) {
	// Fprint on non-program roots.
	var diags source.Diagnostics
	e := parser.ParseExpr("&locks[i + 1]", &diags)
	if got := ast.String(e); got != "&locks[i + 1]" {
		t.Errorf("expr: %q", got)
	}
	prog := parseSink(t)
	// A statement node.
	stmt := prog.Fun("main").Body.Stmts[0]
	if !strings.Contains(ast.String(stmt), "let q = new 0;") {
		t.Errorf("stmt: %q", ast.String(stmt))
	}
	// A type node.
	ty := prog.Struct("dev").Fields[1].Type
	if got := ast.String(ty); got != "ref dev" {
		t.Errorf("type: %q", got)
	}
	// A whole function.
	if !strings.Contains(ast.String(prog.Fun("helper")), "fun helper") {
		t.Error("fun rendering")
	}
}

// exprRoundTrips checks that every expression of prog reads back from
// its rendering as an equal tree.
func exprRoundTrips(t *testing.T, label string, prog *ast.Program) int {
	t.Helper()
	n := 0
	ast.Inspect(prog, func(nd ast.Node) bool {
		e, ok := nd.(ast.Expr)
		if !ok {
			return true
		}
		n++
		s := ast.ExprString(e)
		var diags source.Diagnostics
		back := parser.ParseExpr(s, &diags)
		if diags.HasErrors() || !ast.EqualExpr(back, e) {
			t.Errorf("%s: %q does not read back as the expression it renders:\n%s", label, s, diags.String())
		}
		return true
	})
	return n
}

// TestExprStringRoundTrip: parse(ExprString(e)) is EqualExpr to e for
// every expression of the golden files, the corpus, generated
// programs, and hand-built prefix operands of postfix operators.
func TestExprStringRoundTrip(t *testing.T) {
	for src, want := range map[string]string{
		"(*p).f": "(*p).f", "(*p)->f": "(*p)->f", "*(p.f)": "*p.f",
		"(&x)[i]": "(&x)[i]", "&(x[i])": "&x[i]", "(-x)[0]": "(-x)[0]",
		"(!x).f": "(!x).f", "(new s).l": "(new s).l", "new (s.l)": "new s.l",
		"*(*p)": "**p", "-(-x)": "--x", "&(*p).l": "&(*p).l",
		"-(a - b)": "-(a - b)", "((*p)[i]).f": "(*p)[i].f",
	} {
		var diags source.Diagnostics
		e := parser.ParseExpr(src, &diags)
		if diags.HasErrors() {
			t.Fatalf("%q: %s", src, diags.String())
		}
		if got := ast.ExprString(e); got != want {
			t.Errorf("ExprString(%q) = %q, want %q", src, got, want)
		}
		back := parser.ParseExpr(want, &diags)
		if diags.HasErrors() || !ast.EqualExpr(back, e) {
			t.Errorf("%q does not read back as %q: %s", want, src, diags.String())
		}
	}

	parse := func(name, src string) *ast.Program {
		var diags source.Diagnostics
		prog := parser.Parse(name, src, &diags)
		if diags.HasErrors() {
			t.Fatalf("%s: %s", name, diags.String())
		}
		return prog
	}
	n := exprRoundTrips(t, "kitchen sink", parseSink(t))
	files, err := filepath.Glob("../golden/testdata/*.mc")
	if err != nil || len(files) == 0 {
		t.Fatalf("golden files: %v", err)
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		n += exprRoundTrips(t, f, parse(f, string(b)))
	}
	for _, m := range drivergen.Corpus() {
		n += exprRoundTrips(t, m.Name, parse(m.Name, m.Source()))
	}
	for seed := int64(0); seed < 200; seed++ {
		n += exprRoundTrips(t, fmt.Sprintf("progen %d", seed), parse("gen.mc", progen.Generate(seed)))
		n += exprRoundTrips(t, fmt.Sprintf("locking %d", seed), parse("lock.mc", progen.Locking(seed)))
	}
	t.Logf("%d expressions round-tripped", n)
}
