package confine_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"localalias/internal/ast"
	"localalias/internal/confine"
	"localalias/internal/drivergen"
	"localalias/internal/parser"
	"localalias/internal/progen"
	"localalias/internal/source"
	"localalias/internal/types"
)

// factInputs returns the programs the fact tests run over, by name:
// every golden file, the 589 corpus modules, 500 progen.Locking seeds,
// a module whose redeclared function the check skips, and one with
// struct and scalar allocations (the corpus and seeds have none).
func factInputs(t *testing.T) map[string]string {
	t.Helper()
	in := map[string]string{
		"redeclared.mc": `
global g: lock;
fun f() { spin_lock(&g); h(); }
fun f() { spin_unlock(&g); spin_unlock(&g); h(); }
fun h() { }
`,
		"allocs.mc": `
struct dev { l: lock; n: int; next: ref dev; }
fun mk(n: int): ref dev {
    let d = new dev;
    let p = new n;
    let q = new new 3;
    d->next = new dev;
    spin_lock(&d->l);
    d->n = *p + **q;
    spin_unlock(&d->l);
    return d;
}
`,
	}
	golden, err := filepath.Glob("../golden/testdata/*.mc")
	if err != nil || len(golden) == 0 {
		t.Fatalf("no golden files (%v)", err)
	}
	for _, path := range golden {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		in[filepath.Base(path)] = string(src)
	}
	for _, spec := range drivergen.Corpus() {
		in[spec.Name+".mc"] = spec.Source()
	}
	for seed := int64(0); seed < 500; seed++ {
		in[fmt.Sprintf("lock_%d.mc", seed)] = progen.Locking(seed)
	}
	return in
}

// lockFactsMatchWalk compares the lock facts info records with one
// ast.Inspect walk of prog: the number of calls to state-changing
// builtins, and for every signature whether a call names it.
func lockFactsMatchWalk(prog *ast.Program, info *types.Info) error {
	sites, called := 0, map[string]bool{}
	ast.Inspect(prog, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok {
			called[c.Fun] = true
			if types.IsLockOp(c.Fun) {
				sites++
			}
		}
		return true
	})
	if info.LockSites != sites {
		return fmt.Errorf("check recorded %d lock-op sites, a walk finds %d", info.LockSites, sites)
	}
	for name, sig := range info.Funs {
		if sig.Called != called[name] {
			return fmt.Errorf("check recorded %s as called=%v, a walk says %v", name, sig.Called, called[name])
		}
	}
	return nil
}

// TestLockFactsMatchWalk checks the lock facts the checker records,
// which the qualifier analysis reads in place of walking the program,
// against a walk, before and after planting.
func TestLockFactsMatchWalk(t *testing.T) {
	plantedInputs := 0
	for name, src := range factInputs(t) {
		var diags source.Diagnostics
		prog := parser.Parse(name, src, &diags)
		info := types.Check(prog, &diags)
		if err := lockFactsMatchWalk(prog, info); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if diags.HasErrors() {
			continue
		}
		if planted, _ := confine.Plant(prog, info); planted > 0 {
			plantedInputs++
		}
		if err := lockFactsMatchWalk(prog, info); err != nil {
			t.Fatalf("%s after planting: %v", name, err)
		}
	}
	if plantedInputs == 0 {
		t.Error("no input planted a candidate")
	}
}

// TestStructAllocOfMatchesSyntax checks that StructAllocOf, which reads
// the checked type, names a struct exactly for "new S" where S is a
// declared struct.
func TestStructAllocOfMatchesSyntax(t *testing.T) {
	allocs := 0
	for name, src := range factInputs(t) {
		var diags source.Diagnostics
		prog := parser.Parse(name, src, &diags)
		info := types.Check(prog, &diags)
		if diags.HasErrors() {
			continue
		}
		ast.Inspect(prog, func(n ast.Node) bool {
			e, ok := n.(*ast.NewExpr)
			if !ok {
				return true
			}
			var want *ast.StructDecl
			if v, isVar := e.Init.(*ast.VarExpr); isVar {
				want = info.Structs[v.Name]
			}
			if got := info.StructAllocOf(e); got != want {
				t.Errorf("%s: StructAllocOf(%s) at %v = %v, want %v", name, ast.ExprString(e), e.Span(), got, want)
			}
			if want != nil {
				allocs++
			}
			return true
		})
	}
	if allocs == 0 {
		t.Error("no input allocates a struct")
	}
}
